//! Consistency suite for the incrementally maintained coordinator state:
//! the views, the free/requester/host membership sets, the consumer
//! ledger (machines in use per home), the bucketed free-capacity index,
//! the per-station occupancy totals and the raw queue lengths must equal
//! a from-scratch derivation at *any* point in a run, not just at poll
//! boundaries.
//!
//! The reference is `Cluster::derive_coord`, the one derivation of that
//! state from primary state, which construction also uses. Debug builds
//! already compare against it after every poll's flush; these tests drive
//! the same comparison through the public `verify_coord_cache` hook
//! between arbitrary events, in every build profile, across seeded
//! workloads that exercise the paths most likely to forget a dirty-mark:
//! fractional capacity packing, chaos schedules (partitions make stations
//! dark, outages drop polls), station failures, reservations, and gang
//! placements.

use condor::core::chaos::{ChaosGen, ChaosSchedule};
use condor::model::station::ResourceVec;
use condor::core::config::Reservation;
use condor::core::Totals;
use condor::prelude::*;
use condor::sim::engine::Engine;
use proptest::prelude::*;

/// Steps the cluster to `horizon`, rescanning the coordinator cache every
/// `stride` events and once at the end, and showing the cluster to
/// `observe` after each mid-run rescan. Panics (inside the hook) on any
/// divergence between maintained and recomputed state. Returns the events
/// dispatched and the run's totals.
fn drive_and_observe(
    cfg: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    stride: u64,
    mut observe: impl FnMut(&Cluster),
) -> (u64, Totals) {
    let mut eng = Engine::new(Cluster::new(cfg, specs));
    Cluster::prime(&mut eng);
    let end = SimTime::ZERO + horizon;
    let mut dispatched = 0u64;
    while eng.next_event_time().is_some_and(|t| t <= end) {
        eng.step();
        dispatched += 1;
        if dispatched.is_multiple_of(stride) {
            eng.model_mut().verify_coord_cache();
            observe(eng.model());
        }
    }
    eng.model_mut().verify_coord_cache();
    (dispatched, *eng.model().totals())
}

fn drive_and_verify(
    cfg: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    stride: u64,
) -> u64 {
    drive_and_observe(cfg, specs, horizon, stride, |_| {}).0
}

fn mixed_jobs(n: u64, stations: u64, fractional: bool) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            image_bytes: 300_000 + 40_000 * (i % 5),
            syscalls_per_cpu_sec: 0.5,
            resources: if fractional {
                // Mixed shares so stations pack at different remainders.
                ResourceVec::share(250 + 250 * (i % 3) as u32)
            } else {
                ResourceVec::WHOLE
            },
            ..JobSpec::new(
                JobId(i),
                UserId((i % 4) as u32),
                NodeId::new((i % stations) as u32),
                SimTime::from_secs(400 * i),
                SimDuration::from_hours(1 + i % 3),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Default policy under a seeded chaos schedule: partitions, outages,
    /// duplicated and delayed polls must all keep the maintained indexes
    /// equal to recomputation mid-run.
    #[test]
    fn chaos_runs_keep_indexes_consistent(
        seed in 0u64..1_000,
        stations in 8usize..32,
        faults in 1usize..10,
    ) {
        let horizon = SimDuration::from_days(2);
        let gen = ChaosGen { horizon, stations: stations as u32, faults };
        let schedule = ChaosSchedule::generate(seed, &gen);
        let cfg = ClusterConfig {
            stations,
            seed,
            record_trace: false,
            chaos: Some(schedule),
            ..ClusterConfig::default()
        };
        let events = drive_and_verify(cfg, mixed_jobs(18, stations as u64, false), horizon, 157);
        prop_assert!(events > 0);
    }

    /// Fractional capacity profiles under FracPolicy: the bucketed
    /// capacity index tracks partial remainders as slots pack and drain,
    /// which is exactly where a stale `free_cpu_milli` key would hide.
    #[test]
    fn fractional_runs_keep_capacity_index_consistent(
        seed in 0u64..1_000,
        stations in 8usize..28,
    ) {
        let cfg = ClusterConfig {
            stations,
            seed,
            record_trace: false,
            policy: PolicyKind::Frac,
            capacity_profiles: vec![
                ResourceVec::WHOLE,
                ResourceVec::share(1500),
                ResourceVec::new(2000, 1000),
            ],
            ..ClusterConfig::default()
        };
        let events =
            drive_and_verify(cfg, mixed_jobs(24, stations as u64, true), SimDuration::from_days(2), 131);
        prop_assert!(events > 0);
    }
}

/// Kitchen-sink determinism case: failures, a standing reservation, a
/// width-2 gang, and history-aware placement together — the paths that
/// mutate occupancy outside the plain place/finish cycle (crash teardown
/// zeroes a station's total wholesale, gang teardown walks members).
#[test]
fn failures_reservations_and_gangs_stay_consistent() {
    let mut specs = mixed_jobs(20, 12, false);
    specs[7].width = 2;
    specs[13].width = 2;
    let cfg = ClusterConfig {
        stations: 12,
        seed: 77,
        record_trace: false,
        history_aware_placement: true,
        failures: Some(FailureConfig {
            mtbf: SimDuration::from_days(1),
            mttr: SimDuration::from_hours(4),
        }),
        reservations: vec![Reservation {
            holder: NodeId::new(0),
            machines: 3,
            from: SimTime::from_hours(6),
            until: SimTime::from_hours(30),
        }],
        ..ClusterConfig::default()
    };
    let events = drive_and_verify(cfg, specs, SimDuration::from_days(3), 97);
    assert!(events > 1_000, "scenario too quiet to exercise the cache ({events} events)");
}

/// Whole machines, many consuming homes: 20 homes keep 40 stations busy
/// under Up-Down at eight placements per poll, with two reservation
/// windows fencing machines mid-run. Every way a station's `hosting_for`
/// changes moves the consumer ledger — placement done, owner suspend and
/// resume, checkpoint-out, priority preemption, completion, and a fence
/// going up over a resident (its view says `hosting_for: None` while the
/// job is still there) — and the rescan recounts the ledger from the
/// views every few events.
#[test]
fn many_consuming_homes_keep_the_consumer_ledger_consistent() {
    let specs: Vec<JobSpec> = (0..240u64)
        .map(|i| JobSpec {
            image_bytes: 300_000 + 40_000 * (i % 5),
            ..JobSpec::new(
                JobId(i),
                UserId((i % 20) as u32),
                NodeId::new(2 * (i % 20) as u32),
                // Home 0 floods at the start; the rest trickle in.
                SimTime::from_secs(if i % 20 == 0 { 0 } else { 900 * i }),
                SimDuration::from_hours(2 + i % 4),
            )
        })
        .collect();
    let cfg = ClusterConfig {
        stations: 40,
        seed: 1988,
        record_trace: false,
        placements_per_poll: 8,
        reservations: vec![
            Reservation {
                holder: NodeId::new(2),
                machines: 6,
                from: SimTime::from_hours(10),
                until: SimTime::from_hours(30),
            },
            Reservation {
                holder: NodeId::new(0),
                machines: 4,
                from: SimTime::from_hours(40),
                until: SimTime::from_hours(52),
            },
        ],
        ..ClusterConfig::default()
    };
    let mut most_homes = 0usize;
    let (_, totals) = drive_and_observe(cfg, specs, SimDuration::from_days(4), 41, |cluster| {
        let mut homes: Vec<NodeId> = cluster
            .jobs()
            .iter()
            .filter(|j| matches!(j.state, JobState::Running { .. }))
            .map(|j| j.spec.home)
            .collect();
        homes.sort_unstable();
        homes.dedup();
        most_homes = most_homes.max(homes.len());
    });
    assert!(most_homes >= 10, "only {most_homes} homes ever consumed at once");
    assert!(totals.preemptions_priority > 0, "no priority preemption: {totals:?}");
    assert!(totals.preemptions_owner > 0, "no owner eviction: {totals:?}");
    assert!(totals.reservation_placements > 0, "fences never served: {totals:?}");
}

/// Fold mode — nothing records, no chaos, no failures — with the owner
/// half of a refresh running on its own. Stations 1–4 are fenced for a
/// holder that never submits, so they host nothing and stay lazily folded
/// right through the window: each is flushed once when the fence goes up
/// (its offer drops to zero), its owner's transitions inside the window
/// settle `can_host` from that zero and the owner's state alone, and the
/// fence coming down flushes it again (the offer returns — 1500 or 2000
/// milli-CPUs here, never the whole-machine 1000). The fractional jobs
/// pack the unfenced machines to other remainders meanwhile. The rescan
/// runs after every single event, so one transition settled from a stale
/// offer fails at the next one.
#[test]
fn a_fenced_lazily_folded_station_settles_from_its_offer() {
    let (from, until) = (SimTime::from_hours(1), SimTime::from_hours(11));
    let fenced = 1..=4u32;
    let specs: Vec<JobSpec> = (0..30u64)
        .map(|i| JobSpec {
            image_bytes: 300_000,
            resources: ResourceVec::share(250 + 250 * (i % 3) as u32),
            ..JobSpec::new(
                JobId(i),
                UserId((i % 4) as u32),
                NodeId::new(5 + (i % 9) as u32),
                SimTime::from_secs(7_200 + 900 * i),
                SimDuration::from_hours(1 + i % 3),
            )
        })
        .collect();
    let cfg = |record_trace: bool| {
        ClusterConfig {
            stations: 16,
            seed: 17,
            record_trace,
            policy: PolicyKind::Frac,
            placements_per_poll: 4,
            capacity_profiles: vec![ResourceVec::share(1500), ResourceVec::new(2000, 1000)],
            reservations: vec![Reservation { holder: NodeId::new(0), machines: 4, from, until }],
            ..ClusterConfig::default()
        }
    };
    // Off the poll grid: the stepping loop delivers an event due at the
    // horizon itself, `Run` does not.
    let horizon = SimDuration::from_days(2) - SimDuration::from_secs(60);
    let (stepped, totals) = drive_and_observe(cfg(false), specs.clone(), horizon, 1, |_| {});
    // The same run with every station in the event queue says what
    // happened where (a run's books do not depend on who watches:
    // tests/owner_fold.rs).
    let watched = Run::new(cfg(true)).specs(specs).horizon(horizon).execute();
    assert_eq!(totals, watched.totals);
    assert!(totals.placements > 20 && totals.reservation_placements == 0, "{totals:?}");
    // Polls aside, most of what the watched run dispatched — the owner
    // transitions of stations hosting nothing — never entered this queue.
    let (queued, all) = (stepped - totals.polls, watched.events_dispatched - totals.polls);
    assert!(queued * 2 < all, "the stepped run was not folding: {queued} of {all} events queued");
    let events = watched.trace.events();
    assert!(events.iter().any(|ev| ev.at == from
        && ev.kind == TraceKind::ReservationStarted { holder: NodeId::new(0), machines: 4 }));
    // No resident, hence no queue entry, on a fenced station before the
    // fence came down...
    assert!(!events.iter().any(|ev| ev.at < until
        && matches!(ev.kind, TraceKind::PlacementStarted { target, .. } if fenced.contains(&target.index()))));
    // ...and at least one of their owners left inside the window.
    assert!(events.iter().any(|ev| from < ev.at
        && ev.at < until
        && matches!(ev.kind, TraceKind::OwnerIdle { station } if fenced.contains(&station.index()))));
}
