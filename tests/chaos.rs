//! Chaos-harness integration tests: seeded fault schedules must leave the
//! protocol audit-clean with balanced transfer accounting, schedules must
//! replay bit-identically through their JSON form, and each recovery path
//! (autonomous local starts, checkpoint retries) must actually engage.

use condor::core::chaos::{ChaosEntry, Fault};
use condor::model::diurnal::DiurnalProfile;
use condor::model::owner::OwnerConfig;
use condor::prelude::*;
use proptest::prelude::*;

/// Busy, flappy owners so evictions — and checkpoint traffic — happen.
fn stormy(stations: usize) -> ClusterConfig {
    ClusterConfig {
        stations,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: SimDuration::from_minutes(8),
        },
        ..ClusterConfig::default()
    }
}

fn jobs(n: u64, stations: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            image_bytes: 400_000,
            ..JobSpec::new(
                JobId(i),
                UserId(0),
                NodeId::new((i % stations) as u32),
                SimTime::from_secs(600 * i),
                SimDuration::from_hours(2),
            )
        })
        .collect()
}

/// The acceptance sweep: 50 seed-derived schedules over the one-week
/// scenario, every run audit-clean and conservation-balanced. This is the
/// `cargo test` twin of `condor chaos --seeds 50`.
#[test]
fn fifty_seeded_schedules_run_audit_clean_with_conservation() {
    let scenario = one_week(1988);
    let horizon = SimDuration::from_days(2);
    let gen = ChaosGen {
        horizon,
        stations: scenario.config.stations as u32,
        faults: 8,
    };
    let report = explore(&scenario.config, &scenario.jobs, horizon, &gen, 0..50);
    assert_eq!(report.cases, 50);
    for f in &report.failures {
        eprintln!(
            "seed {} failed ({} violations), shrunk to {} fault(s): {}",
            f.seed,
            f.violations.len(),
            f.shrunk.entries.len(),
            f.shrunk.to_json()
        );
    }
    assert!(report.is_clean(), "{} seed(s) failed", report.failures.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serialization is faithful enough to *replay*: a generated schedule
    /// and its JSON round-trip drive bit-identical traces.
    #[test]
    fn json_round_trip_replays_bit_identically(
        seed in 0u64..10_000,
        faults in 1usize..10,
    ) {
        let gen = ChaosGen {
            horizon: SimDuration::from_days(2),
            stations: 6,
            faults,
        };
        let schedule = ChaosSchedule::generate(seed, &gen);
        let replayed = ChaosSchedule::from_json(&schedule.to_json()).expect("round-trip parses");
        prop_assert_eq!(&schedule, &replayed);

        let run = |sched: ChaosSchedule| {
            let config = ClusterConfig {
                chaos: Some(sched),
                ..stormy(6)
            };
            Run::new(config).specs(jobs(10, 6)).horizon(SimDuration::from_days(2)).execute()
        };
        let a = run(schedule);
        let b = run(replayed);
        prop_assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            prop_assert_eq!(x, y);
        }
    }
}

/// While the coordinator is down, stations fall back to autonomous local
/// starts: queued jobs begin on their own (idle) home machines, visible
/// both as `ChaosLocalStart` trace events and `chaos_local_start` span
/// markers — and the degraded run still passes the audit.
#[test]
fn coordinator_outage_degrades_to_local_starts() {
    let outage = SimDuration::from_hours(8);
    let schedule = ChaosSchedule {
        entries: vec![ChaosEntry {
            at: SimTime::ZERO,
            fault: Fault::CoordinatorOutage { duration: outage },
        }],
    };
    // Mostly-idle owners: with the coordinator dark, the only obstacle to
    // a local start is the protocol, not the machines.
    let config = ClusterConfig {
        stations: 6,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.15),
            ..OwnerConfig::default()
        },
        chaos: Some(schedule),
        ..ClusterConfig::default()
    };
    let audit = SharedSink::new(
        AuditSink::new().with_poll_interval(config.costs.coordinator_poll_interval),
    );
    let spans = SharedSink::new(SpanSink::new());
    let out = Run::new(config)
        .specs(jobs(12, 6))
        .horizon(SimDuration::from_days(2))
        .sink(Box::new(audit.clone()))
        .sink(Box::new(spans.clone()))
        .execute();

    assert!(
        out.totals.local_starts > 0,
        "no autonomous starts during an {outage} coordinator outage: {:?}",
        out.totals
    );
    let local_starts: Vec<_> = out
        .trace
        .filtered(|k| matches!(k, TraceKind::ChaosLocalStart { .. }))
        .collect();
    assert_eq!(local_starts.len() as u64, out.totals.local_starts);
    for ev in &local_starts {
        assert!(ev.at < SimTime::ZERO + outage, "local start after recovery at {}", ev.at);
        let TraceKind::ChaosLocalStart { job, on } = ev.kind else { unreachable!() };
        assert_eq!(on, out.jobs[job.0 as usize].spec.home, "local starts run at home");
    }
    // The outage itself is on the record, down before up.
    let down = out.trace.filtered(|k| matches!(k, TraceKind::ChaosCoordDown)).count();
    let up = out.trace.filtered(|k| matches!(k, TraceKind::ChaosCoordUp)).count();
    assert_eq!((down, up), (1, 1));
    // Span markers carry the same story for timeline tooling.
    let markers = spans.with(|s| {
        s.log().markers.iter().filter(|m| m.label == "chaos_local_start").count()
    });
    assert_eq!(markers as u64, out.totals.local_starts);
    audit.with(|a| {
        assert!(a.is_clean(), "degraded run must stay legal: {:?}", a.violations());
    });
}

/// A corruption window forces checkpoint retries, and the retries must not
/// double-count: every byte the bus moved is accounted for by exactly one
/// trace event, and rollback totals stay balanced.
#[test]
fn checkpoint_retry_accounting_balances() {
    let base = stormy(6);
    let specs = jobs(10, 6);
    let horizon = SimDuration::from_days(3);
    let schedule = ChaosSchedule {
        entries: vec![ChaosEntry {
            at: SimTime::ZERO,
            fault: Fault::CkptCorrupt { duration: SimDuration::from_days(3) },
        }],
    };
    let violations = verify_schedule(&base, &specs, horizon, &schedule);
    assert!(violations.is_empty(), "{violations:?}");

    let config = ClusterConfig {
        chaos: Some(schedule),
        ..base
    };
    let out = Run::new(config.clone()).specs(specs).horizon(horizon).execute();
    assert!(
        out.totals.ckpt_retries > 0,
        "corruption window never bit a checkpoint: {:?}",
        out.totals
    );
    assert!(out.bus_bytes_moved > 0, "accounting check would be vacuous");
    let corruptions = out
        .trace
        .filtered(|k| matches!(k, TraceKind::ChaosCkptCorrupted { .. }))
        .count();
    assert_eq!(corruptions as u64, out.totals.ckpt_retries);
    // The reconciliation: every bus transfer and byte maps to exactly one
    // trace event (placement, checkpoint, periodic checkpoint, or a retry
    // that fired before the horizon) — retries never double-book.
    let bad = verify_conservation(&config, &out);
    assert!(bad.is_empty(), "{bad:?}");
    // Crash rollbacks balance too (trivially zero here: no failure model).
    let rollbacks = out
        .trace
        .filtered(|k| matches!(k, TraceKind::CrashRollback { .. }))
        .count();
    assert_eq!(rollbacks as u64, out.totals.crash_rollbacks);
}

/// Chaos faults route deterministically to the shard that owns them —
/// partitions to the pools their station ranges intersect, control-plane
/// faults to the coordinator's pool, corruption windows everywhere — so a
/// sharded run under fault injection is still bit-identical at every
/// worker thread count.
#[test]
fn chaos_under_parallelism_is_thread_invariant() {
    let gen = ChaosGen {
        horizon: SimDuration::from_days(2),
        stations: 9,
        faults: 6,
    };
    for seed in [7u64, 1988, 4242] {
        let schedule = ChaosSchedule::generate(seed, &gen);
        let mut reference: Option<Vec<TraceEvent>> = None;
        for threads in [1usize, 2, 4] {
            let config = ClusterConfig {
                chaos: Some(schedule.clone()),
                topology: Some(PoolTopology::uniform(3, SimDuration::from_secs(120))),
                ..stormy(9)
            };
            let out = Run::new(config)
                .specs(jobs(12, 9))
                .horizon(SimDuration::from_days(2))
                .threads(threads)
                .execute();
            assert!(!out.trace.is_empty(), "chaos run produced no trace (seed {seed})");
            let events = out.trace.events().to_vec();
            match &reference {
                None => reference = Some(events),
                Some(r) => assert_eq!(
                    &events, r,
                    "chaos trace diverged at {threads} threads (seed {seed})"
                ),
            }
        }
        // With no pinned count, the runner falls back to
        // `default_threads()`, which honors CONDOR_THREADS — the CI
        // determinism smoke sets it to 2 to exercise a real multi-worker
        // replay through this arm.
        let config = ClusterConfig {
            chaos: Some(schedule.clone()),
            topology: Some(PoolTopology::uniform(3, SimDuration::from_secs(120))),
            ..stormy(9)
        };
        let out = Run::new(config).specs(jobs(12, 9)).horizon(SimDuration::from_days(2)).execute();
        assert_eq!(
            out.trace.events(),
            &reference.unwrap()[..],
            "chaos trace diverged under default_threads() (seed {seed})"
        );
    }
}
