//! Observing a run must never change it.
//!
//! A station that hosts nothing, in a run nobody records event by event,
//! owns no `OwnerFlip` queue entry: its owner's comings and goings are
//! folded at the poll (`Cluster::prime` decides, `on_poll` folds). A
//! recorded run keeps every station in the queue — the classic path the
//! golden digests pin. These tests run each member of the golden family
//! both ways and demand the same `RunOutput`, cell by cell, then pin the
//! same-millisecond ties the fold has to order, and finally check that
//! the fold is really on the path.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{loaded, FAMILY};
use condor_core::chaos::ChaosSchedule;
use condor_core::cluster::{Cluster, Run, RunOutput, Totals};
use condor_core::config::PolicyKind;
use condor_core::telemetry::TraceSink;
use condor_core::trace::{TraceEvent, TraceKind};
use condor_sim::engine::Engine;
use condor_sim::time::SimTime;
use condor_workload::scenarios::{fleet_scale, Scenario};

/// Owner seeds per family member: `config.seed + k` re-rolls every owner
/// (and the random policy) under the same job trace.
const OWNER_SEEDS: u64 = 20;

/// A sink that looks at nothing. Its presence alone keeps every station
/// in the event queue.
#[derive(Debug)]
struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _: &TraceEvent) {}
}

/// How a run is watched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Watch {
    /// `record_trace: true` — the path the golden digests pin.
    Trace,
    /// Trace off, a no-op sink attached.
    Sink,
    /// Nothing attached: unobserved stations are folded.
    Nobody,
}

fn run(mut scenario: Scenario, watch: Watch) -> RunOutput {
    scenario.config.record_trace = watch == Watch::Trace;
    let mut run = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon);
    if watch == Watch::Sink {
        run = run.sink(Box::new(NullSink));
    }
    run.execute()
}

/// One job's accounting: `(work_done, work_lost, checkpoints,
/// placements, completed_at, remote_cpu, support_us)`.
type JobBooks = (u64, u64, u32, u32, Option<u64>, u64, u64);

/// Everything a `RunOutput` carries besides the trace itself.
#[derive(Debug, PartialEq)]
struct Books {
    totals: Totals,
    jobs: Vec<JobBooks>,
    telemetry: String,
    events_dispatched: u64,
    queue_total: String,
    /// Bit patterns of the hourly buckets: equal means bit-exact.
    local_busy: Vec<u64>,
    remote_busy: Vec<u64>,
}

fn books(out: &RunOutput) -> Books {
    let hours = (out.horizon.as_millis() / 3_600_000) as usize + 1;
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    Books {
        totals: out.totals,
        jobs: out
            .jobs
            .iter()
            .map(|j| {
                (
                    j.work_done.as_millis(),
                    j.work_lost.as_millis(),
                    j.checkpoints,
                    j.placements,
                    j.completed_at.map(|t| t.as_millis()),
                    j.remote_cpu.as_millis(),
                    j.support_us,
                )
            })
            .collect(),
        telemetry: format!("{:?}", out.telemetry),
        events_dispatched: out.events_dispatched,
        queue_total: format!("{:?}", out.queue_total),
        local_busy: bits(out.local_busy.bucket_totals(hours)),
        remote_busy: bits(out.remote_busy.bucket_totals(hours)),
    }
}

/// Field by field, so a failure names what moved instead of dumping two
/// whole ledgers.
fn assert_same_books(cell: &str, watched: &Books, unwatched: &Books) {
    assert_eq!(watched.totals, unwatched.totals, "{cell}: totals");
    assert_eq!(watched.events_dispatched, unwatched.events_dispatched, "{cell}: events");
    assert_eq!(watched.jobs, unwatched.jobs, "{cell}: per-job accounting");
    assert_eq!(watched.telemetry, unwatched.telemetry, "{cell}: telemetry");
    assert_eq!(watched.queue_total, unwatched.queue_total, "{cell}: queue series");
    assert_eq!(watched.local_busy, unwatched.local_busy, "{cell}: hourly local_busy");
    assert_eq!(watched.remote_busy, unwatched.remote_busy, "{cell}: hourly remote_busy");
}

fn reseeded(build: fn() -> Scenario, k: u64) -> Scenario {
    let mut s = build();
    s.config.seed += k;
    s
}

/// Every family member × twenty owner seeds: the traced run, the run
/// under a no-op sink and the run nobody watches keep the same books.
/// The 260 cells are shared out over the host's cores — 780 runs are slow
/// in a debug build.
#[test]
fn a_run_nobody_watches_keeps_the_same_books() {
    let cells = FAMILY.len() * OWNER_SEEDS as usize;
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let cell = next.fetch_add(1, Ordering::Relaxed);
                if cell >= cells {
                    break;
                }
                let (name, build) = FAMILY[cell / OWNER_SEEDS as usize];
                let k = cell as u64 % OWNER_SEEDS;
                let cell = format!("{name} seed+{k}");
                let traced = books(&run(reseeded(build, k), Watch::Trace));
                let dark = books(&run(reseeded(build, k), Watch::Nobody));
                assert_same_books(&cell, &traced, &dark);
                let sunk = books(&run(reseeded(build, k), Watch::Sink));
                assert_same_books(&format!("{cell} (sink)"), &sunk, &dark);
            });
        }
    });
}

/// The traced run's events stamped `at`, in trace order.
fn events_at(out: &RunOutput, at: SimTime) -> Vec<TraceKind> {
    out.trace.events().iter().filter(|e| e.at == at).map(|e| e.kind).collect()
}

/// The station whose owner `kind` moves, if it is an owner transition.
fn flip_station(kind: &TraceKind) -> Option<u32> {
    match kind {
        TraceKind::OwnerActive { station } | TraceKind::OwnerIdle { station } => {
            Some(station.index())
        }
        _ => None,
    }
}

/// Tie, placement side: at owner seed 1990 station 0's owner sits down on
/// the very millisecond (147 000 856) job 176's image lands there. The
/// station took its queue entry when the poll placed the job — before
/// `PlacementDone` was scheduled — so the transition still goes first and
/// the job arrives to a busy machine, as in the traced run.
#[test]
fn an_owner_return_on_the_millisecond_of_a_placement_done_stays_first() {
    let at = SimTime::from_millis(147_000_856);
    for policy in [PolicyKind::RoundRobin, PolicyKind::Random] {
        let scenario = || {
            let mut s = loaded();
            s.config.seed = 1990;
            s.config.policy = policy;
            s
        };
        let traced = run(scenario(), Watch::Trace);
        // The pin holds what it says: flip first, then the job finds the
        // owner there and is suspended instead of started.
        let here = events_at(&traced, at);
        let flip = here
            .iter()
            .position(|k| matches!(k, TraceKind::OwnerActive { station } if station.index() == 0))
            .unwrap_or_else(|| panic!("{policy:?}: no owner return on station 0 at {at}: {here:?}"));
        let landed = here
            .iter()
            .position(|k| matches!(k, TraceKind::JobSuspended { job, on } if job.0 == 176 && on.index() == 0))
            .unwrap_or_else(|| panic!("{policy:?}: job 176 did not land on station 0 at {at}: {here:?}"));
        assert!(flip < landed, "{policy:?}: the tie resolved the other way: {here:?}");
        let dark = run(scenario(), Watch::Nobody);
        assert_same_books(&format!("{policy:?} seed 1990"), &books(&traced), &books(&dark));
    }
}

/// Where the traced run puts each owner transition that shares a poll's
/// instant: `(at, station, before_the_poll)`.
fn flips_on_a_poll_instant(out: &RunOutput) -> Vec<(SimTime, u32, bool)> {
    let events = out.trace.events();
    let polls: HashMap<SimTime, usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, TraceKind::CoordinatorPolled { .. }))
        .map(|(i, e)| (e.at, i))
        .collect();
    events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| Some((e.at, flip_station(&e.kind)?, i < *polls.get(&e.at)?)))
        .collect()
}

/// The instant of `station`'s last transition strictly before `at`.
fn previous_flip(out: &RunOutput, station: u32, at: SimTime) -> SimTime {
    out.trace
        .events()
        .iter()
        .rev()
        .find(|e| e.at < at && flip_station(&e.kind) == Some(station))
        .map_or(SimTime::ZERO, |e| e.at)
}

/// Tie, poll side. An owner transition due on a poll's own millisecond
/// goes after the poll when its predecessor is younger than the previous
/// poll (the poll was scheduled first), before it when older. One owner
/// seed of the saturated `loaded()` fleet for each side, found by scanning
/// 3,000 seeds with the fold's rule deliberately broken (`<=` for `<` at
/// the poll; no queue entry for a transition due on the next poll) and
/// keeping seeds whose books then moved: the station is idle and empty,
/// so which side of the poll its owner moves on decides whether that poll
/// may grant it. The traced run proves the tie is there; the unwatched
/// run must resolve it the same way.
#[test]
fn a_transition_on_a_polls_millisecond_keeps_its_side_of_the_poll() {
    let interval = loaded().config.costs.coordinator_poll_interval;
    for (seed, want_before) in TIE_SEEDS {
        let scenario = || {
            let mut s = loaded();
            s.config.seed = seed;
            s
        };
        let traced = run(scenario(), Watch::Trace);
        let ties = flips_on_a_poll_instant(&traced);
        let side = if want_before { "before" } else { "after" };
        assert!(
            ties.iter().any(|&(at, station, before)| {
                let older = previous_flip(&traced, station, at) < at - interval;
                before == want_before && older == want_before
            }),
            "seed {seed}: no transition {side} a poll on its millisecond; ties: {ties:?}"
        );
        let dark = run(scenario(), Watch::Nobody);
        assert_same_books(&format!("loaded seed {seed}"), &books(&traced), &books(&dark));
    }
}

/// `(owner seed, the transition precedes the poll)`.
const TIE_SEEDS: [(u64, bool); 2] = [(3633, false), (4124, true)];

/// Events a hand-primed run puts through the engine's queue — as opposed
/// to the `events_dispatched` a run reports, which counts folded
/// transitions too.
fn queue_dispatches(scenario: Scenario, sink: bool) -> u64 {
    let Scenario { config, jobs, horizon, .. } = scenario;
    let mut cluster = Cluster::new(config, jobs);
    if sink {
        cluster.attach_sink(Box::new(NullSink));
    }
    let mut engine = Engine::new(cluster);
    Cluster::prime(&mut engine);
    engine.run_until(SimTime::ZERO + horizon);
    engine.events_dispatched()
}

/// The fold is on the path: an unwatched 1,000-station run dispatches
/// fewer events than it reports, a watched twin dispatches every one.
#[test]
fn unwatched_stations_leave_the_event_queue() {
    let scenario = || fleet_scale(1988, 1000, 1, 2);
    let reported = run(scenario(), Watch::Nobody).events_dispatched;
    let dark = queue_dispatches(scenario(), false);
    assert!(
        dark < reported / 2,
        "{dark} of {reported} events went through the queue: the fold is off"
    );
    assert_eq!(queue_dispatches(scenario(), true), reported, "a watched run dispatches what it reports");
}

/// A chaos configuration whose schedule is empty plants no fault, so it
/// decides nothing in `prime`: every family member that configures no
/// chaos keeps its books under `Some(ChaosSchedule::default())`, and the
/// stations still leave the queue.
#[test]
fn an_empty_chaos_schedule_keeps_the_fold_on() {
    let armed = |mut s: Scenario| {
        s.config.chaos = Some(ChaosSchedule::default());
        s
    };
    for (name, build) in FAMILY {
        if build().config.chaos.is_some() {
            continue;
        }
        let plain = books(&run(build(), Watch::Nobody));
        let empty = books(&run(armed(build()), Watch::Nobody));
        assert_same_books(&format!("{name} (empty chaos)"), &plain, &empty);
    }
    let fleet = || armed(fleet_scale(1988, 1000, 1, 2));
    let folded = queue_dispatches(fleet(), false);
    let queued = queue_dispatches(fleet(), true);
    assert!(
        folded < queued / 2,
        "{folded} of {queued} events went through the queue: an empty schedule switched the fold off"
    );
}
