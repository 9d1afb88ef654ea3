//! Protocol-invariant tests: replay the cluster's event trace and verify
//! that every observable sequence is legal — per job *and* per station.

use std::collections::HashMap;

use condor::core::trace::TraceKind;
use condor::prelude::*;
use condor::workload::scenarios::paper_month;
use condor_net::NodeId;

fn stormy_output(seed: u64) -> RunOutput {
    let scenario = paper_month(seed);
    Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute()
}

/// Per-job lifecycle replay: arrivals precede placements, placements
/// precede starts, a completion is terminal, and checkpoint transfers are
/// balanced.
#[test]
fn per_job_event_sequences_are_legal() {
    let out = stormy_output(1988);
    #[derive(Default, Debug)]
    struct JobLog {
        arrived: u32,
        placements: u32,
        starts: u32,
        ckpt_started: u32,
        ckpt_done: u32,
        completed: u32,
        events_after_completion: u32,
    }
    let mut logs: HashMap<u64, JobLog> = HashMap::new();
    for ev in out.trace.events() {
        let Some(job) = ev.kind.job() else { continue };
        let log = logs.entry(job.0).or_default();
        if log.completed > 0 {
            log.events_after_completion += 1;
        }
        match ev.kind {
            TraceKind::JobArrived { .. } => log.arrived += 1,
            TraceKind::PlacementStarted { .. } => {
                assert_eq!(log.arrived, 1, "placement before arrival for {job:?}");
                log.placements += 1;
            }
            TraceKind::JobStarted { .. } => {
                assert!(log.placements >= 1, "start before placement for {job:?}");
                log.starts += 1;
            }
            TraceKind::CheckpointStarted { .. } => log.ckpt_started += 1,
            TraceKind::CheckpointCompleted { .. } => log.ckpt_done += 1,
            TraceKind::JobCompleted { .. } => log.completed += 1,
            _ => {}
        }
    }
    assert!(!logs.is_empty());
    for (id, log) in &logs {
        assert_eq!(log.arrived, 1, "job {id} arrival count");
        assert!(log.completed <= 1, "job {id} completed twice");
        assert_eq!(
            log.ckpt_started, log.ckpt_done,
            "job {id}: checkpoint transfer lost"
        );
        assert_eq!(
            log.events_after_completion, 0,
            "job {id} had events after completion"
        );
    }
}

/// Per-station occupancy replay: a machine never hosts two foreign jobs at
/// once, and every occupancy interval is closed by exactly one of
/// completion / checkpoint / kill.
#[test]
fn stations_host_at_most_one_foreign_job() {
    let out = stormy_output(77);
    let mut resident: HashMap<NodeId, u64> = HashMap::new();
    for ev in out.trace.events() {
        match ev.kind {
            TraceKind::PlacementStarted { job, target } => {
                if let Some(&other) = resident.get(&target) {
                    panic!(
                        "{target} received {job:?} while hosting job {other} at {}",
                        ev.at
                    );
                }
                resident.insert(target, job.0);
            }
            TraceKind::JobCompleted { job, on } => {
                assert_eq!(resident.remove(&on), Some(job.0), "completion on wrong station");
            }
            TraceKind::CheckpointCompleted { job, from, .. } => {
                assert_eq!(resident.remove(&from), Some(job.0), "checkpoint from wrong station");
            }
            TraceKind::JobKilled { job, on } => {
                assert_eq!(resident.remove(&on), Some(job.0), "kill on wrong station");
            }
            _ => {}
        }
    }
    // Whatever remains resident at the horizon must match unfinished jobs.
    for (station, job) in resident {
        let j = &out.jobs[job as usize];
        assert!(
            j.state.remote_station() == Some(station),
            "job {job} left dangling at {station}"
        );
    }
}

/// Owner activity traces alternate per station (no double-active or
/// double-idle transitions).
#[test]
fn owner_transitions_alternate() {
    let out = stormy_output(3);
    let mut state: HashMap<NodeId, bool> = HashMap::new();
    for ev in out.trace.events() {
        match ev.kind {
            TraceKind::OwnerActive { station } => {
                let was = state.insert(station, true);
                assert_ne!(was, Some(true), "{station} went active twice");
            }
            TraceKind::OwnerIdle { station } => {
                let was = state.insert(station, false);
                assert_ne!(was, Some(false), "{station} went idle twice");
            }
            _ => {}
        }
    }
}

/// The §4 placement throttle holds globally: placement starts never bunch
/// tighter than the poll interval.
#[test]
fn placement_throttle_holds_at_month_scale() {
    let out = stormy_output(1988);
    let starts: Vec<_> = out
        .trace
        .filtered(|k| matches!(k, TraceKind::PlacementStarted { .. }))
        .map(|e| e.at)
        .collect();
    assert!(starts.len() > 1_000, "month run places thousands of jobs");
    for w in starts.windows(2) {
        assert!(
            w[1].since(w[0]) >= SimDuration::from_minutes(2),
            "placements at {} and {} violate the throttle",
            w[0],
            w[1]
        );
    }
}

/// Coordinator polls tick at the configured cadence for the whole run.
#[test]
fn coordinator_polls_are_periodic() {
    let out = stormy_output(5);
    let polls: Vec<_> = out
        .trace
        .filtered(|k| matches!(k, TraceKind::CoordinatorPolled { .. }))
        .map(|e| e.at)
        .collect();
    assert_eq!(polls.len() as u64, out.totals.polls);
    for w in polls.windows(2) {
        assert_eq!(w[1].since(w[0]), SimDuration::from_minutes(2));
    }
}
