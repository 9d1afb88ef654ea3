//! Gangs (paper §5(2) parallel programs): k machines at once, collective
//! suspension and checkpointing, crash survival, whole-gang preemption.

mod common;
use common::*;

fn gang_spec(id: u64, width: u32, demand_h: u64, arrival_h: u64) -> JobSpec {
    JobSpec { width, ..spec(id, 0, 0, arrival_h, demand_h) }
}

#[test]
fn gang_runs_on_k_machines_and_completes() {
    let out = Run::new(quiet_config(6))
        .specs(vec![gang_spec(0, 3, 4, 0)])
        .horizon(SimDuration::from_days(1))
        .execute();
    let j = &out.jobs[0];
    assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
    assert_eq!(j.work_done, SimDuration::from_hours(4));
    // Capacity consumed = width × work.
    assert_eq!(j.remote_cpu, SimDuration::from_hours(12));
    assert!(out.totals.gang_placements >= 1);
    // Every gang placement round ships exactly width images.
    let member_placements = out
        .trace
        .count(|k| matches!(k, TraceKind::PlacementStarted { .. }));
    assert_eq!(member_placements as u64, 3 * out.totals.gang_placements);
    // Utilization ledger saw 3 machine-streams of ~4 h.
    assert!(
        (out.consumed_cpu_hours() - 12.0).abs() < 0.5,
        "consumed {}",
        out.consumed_cpu_hours()
    );
}

#[test]
fn gang_waits_until_enough_machines() {
    // 4 stations; a width-3 gang plus enough singles to crowd it out
    // initially. The gang must eventually assemble 3 machines.
    let mut jobs = vec![gang_spec(0, 3, 2, 0)];
    for i in 1..4 {
        jobs.push(gang_spec(i, 1, 6, 0));
    }
    let out = Run::new(quiet_config(4)).specs(jobs).horizon(SimDuration::from_days(2)).execute();
    assert_eq!(out.completed_jobs().count(), 4, "{:?}", out.totals);
}

#[test]
fn owner_on_any_member_suspends_the_whole_gang() {
    // Stormy owners: the width-3 gang will be interrupted repeatedly
    // but must finish with exact work accounting.
    let out = Run::new(stormy_config(6))
        .specs(vec![gang_spec(0, 3, 10, 0)])
        .horizon(SimDuration::from_days(20))
        .execute();
    let j = &out.jobs[0];
    assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
    assert_eq!(j.work_done, j.spec.demand);
    assert_eq!(j.work_lost, SimDuration::ZERO, "grace checkpointing never loses work");
    assert!(
        out.totals.preemptions_owner > 0,
        "storms must interrupt: {:?}",
        out.totals
    );
    // Gross consumption covers width × net work.
    assert!(j.remote_cpu >= j.work_done * 3);
}

#[test]
fn gang_eviction_moves_all_members() {
    let out = Run::new(stormy_config(8))
        .specs(vec![gang_spec(0, 4, 12, 0)])
        .horizon(SimDuration::from_days(20))
        .execute();
    let j = &out.jobs[0];
    assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
    if j.checkpoints > 0 {
        // Each gang migration ships width images home.
        let ckpt_transfers = out
            .trace
            .count(|k| matches!(k, TraceKind::CheckpointCompleted { .. }));
        assert_eq!(ckpt_transfers as u32, j.checkpoints * 4);
    }
}

#[test]
fn gang_survives_member_crash() {
    let cfg = ClusterConfig {
        failures: Some(condor_core::config::FailureConfig {
            mtbf: SimDuration::from_hours(30),
            mttr: SimDuration::from_hours(1),
        }),
        ..quiet_config(6)
    };
    let out = Run::new(cfg)
        .specs(vec![gang_spec(0, 3, 12, 0)])
        .horizon(SimDuration::from_days(25))
        .execute();
    let j = &out.jobs[0];
    assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
    assert_eq!(j.work_done, j.spec.demand);
    if out.totals.crash_rollbacks > 0 {
        assert!(j.remote_cpu > j.spec.demand * 3, "redone work shows in gross ledger");
    }
}

#[test]
fn no_station_hosts_two_jobs_even_with_gangs() {
    // Mixed gang + single workload under storms; replay residency.
    let mut jobs = vec![gang_spec(0, 3, 5, 0), gang_spec(1, 2, 4, 2)];
    for i in 2..8 {
        jobs.push(gang_spec(i, 1, 3, i));
    }
    let out = Run::new(stormy_config(8)).specs(jobs).horizon(SimDuration::from_days(15)).execute();
    assert_eq!(out.completed_jobs().count(), 8, "{:?}", out.totals);
    // Replay per-station occupancy from placement/teardown events.
    use std::collections::HashMap;
    let mut resident: HashMap<u32, JobId> = HashMap::new();
    for ev in out.trace.events() {
        match ev.kind {
            TraceKind::PlacementStarted { job, target } => {
                if let Some(&other) = resident.get(&target.index()) {
                    panic!("{target} got {job} while holding {other} at {}", ev.at);
                }
                resident.insert(target.index(), job);
            }
            TraceKind::CheckpointCompleted { job, from, .. } => {
                assert_eq!(resident.remove(&from.index()), Some(job));
            }
            TraceKind::CrashRollback { job, on } => {
                // Crash frees every member of that job wherever it is.
                resident.retain(|_, r| *r != job);
                let _ = on;
            }
            TraceKind::JobCompleted { job, .. } => {
                resident.retain(|_, r| *r != job);
            }
            _ => {}
        }
    }
}

#[test]
fn priority_preemption_vacates_whole_gang() {
    // Saturate 4 machines with a width-4 gang from a heavy home, then
    // a light home requests: Up-Down preempts, freeing all 4.
    let mut jobs = vec![gang_spec(0, 4, 300, 0)];
    jobs.push(JobSpec {
        syscalls_per_cpu_sec: 0.5,
        ..JobSpec::new(
            JobId(1),
            UserId(1),
            NodeId::new(1),
            SimTime::from_hours(24),
            SimDuration::HOUR,
        )
    });
    let out = Run::new(quiet_config(4)).specs(jobs).horizon(SimDuration::from_days(4)).execute();
    assert_eq!(out.jobs[1].state, JobState::Completed, "{:?}", out.totals);
    assert!(out.totals.preemptions_priority > 0, "{:?}", out.totals);
    // The gang's coordinated eviction shipped 4 images at once.
    let evicted_images = out
        .trace
        .count(|k| matches!(k, TraceKind::CheckpointStarted { .. }));
    assert!(evicted_images >= 4, "{evicted_images}");
}

#[test]
#[should_panic(expected = "needs 5 machines but the fleet has 4")]
fn oversized_gang_rejected() {
    let _ = Cluster::new(quiet_config(4), vec![gang_spec(0, 5, 1, 0)]);
}
