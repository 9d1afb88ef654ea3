//! Crash recovery: the §1 guarantee in action.
//!
//! Stations crash mid-job (including the coordinator's host), yet every
//! job completes — restarted from its last checkpoint, redoing only the
//! work since it.
//!
//! Run with: `cargo run --release --example crash_recovery`

use condor::core::config::FailureConfig;
use condor::core::trace::TraceKind;
use condor::prelude::*;

fn main() {
    let config = ClusterConfig {
        stations: 8,
        seed: 13,
        // Brutal environment: each station fails about once a day and
        // takes two hours to repair.
        failures: Some(FailureConfig {
            mtbf: SimDuration::from_days(1),
            mttr: SimDuration::from_hours(2),
        }),
        ..ClusterConfig::default()
    };
    let jobs: Vec<JobSpec> = (0..10)
        .map(|i| JobSpec::new(
            JobId(i),
            UserId((i % 2) as u32),
            NodeId::new((i % 3) as u32),
            SimTime::from_hours(i),
            SimDuration::from_hours(6),
        ))
        .collect();

    let out = Run::new(config).specs(jobs).horizon(SimDuration::from_days(14)).execute();

    println!("two weeks on 8 crash-prone stations (MTBF 1 day, MTTR 2 h):\n");
    println!("station crashes    : {}", out.totals.station_failures);
    println!("crash rollbacks    : {}", out.totals.crash_rollbacks);
    let redone: f64 = out.jobs.iter().map(|j| j.work_lost.as_hours_f64()).sum();
    println!("work redone        : {redone:.1} h (only since the last checkpoint)");
    println!(
        "jobs completed     : {}/10",
        out.completed_jobs().count()
    );
    // Show one job's odyssey.
    if let Some(victim) = out
        .jobs
        .iter()
        .filter(|j| j.work_lost > SimDuration::ZERO)
        .max_by_key(|j| j.work_lost)
    {
        println!(
            "\nhardest-hit job {}: demand {}, {} placements, {} moves, {} lost and redone",
            victim.spec.id,
            victim.spec.demand,
            victim.placements,
            victim.checkpoints,
            victim.work_lost,
        );
        println!("its life:");
        for ev in out.trace.events() {
            let line = match ev.kind {
                TraceKind::PlacementStarted { job, target } if job == victim.spec.id => {
                    Some(format!("placed toward {target}"))
                }
                TraceKind::JobStarted { job, on } if job == victim.spec.id => {
                    Some(format!("running on {on}"))
                }
                TraceKind::CrashRollback { job, on } if job == victim.spec.id => {
                    Some(format!("!! {on} crashed — rolled back to last checkpoint"))
                }
                TraceKind::CheckpointCompleted { job, from, .. } if job == victim.spec.id => {
                    Some(format!("checkpointed off {from}"))
                }
                TraceKind::JobCompleted { job, on } if job == victim.spec.id => {
                    Some(format!("completed on {on}"))
                }
                _ => None,
            };
            if let Some(line) = line {
                println!("  [{}] {line}", ev.at);
            }
        }
    }
    assert_eq!(out.completed_jobs().count(), 10, "the guarantee must hold");
    println!("\nevery job completed despite the carnage — checkpointing is the guarantee.");
}
