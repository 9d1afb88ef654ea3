//! Parallel programs: gangs and pipelines (paper §5(2)).
//!
//! A research workflow: a preprocessing job, then a width-4 gang (a
//! parallel simulation whose processes communicate), then a report job —
//! expressed as a dependency DAG with a gang in the middle, scheduled by
//! Condor across owner interruptions.
//!
//! Run with: `cargo run --release --example parallel_programs`

use condor::core::trace::TraceKind;
use condor::prelude::*;

fn main() {
    let config = ClusterConfig {
        stations: 8,
        seed: 21,
        ..ClusterConfig::default()
    };

    // prep → [gang of 4, 6 h] → report
    let jobs = vec![
        JobSpec {
            image_bytes: 400_000,
            syscalls_per_cpu_sec: 2.0,
            ..JobSpec::new(
                JobId(0),
                UserId(0),
                NodeId::new(0),
                SimTime::from_hours(1),
                SimDuration::from_hours(1),
            )
        },
        JobSpec {
            image_bytes: 800_000,
            depends_on: vec![JobId(0)],
            width: 4, // four communicating processes, four machines at once
            ..JobSpec::new(
                JobId(1),
                UserId(0),
                NodeId::new(0),
                SimTime::from_hours(1),
                SimDuration::from_hours(6),
            )
        },
        JobSpec {
            image_bytes: 300_000,
            syscalls_per_cpu_sec: 4.0,
            depends_on: vec![JobId(1)],
            ..JobSpec::new(
                JobId(2),
                UserId(0),
                NodeId::new(0),
                SimTime::from_hours(1),
                SimDuration::from_hours(1),
            )
        },
    ];

    let out = Run::new(config).specs(jobs).horizon(SimDuration::from_days(4)).execute();

    println!("a three-stage workflow with a width-4 gang in the middle:\n");
    for ev in out.trace.events() {
        let line = match ev.kind {
            TraceKind::JobStarted { job, on } => Some(format!("{job} started (lead {on})")),
            TraceKind::JobSuspended { job, on } => {
                Some(format!("{job} suspended — owner back at {on}"))
            }
            TraceKind::JobResumedInPlace { job, .. } => Some(format!("{job} resumed in place")),
            TraceKind::CheckpointCompleted { job, from, .. } => {
                Some(format!("{job} member image left {from}"))
            }
            TraceKind::JobCompleted { job, .. } => Some(format!("{job} COMPLETED")),
            _ => None,
        };
        if let Some(line) = line {
            println!("  [{}] {line}", ev.at);
        }
    }
    println!();
    let names = ["prep", "parallel simulation (width 4)", "report"];
    for (j, name) in out.jobs.iter().zip(names) {
        println!(
            "{name}: work {} · capacity consumed {} · moves {} · state {:?}",
            j.work_done, j.remote_cpu, j.checkpoints, j.state
        );
    }
    assert!(out.jobs.iter().all(|j| j.state == JobState::Completed));
    let gang = &out.jobs[1];
    assert_eq!(gang.remote_cpu, gang.work_done * 4, "width-4 consumption");
    // Ordering: prep before gang before report.
    let done: Vec<_> = out.jobs.iter().map(|j| j.completed_at.unwrap()).collect();
    assert!(done[0] < done[1] && done[1] < done[2]);
    println!("\nthe gang needed 4 simultaneous machines, paused whenever any of its four");
    println!("owners returned, and checkpointed all members as one coordinated cut (§2.3).");
}
