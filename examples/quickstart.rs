//! Quickstart: build a small cluster, submit a batch of background jobs,
//! and watch Condor hunt for idle workstations.
//!
//! Run with: `cargo run --release --example quickstart`

use condor::metrics::summary::summarize;
use condor::prelude::*;

fn main() {
    // Eight workstations with typical owners (diurnal activity, the
    // paper's cost model: 2-minute coordinator polls, 30-second owner
    // checks, 5-minute eviction grace, 5 s/MB image moves). `check`
    // reports an invalid configuration up front as a typed `ConfigError`.
    let config = ClusterConfig { stations: 8, seed: 7, ..ClusterConfig::default() };
    config.check().expect("quickstart config is valid");

    // Two users submit batches of CPU-hungry simulations from their own
    // workstations.
    let mut jobs = Vec::new();
    for i in 0..6u64 {
        jobs.push(JobSpec::new(
            JobId(i),
            UserId(0),
            NodeId::new(0),
            SimTime::from_hours(1),
            SimDuration::from_hours(4),
        ));
    }
    for i in 6..9u64 {
        jobs.push(JobSpec {
            image_bytes: 300_000,
            syscalls_per_cpu_sec: 5.0,
            ..JobSpec::new(
                JobId(i),
                UserId(1),
                NodeId::new(1),
                SimTime::from_hours(9),
                SimDuration::from_hours(1),
            )
        });
    }

    // Two simulated days.
    let out = Run::new(config).specs(jobs).horizon(SimDuration::from_days(2)).execute();

    println!("policy           : {}", out.policy_name);
    println!("jobs completed   : {}/9", out.completed_jobs().count());
    println!("placements       : {}", out.totals.placements);
    println!("migrations       : {}", out.totals.migrations);
    println!(
        "owner preemptions: {} ({} resumed in place)",
        out.totals.preemptions_owner, out.totals.resumes_in_place
    );
    println!();
    for j in &out.jobs {
        println!(
            "{}: user {} demand {} → state {:?}, moves {}, wait ratio {:.2}, leverage {:.0}",
            j.spec.id,
            j.spec.user,
            j.spec.demand,
            j.state,
            j.checkpoints,
            j.wait_ratio().unwrap_or(f64::NAN),
            j.leverage().unwrap_or(f64::NAN),
        );
    }
    println!();
    let s = summarize(&out);
    println!(
        "fleet: {:.0}% available, local utilization {:.0}%, system utilization {:.0}%",
        s.availability * 100.0,
        s.local_utilization * 100.0,
        s.system_utilization * 100.0
    );
    println!(
        "remote CPU delivered: {:.1} h for {:.1} s of local support (mean leverage {:.0})",
        s.consumed_hours,
        out.jobs.iter().map(|j| j.support_seconds()).sum::<f64>(),
        s.mean_leverage
    );
    // Every run also carries a streaming telemetry summary — even with
    // `record_trace: false` — rendered here as counters and digests.
    println!();
    println!("{}", render_telemetry(&out.telemetry));
}
