//! Fair shares: watch the Up-Down index at work.
//!
//! One user floods the cluster; another submits a tiny batch late. With
//! Up-Down the light user is served at once (preempting the heavy user if
//! needed); with FIFO the light user waits at the back of the line.
//!
//! Run with: `cargo run --release --example fair_shares`

use condor::metrics::summary::mean_wait_ratio;
use condor::prelude::*;

fn duel(policy: PolicyKind) -> (String, f64, f64, u64) {
    let config = ClusterConfig {
        stations: 6,
        seed: 11,
        policy,
        ..ClusterConfig::default()
    };
    let mut jobs = Vec::new();
    // Heavy user: 40 eight-hour jobs at t = 0 from station 0.
    for i in 0..40u64 {
        jobs.push(JobSpec {
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(i),
                UserId(0),
                NodeId::new(0),
                SimTime::ZERO,
                SimDuration::from_hours(8),
            )
        });
    }
    // Light user: three 1-hour jobs on day 2, when the heavy user has
    // soaked up every machine.
    for i in 40..43u64 {
        jobs.push(JobSpec {
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(i),
                UserId(1),
                NodeId::new(1),
                SimTime::from_hours(48),
                SimDuration::HOUR,
            )
        });
    }
    let out = Run::new(config).specs(jobs).horizon(SimDuration::from_days(8)).execute();
    let light = mean_wait_ratio(&out.jobs, |j| j.spec.user == UserId(1)).unwrap_or(f64::NAN);
    let heavy = mean_wait_ratio(&out.jobs, |j| j.spec.user == UserId(0)).unwrap_or(f64::NAN);
    (out.policy_name, light, heavy, out.totals.preemptions_priority)
}

fn main() {
    println!("a heavy user floods 6 machines; a light user asks for 3 CPU-hours on day 2\n");
    println!(
        "{:<14} {:>18} {:>18} {:>12}",
        "policy", "light wait ratio", "heavy wait ratio", "preemptions"
    );
    for policy in [
        PolicyKind::UpDown,
        PolicyKind::Fifo,
        PolicyKind::RoundRobin,
        PolicyKind::Random,
    ] {
        let (name, light, heavy, preempts) = duel(policy);
        println!("{name:<14} {light:>18.2} {heavy:>18.2} {preempts:>12}");
    }
    println!(
        "\nUp-Down: the light user's batch preempts the heavy user and runs immediately —"
    );
    println!("'light users obtained remote resources regardless of the heavy user' (paper §3)");
}
