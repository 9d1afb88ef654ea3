//! Fractional-capacity ablation — whole-machine vs half-CPU co-residency.
//!
//! The paper's stations are single-occupancy: one foreign job per idle
//! workstation, full speed. The fractional extension lets a station host
//! several residents at once, each granted a share of the capacity vector
//! and progressing at the granted CPU fraction. This experiment
//! oversubscribes a small fleet (a burst of long and short jobs worth far
//! more work than the fleet can hold) and compares the two regimes:
//!
//! * **whole** — every job demands the whole machine; Up-Down places one
//!   resident per station (the paper's model).
//! * **frac**  — every job demands half a CPU; the best-fit
//!   [`FracPolicy`](condor_core::policy::FracPolicy)
//!   packs two residents per station, each running at half speed.
//!
//! Halving the speed doubles a job's wall time, so fractional only pays
//! off when queueing dominates service — exactly the oversubscribed case:
//! short jobs stuck behind 8-hour residents wait far longer than the 2x
//! slowdown costs them.

use condor_core::cluster::Run;
use condor_core::config::{ClusterConfig, PolicyKind};
use condor_core::job::{JobId, JobSpec, UserId};
use condor_metrics::render_telemetry;
use condor_metrics::replicate::par_map;
use condor_metrics::summary::{mean_leverage, mean_wait_ratio};
use condor_metrics::table::{num, Table};
use condor_model::diurnal::DiurnalProfile;
use condor_model::owner::OwnerConfig;
use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use super::Ctx;
use crate::EXPERIMENT_SEED;

const STATIONS: usize = 8;

/// A burst worth ~100 h of work on an 8-station fleet: 10 day-long
/// simulation jobs plus 40 half-hour edit-compile jobs, all submitted in
/// the first hour. `demand` is the per-job resource request: whole-machine
/// for the baseline arm, half a CPU for the fractional arm.
fn burst(demand: ResourceVec) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for i in 0..10u64 {
        specs.push(JobSpec {
            syscalls_per_cpu_sec: 0.5,
            resources: demand,
            ..JobSpec::new(
                JobId(i),
                UserId((i % 2) as u32),
                NodeId::new((i % 3) as u32),
                SimTime::from_secs(i * 5 * 60),
                SimDuration::from_hours(8),
            )
        });
    }
    for i in 10..50u64 {
        specs.push(JobSpec {
            image_bytes: 200_000,
            syscalls_per_cpu_sec: 0.5,
            resources: demand,
            ..JobSpec::new(
                JobId(i),
                UserId((i % 3 + 2) as u32),
                NodeId::new(((i - 10) % 3) as u32),
                SimTime::from_secs((i - 10) * 90),
                SimDuration::from_minutes(30),
            )
        });
    }
    specs
}

fn config(policy: PolicyKind) -> ClusterConfig {
    ClusterConfig {
        stations: STATIONS,
        seed: EXPERIMENT_SEED,
        policy,
        owner: OwnerConfig {
            // Quiet owners: the comparison is about packing, not evictions.
            profile: DiurnalProfile::flat(0.02),
            ..OwnerConfig::default()
        },
        record_trace: false,
        ..ClusterConfig::default()
    }
}

pub(super) fn run(_: &Ctx) {
    println!("== fractional capacity: whole-machine vs half-CPU packing (8 stations, 100 h burst) ==");
    let arms = [
        ("whole", ResourceVec::WHOLE, PolicyKind::default()),
        ("frac", ResourceVec::new(500, 400), PolicyKind::Frac),
    ];
    // The two arms are independent runs — one thread each.
    let runs = par_map(&arms, |(_, demand, policy)| {
        Run::new(config(*policy))
            .specs(burst(*demand))
            .horizon(SimDuration::from_days(3))
            .execute()
    });
    let mut t = Table::labelled(&[
        "Arm",
        "Mean wait ratio",
        "Short-job wait ratio",
        "Mean leverage",
        "Done",
        "Makespan (h)",
    ]);
    let mut wait_by_arm = Vec::new();
    for ((name, ..), out) in arms.iter().zip(&runs) {
        let wait = mean_wait_ratio(&out.jobs, |_| true).unwrap_or(f64::NAN);
        let short_wait = mean_wait_ratio(&out.jobs, |j| j.spec.id.0 >= 10).unwrap_or(f64::NAN);
        let lev = mean_leverage(&out.jobs, |_| true).unwrap_or(f64::NAN);
        let done = out
            .jobs
            .iter()
            .filter(|j| j.state == condor_core::job::JobState::Completed)
            .count();
        let makespan = out
            .completed_jobs()
            .filter_map(|j| j.completed_at)
            .max()
            .map(|at| at.since(SimTime::ZERO).as_hours_f64())
            .unwrap_or(f64::NAN);
        t.row(vec![
            name.to_string(),
            num(wait, 2),
            num(short_wait, 2),
            num(lev, 1),
            format!("{done}/{}", out.jobs.len()),
            num(makespan, 1),
        ]);
        wait_by_arm.push(wait);
    }
    println!("{}", t.render());
    for ((name, ..), out) in arms.iter().zip(&runs) {
        println!("-- telemetry [{name}] --");
        println!("{}", render_telemetry(&out.telemetry));
    }
    let (whole, frac) = (wait_by_arm[0], wait_by_arm[1]);
    println!("whole-machine mean wait ratio {whole:.2} vs fractional {frac:.2}");
    println!("oversubscription favours packing: half-speed residents beat queued whole machines.");
    assert!(
        frac < whole,
        "fractional packing must improve mean wait ratio under oversubscription \
         (frac {frac:.2} >= whole {whole:.2})"
    );
}
