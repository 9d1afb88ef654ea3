//! §5 future-work item 2 — parallel programs (gang scheduling).
//!
//! "We are considering the implementation of the unix system calls fork(2),
//! exec(2), and pipe(2) to allow parallel programs to be executed on the
//! system. This facility would introduce many scheduling problems."
//!
//! A width-k gang needs k machines *simultaneously*; any owner's return
//! suspends the whole program, and evictions checkpoint all k members as a
//! coordinated cut. This experiment quantifies the predicted scheduling
//! problems: keeping total work constant, wider gangs wait longer for
//! machines, get interrupted more often (any of k owners), and burn more
//! transfer support per unit of work.
//!
//! Each width's seeds are simulated once, in parallel (one seed per
//! thread); all metrics and the completion check read the same outputs.

use condor_core::cluster::Run;
use condor_core::config::ClusterConfig;
use condor_core::job::{JobId, JobSpec, UserId};
use condor_metrics::replicate::par_map;
use condor_metrics::table::{num, Table};
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use super::Ctx;
use crate::{ci, EXPERIMENT_SEED};

/// Total work is fixed at 96 machine-hours; width trades job count for
/// machines-per-job: 8×(1×12h), 4×(2×12h), 2×(4×12h), 1×(8×12h).
fn workload(width: u32) -> Vec<JobSpec> {
    let n_jobs = 8 / width as u64;
    (0..n_jobs)
        .map(|i| JobSpec {
            width,
            ..JobSpec::new(
                JobId(i),
                UserId(0),
                NodeId::new(0),
                SimTime::from_hours(i),
                SimDuration::from_hours(12),
            )
        })
        .collect()
}

pub(super) fn run(_: &Ctx) {
    println!("== §5(2): gang scheduling — 96 machine-hours at widths 1..8, 12 stations ==");
    let seeds: Vec<u64> = (0..6).map(|i| EXPERIMENT_SEED + i).collect();
    let mut t = Table::labelled(&[
        "Width",
        "Jobs",
        "Turnaround (h)",
        "Owner interrupts",
        "Migrations",
        "Mean leverage",
    ]);
    let mut turnarounds = Vec::new();
    for width in [1u32, 2, 4, 8] {
        let outs = par_map(&seeds, |&seed| {
            let config = ClusterConfig {
                stations: 12,
                seed,
                ..ClusterConfig::default()
            };
            Run::new(config)
                .specs(workload(width))
                .horizon(SimDuration::from_days(20))
                .execute()
        });
        let turnaround = ci(&outs, |o| {
            o.completed_jobs()
                .map(|j| j.turnaround().unwrap().as_hours_f64())
                .sum::<f64>()
                / o.completed_jobs().count().max(1) as f64
        });
        let interrupts = ci(&outs, |o| o.totals.preemptions_owner as f64);
        let migrations = ci(&outs, |o| o.totals.migrations as f64);
        let leverage = ci(&outs, |o| {
            condor_metrics::summary::mean_leverage(&o.jobs, |_| true).unwrap_or(0.0)
        });
        // Completion check across all seeds.
        for (&s, out) in seeds.iter().zip(&outs) {
            assert_eq!(
                out.completed_jobs().count() as u64,
                8 / u64::from(width),
                "width {width}, seed {s}: {:?}",
                out.totals
            );
        }
        t.row(vec![
            width.to_string(),
            (8 / width).to_string(),
            format!("{:.1} ± {:.1}", turnaround.mean, turnaround.half_width),
            format!("{:.1} ± {:.1}", interrupts.mean, interrupts.half_width),
            format!("{:.1} ± {:.1}", migrations.mean, migrations.half_width),
            num(leverage.mean, 0),
        ]);
        turnarounds.push(turnaround.mean);
    }
    println!("{}", t.render());
    println!("same total work, very different schedules: a width-8 program is hostage to");
    println!("eight owners at once — every return suspends all eight machines, and every");
    println!("eviction ships eight images. 'Many scheduling problems' indeed (paper §5).");
    assert!(
        turnarounds[3] > turnarounds[0],
        "wider gangs must turn around slower ({turnarounds:?})"
    );
}
