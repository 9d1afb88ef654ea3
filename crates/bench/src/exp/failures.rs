//! §1's guarantee under fire — station crashes and the checkpoint server.
//!
//! The paper promises that "the system guarantees that the job will
//! eventually complete" even when remote stations fail, and that "very
//! little, if any, work will be performed more than once". This experiment
//! sweeps station MTBF from none to brutal and measures completions, redone
//! work, and delay; a second table shows the §4 checkpoint-server idea
//! lifting the home-disk limit when disks are small.

use condor_core::cluster::Run;
use condor_core::config::{ClusterConfig, FailureConfig};
use condor_metrics::replicate::par_map;
use condor_metrics::summary::summarize;
use condor_metrics::table::{num, Table};
use condor_sim::time::SimDuration;
use condor_workload::scenarios::paper_month;

use super::Ctx;
use crate::{run_scenario, EXPERIMENT_SEED};

pub(super) fn run(ctx: &Ctx) {
    println!("== §1 guarantee: completions under station failures (paper month) ==");
    let mut t = Table::labelled(&[
        "MTBF / station",
        "Crashes",
        "Rollbacks",
        "Work redone (h)",
        "Done",
        "Mean wait ratio",
    ]);
    let sweeps: Vec<(&str, Option<FailureConfig>)> = vec![
        ("never (paper)", None),
        (
            "1 week",
            Some(FailureConfig {
                mtbf: SimDuration::from_days(7),
                mttr: SimDuration::from_hours(2),
            }),
        ),
        (
            "1 day",
            Some(FailureConfig {
                mtbf: SimDuration::from_days(1),
                mttr: SimDuration::from_hours(2),
            }),
        ),
        (
            "8 hours",
            Some(FailureConfig {
                mtbf: SimDuration::from_hours(8),
                mttr: SimDuration::from_hours(1),
            }),
        ),
    ];
    // Each sweep point needs two month-long runs (observed + extended
    // horizon); all eight simulations run across parallel threads.
    let runs = par_map(&sweeps, |&(_, failures)| {
        let scenario = paper_month(EXPERIMENT_SEED);
        let config = ClusterConfig { failures, ..scenario.config };
        let out = Run::new(config.clone())
            .specs(scenario.jobs.clone())
            .horizon(scenario.horizon)
            .execute();
        // The guarantee is *eventual* completion: redone work can push a
        // late straggler past the 30-day observation window, but with a
        // little more time everything finishes.
        let extended = Run::new(config)
            .specs(scenario.jobs)
            .horizon(scenario.horizon + SimDuration::from_days(10))
            .execute();
        (out, extended)
    });
    for ((name, _), (out, extended)) in sweeps.iter().zip(&runs) {
        let s = summarize(out);
        let redone: f64 = out.jobs.iter().map(|j| j.work_lost.as_hours_f64()).sum();
        t.row(vec![
            (*name).into(),
            out.totals.station_failures.to_string(),
            out.totals.crash_rollbacks.to_string(),
            num(redone, 1),
            format!("{}/{}", s.jobs_completed, s.jobs_submitted),
            num(s.mean_wait_ratio, 2),
        ]);
        let done = extended.completed_jobs().count();
        let admitted = extended.jobs.iter().filter(|j| !j.rejected).count();
        assert_eq!(
            done, admitted,
            "the eventual-completion guarantee must hold at MTBF {name}"
        );
    }
    println!("{}", t.render());
    println!("every admitted job completes at every failure rate; crashes only redo the");
    println!("work since the last checkpoint (the §2.3 guarantee, priced in hours above).\n");

    println!("== §4 disk servers: tiny home disks with and without a checkpoint server ==");
    let mut t2 = Table::labelled(&["Home disk", "Ckpt server", "Rejected at submit", "Done"]);
    let disk_setups = [(4_000_000u64, false), (4_000_000, true), (100_000_000, false)];
    let disk_runs = par_map(&disk_setups, |&(disk, server)| {
        let mut scenario = paper_month(EXPERIMENT_SEED);
        scenario.config.disk_capacity = disk;
        scenario.config.checkpoint_server = server;
        run_scenario(scenario)
    });
    for (&(disk, server), out) in disk_setups.iter().zip(&disk_runs) {
        let s = summarize(out);
        t2.row(vec![
            format!("{} MB", disk / 1_000_000),
            if server { "yes" } else { "no" }.into(),
            out.totals.submit_rejections.to_string(),
            format!("{}/{}", s.jobs_completed, 918),
        ]);
    }
    println!("{}", t2.render());
    println!("paper §4: 'space can be saved if disk servers ... store checkpoint files'");

    // Sanity: the default run is unchanged by the failure plumbing.
    assert_eq!(ctx.month().totals.station_failures, 0);
}
