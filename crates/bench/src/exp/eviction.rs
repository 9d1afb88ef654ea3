//! §4 ablation — eviction strategies.
//!
//! The 1988 implementation suspends a preempted job for a 5-minute grace
//! period, then checkpoints and moves it; the paper discusses switching to
//! *immediate kill + periodic checkpoints* to minimise owner interference
//! at the cost of redone work. This experiment quantifies the trade.

use condor_core::config::EvictionStrategy;
use condor_metrics::replicate::par_map;
use condor_metrics::table::{num, Table};
use condor_sim::time::SimDuration;
use condor_workload::scenarios::paper_month;

use super::Ctx;
use crate::{run_scenario, EXPERIMENT_SEED};

pub(super) fn run(_: &Ctx) {
    let strategies: Vec<(&str, EvictionStrategy)> = vec![
        (
            "grace 5 min (paper)",
            EvictionStrategy::GraceThenCheckpoint { grace: SimDuration::from_minutes(5) },
        ),
        (
            "grace 1 min",
            EvictionStrategy::GraceThenCheckpoint { grace: SimDuration::from_minutes(1) },
        ),
        (
            "kill + ckpt 30 min",
            EvictionStrategy::ImmediateKill { checkpoint_every: SimDuration::from_minutes(30) },
        ),
        (
            "kill + ckpt 2 h",
            EvictionStrategy::ImmediateKill { checkpoint_every: SimDuration::from_hours(2) },
        ),
    ];
    println!("== §4: eviction strategy trade-off (paper month workload) ==");
    let mut t = Table::labelled(&[
        "Strategy",
        "Done",
        "Work lost (h)",
        "Resumes in place",
        "Migrations",
        "Periodic ckpts",
        "Interference (min)",
    ]);
    let mut grace_lost = f64::NAN;
    let mut kill_lost = f64::NAN;
    // One month-long simulation per strategy — run them on parallel threads.
    let runs = par_map(&strategies, |&(_, eviction)| {
        let mut scenario = paper_month(EXPERIMENT_SEED);
        scenario.config.eviction = eviction;
        run_scenario(scenario)
    });
    for ((name, _), out) in strategies.iter().zip(&runs) {
        let name = *name;
        let lost_h: f64 = out.jobs.iter().map(|j| j.work_lost.as_hours_f64()).sum();
        t.row(vec![
            name.into(),
            out.completed_jobs().count().to_string(),
            num(lost_h, 1),
            out.totals.resumes_in_place.to_string(),
            out.totals.migrations.to_string(),
            out.totals.periodic_checkpoints.to_string(),
            num(out.totals.interference_ms as f64 / 60_000.0, 0),
        ]);
        if name.starts_with("grace 5") {
            grace_lost = lost_h;
        }
        if name == "kill + ckpt 30 min" {
            kill_lost = lost_h;
        }
    }
    println!("{}", t.render());
    println!("grace strategy loses {grace_lost:.1} h of work (paper: none — checkpoint on eviction)");
    println!("immediate kill loses {kill_lost:.1} h (paper: 'only work between the most recent checkpoint and termination')");
    assert_eq!(grace_lost, 0.0, "grace-then-checkpoint must never lose work");
    assert!(kill_lost > 0.0, "immediate kill must lose some work");
}
