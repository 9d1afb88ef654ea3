//! §5 future-work item 1 — history-aware placement.
//!
//! The paper observes (via its companion study) that stations with long
//! available intervals tend to stay that way, and proposes choosing cycle
//! sources by availability history to cut preemptions of long jobs. Our
//! coordinator optionally ranks free machines by an EWMA of their past
//! idle-interval lengths; this experiment measures the effect.
//!
//! Replications run in parallel (one seed per thread, see
//! `condor_metrics::replicate`); each seed is simulated once and all four
//! metrics are read off the same outputs.

use condor_core::cluster::RunOutput;
use condor_metrics::replicate::par_map;
use condor_metrics::table::Table;
use condor_workload::scenarios::paper_month;

use super::Ctx;
use crate::{ci, run_scenario, EXPERIMENT_SEED};

const SEEDS: [u64; 8] = [EXPERIMENT_SEED, 7, 42, 1234, 9, 77, 4096, 31337];

/// One full replication set: every seed simulated once, in parallel,
/// results in seed order.
fn run_all(aware: bool) -> Vec<RunOutput> {
    par_map(&SEEDS, |&seed| {
        let mut scenario = paper_month(seed);
        scenario.config.history_aware_placement = aware;
        run_scenario(scenario)
    })
}

fn long_job_moves(out: &RunOutput) -> f64 {
    let long: Vec<&condor_core::job::Job> = out
        .jobs
        .iter()
        .filter(|j| j.spec.demand.as_hours_f64() >= 6.0)
        .collect();
    long.iter().map(|j| f64::from(j.checkpoints)).sum::<f64>() / long.len().max(1) as f64
}

pub(super) fn run(_: &Ctx) {
    println!(
        "== §5(1): history-aware placement ablation (paper month, {} seeds, 95% CI) ==",
        SEEDS.len()
    );
    let mut t = Table::labelled(&[
        "Placement",
        "Migrations",
        "Moves/long-job",
        "Mean leverage",
        "Mean wait ratio",
    ]);
    let mut long_moves = Vec::new();
    for (name, aware) in [("id-order (paper)", false), ("history-aware", true)] {
        let outs = run_all(aware);
        let migs = ci(&outs, |o| o.totals.migrations as f64);
        let moves = ci(&outs, long_job_moves);
        let lev = ci(&outs, |o| {
            condor_metrics::summary::mean_leverage(&o.jobs, |_| true).unwrap_or(0.0)
        });
        let wait = ci(&outs, |o| {
            condor_metrics::summary::mean_wait_ratio(&o.jobs, |_| true).unwrap_or(0.0)
        });
        t.row(vec![
            name.into(),
            format!("{:.0} ± {:.0}", migs.mean, migs.half_width),
            moves.to_string(),
            format!("{:.0} ± {:.0}", lev.mean, lev.half_width),
            wait.to_string(),
        ]);
        long_moves.push(moves);
    }
    println!("{}", t.render());
    println!(
        "long-job moves: {} (id-order) vs {} (history-aware){}",
        long_moves[0],
        long_moves[1],
        if long_moves[1].significantly_below(&long_moves[0]) {
            " — significant at 95%"
        } else {
            ""
        }
    );
    println!("paper §5: choosing sources by interval history should reduce preemptions of long jobs");
    assert!(
        long_moves[1].mean < long_moves[0].mean,
        "history-aware placement must reduce long-job moves on average"
    );
}
