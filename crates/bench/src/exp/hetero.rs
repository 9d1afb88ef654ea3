//! §5 future-work item 4 — heterogeneous architectures (the SUN port).
//!
//! The paper's planned SUN port raises a placement question: a job compiled
//! into two binaries can *start* anywhere, but once it has run on one
//! architecture its checkpoints are native images and it can never move to
//! the other. This experiment adds SUN machines to half the fleet and
//! sweeps the fraction of jobs recompiled for both architectures.
//!
//! Expected shape: with no dual binaries, half the fleet is useless to the
//! (all-VAX) workload; as the dual-binary fraction grows, consumed capacity
//! and wait ratios recover toward the homogeneous fleet's numbers.

use condor_metrics::summary::{mean_wait_ratio, summarize};
use condor_metrics::table::{num, Table};
use condor_workload::scenarios::mixed_arch_month;

use super::Ctx;
use crate::{run_scenario, EXPERIMENT_SEED};

pub(super) fn run(ctx: &Ctx) {
    println!("== §5(4): half-SUN fleet vs dual-binary fraction (paper month workload) ==");
    let mut t = Table::labelled(&[
        "Fleet / dual fraction",
        "Done",
        "Consumed (h)",
        "Mean wait ratio",
        "Arch-starved grants",
    ]);
    // Baseline: the homogeneous all-VAX fleet.
    let out = ctx.month();
    let s = summarize(out);
    t.row(vec![
        "all-VAX (paper)".into(),
        s.jobs_completed.to_string(),
        num(s.consumed_hours, 0),
        num(s.mean_wait_ratio, 2),
        out.totals.arch_starvation.to_string(),
    ]);
    t.rule();
    let mut waits = Vec::new();
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let out = run_scenario(mixed_arch_month(EXPERIMENT_SEED, frac));
        let s = summarize(&out);
        let wait = mean_wait_ratio(&out.jobs, |_| true).unwrap_or(f64::NAN);
        t.row(vec![
            format!("half-SUN, {:.0}% dual", frac * 100.0),
            s.jobs_completed.to_string(),
            num(s.consumed_hours, 0),
            num(wait, 2),
            out.totals.arch_starvation.to_string(),
        ]);
        waits.push(wait);
    }
    println!("{}", t.render());
    println!(
        "the month's demand fits in the VAX half, so everything still finishes — but",
    );
    println!(
        "queueing collapses as binaries unlock the SUN half: mean wait ratio {:.1} (0% dual) → {:.1} (100% dual)",
        waits[0], waits[4]
    );
    println!("paper §5: 'the decision of placement should take into account the usage");
    println!("patterns of each type of workstation' — and binding jobs to their first");
    println!("architecture is what makes the dual-binary fraction matter.");
    assert!(
        waits[0] > 3.0 * waits[4],
        "dual binaries must collapse the wait ratio ({} vs {})",
        waits[0],
        waits[4]
    );
}
