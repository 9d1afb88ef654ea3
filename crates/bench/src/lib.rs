//! # condor-bench — the experiment suite and the bench harness
//!
//! Every table and figure of the paper, and every ablation and extension
//! measured beside them, is one function in [`exp`], registered in
//! [`exp::EXPERIMENTS`] and reached through `condor exp <name>… | all`.
//! The one binary here, `bench_report`, writes `BENCH_cluster.json`.
//! This library holds the shared plumbing: running the standard scenarios
//! and classifying users.
//!
//! | `condor exp` | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — profile of user service requests |
//! | `fig2` | Fig. 2 — CDF of service demand |
//! | `fig3` | Fig. 3 — hourly queue length over the month |
//! | `fig4` | Fig. 4 — average wait ratio vs demand |
//! | `fig5` | Fig. 5 — month-long utilization |
//! | `fig6` | Fig. 6 — one-week utilization |
//! | `fig7` | Fig. 7 — one-week queue lengths |
//! | `fig8` | Fig. 8 — checkpoint rate vs demand |
//! | `fig9` | Fig. 9 — leverage vs demand |
//! | `summary` | §3 headline numbers |
//! | `export` | Figs. 2–9 — every figure's data as CSV |
//! | `fairness` | §2.4 — Up-Down vs baseline policies |
//! | `eviction` | §4 — grace-then-checkpoint vs immediate kill |
//! | `throttle` | §4 — the one-placement-per-poll throttle |
//! | `failures` | §1 — crashes, rollback, and the checkpoint server |
//! | `history` | §5(1) — history-aware placement ablation |
//! | `gang` | §5(2) — gang-scheduled parallel programs |
//! | `reservation` | §5(3) — advance reservations |
//! | `hetero` | §5(4) — mixed VAX/SUN fleets |
//! | `availability` | ref. \[1\] — owner-model validation |
//! | `oversubscribed` | fractional capacity — whole-machine vs half-CPU packing |
//! | `redundancy` | speculative replicas under faults and in the fair regime |

#![warn(missing_docs)]

pub mod exp;

use condor_core::cluster::{Run, RunOutput};
use condor_core::job::{Job, UserId};
use condor_metrics::replicate::MeanCi;
use condor_workload::scenarios::Scenario;

/// The default seed used by every experiment, so printed numbers are
/// reproducible across runs and documented in EXPERIMENTS.md.
pub const EXPERIMENT_SEED: u64 = 1988;

/// Runs a scenario to completion and returns its output.
pub fn run_scenario(s: Scenario) -> RunOutput {
    Run::new(s.config).specs(s.jobs).horizon(s.horizon).execute()
}

/// The paper's user A is index 0 in every scenario; "light users" are all
/// others. (The generic classifier in `condor_metrics::summary` agrees on
/// the paper workload; this fixed rule keeps figure legends stable.)
pub fn is_light(job: &Job) -> bool {
    job.spec.user != UserId(0)
}

/// Mean and 95% confidence interval of one metric over replicated runs.
pub(crate) fn ci(outs: &[RunOutput], metric: impl Fn(&RunOutput) -> f64) -> MeanCi {
    MeanCi::from_values(&outs.iter().map(metric).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_core::job::{JobId, JobSpec};
    use condor_net::NodeId;
    use condor_sim::time::{SimDuration, SimTime};

    #[test]
    fn is_light_splits_users() {
        let mk = |u: u32| {
            Job::new(JobSpec {
                image_bytes: 1,
                syscalls_per_cpu_sec: 0.0,
                ..JobSpec::new(
                    JobId(0),
                    UserId(u),
                    NodeId::new(0),
                    SimTime::ZERO,
                    SimDuration::HOUR,
                )
            })
        };
        assert!(!is_light(&mk(0)));
        assert!(is_light(&mk(1)));
    }
}
