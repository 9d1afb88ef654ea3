//! # condor-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! Criterion micro-benchmarks in `benches/`. This library holds the shared
//! plumbing: running the standard scenarios and classifying users.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `exp_table1` | Table 1 — profile of user service requests |
//! | `exp_fig2` | Fig. 2 — CDF of service demand |
//! | `exp_fig3` | Fig. 3 — hourly queue length over the month |
//! | `exp_fig4` | Fig. 4 — average wait ratio vs demand |
//! | `exp_fig5` | Fig. 5 — month-long utilization |
//! | `exp_fig6` | Fig. 6 — one-week utilization |
//! | `exp_fig7` | Fig. 7 — one-week queue lengths |
//! | `exp_fig8` | Fig. 8 — checkpoint rate vs demand |
//! | `exp_fig9` | Fig. 9 — leverage vs demand |
//! | `exp_summary` | §3 headline numbers |
//! | `exp_fairness` | §2.4 — Up-Down vs baseline policies |
//! | `exp_eviction` | §4 — grace-then-checkpoint vs immediate kill |
//! | `exp_throttle` | §4 — the one-placement-per-poll throttle |
//! | `exp_failures` | §1 — crashes, rollback, and the checkpoint server |
//! | `exp_history` | §5(1) — history-aware placement ablation |
//! | `exp_gang` | §5(2) — gang-scheduled parallel programs |
//! | `exp_reservation` | §5(3) — advance reservations |
//! | `exp_hetero` | §5(4) — mixed VAX/SUN fleets |
//! | `exp_availability` | ref. \[1\] — owner-model validation |

#![warn(missing_docs)]

use condor_core::cluster::{Run, RunOutput};
use condor_core::job::{Job, UserId};
use condor_workload::scenarios::Scenario;

/// The default seed used by every experiment binary, so printed numbers
/// are reproducible across runs and documented in EXPERIMENTS.md.
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

/// Pretty duration for log lines.
pub fn hours(h: f64) -> String {
    format!("{h:.1} h")
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

    #[test]
    fn hours_formats() {
        assert_eq!(hours(4771.04), "4771.0 h");
    }
}
