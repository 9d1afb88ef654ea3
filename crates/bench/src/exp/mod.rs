//! The experiment suite behind `condor exp`.
//!
//! The paper's evaluation is one month of one 23-station system read nine
//! ways, so the suite is one table of report functions over one run
//! context: [`EXPERIMENTS`] lists them in paper order (Table 1, Figs. 2–9,
//! the §3 summary, the CSV export, then the ablations and extensions),
//! [`Ctx`] simulates the default-seed month and week at most once per
//! process for whoever asks, and [`run`] is the front-end. Every
//! experiment prints its report to stdout and asserts the paper claim it
//! reproduces, so exit 0 is itself a check; EXPERIMENTS.md records the
//! printed values and `tests/experiments.rs` pins them.

mod availability;
mod eviction;
mod failures;
mod fairness;
mod figures;
mod gang;
mod hetero;
mod history;
mod oversubscribed;
mod redundancy;
mod reservation;
mod throttle;

use std::cell::OnceCell;
use std::path::PathBuf;

use condor_core::cluster::RunOutput;
use condor_workload::scenarios::{one_week, paper_month};

use crate::{run_scenario, EXPERIMENT_SEED};

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `condor exp` takes.
    pub name: &'static str,
    /// The table, figure, section or extension it reproduces.
    pub reproduces: &'static str,
    /// Prints the report and asserts its claims.
    pub run: fn(&Ctx),
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: [Experiment; 22] = [
    Experiment { name: "table1", reproduces: "Table 1 — profile of user service requests", run: figures::table1 },
    Experiment { name: "fig2", reproduces: "Fig. 2 — CDF of service demand", run: figures::fig2 },
    Experiment { name: "fig3", reproduces: "Fig. 3 — hourly queue length over the month", run: figures::fig3 },
    Experiment { name: "fig4", reproduces: "Fig. 4 — average wait ratio vs demand", run: figures::fig4 },
    Experiment { name: "fig5", reproduces: "Fig. 5 — month-long utilization", run: figures::fig5 },
    Experiment { name: "fig6", reproduces: "Fig. 6 — one-week utilization", run: figures::fig6 },
    Experiment { name: "fig7", reproduces: "Fig. 7 — one-week queue lengths", run: figures::fig7 },
    Experiment { name: "fig8", reproduces: "Fig. 8 — checkpoint rate vs demand", run: figures::fig8 },
    Experiment { name: "fig9", reproduces: "Fig. 9 — leverage vs demand", run: figures::fig9 },
    Experiment { name: "summary", reproduces: "§3 headline numbers", run: figures::summary },
    Experiment { name: "export", reproduces: "Figs. 2–9 — every figure's data as CSV", run: figures::export },
    Experiment { name: "fairness", reproduces: "§2.4 — Up-Down vs baseline policies", run: fairness::run },
    Experiment { name: "eviction", reproduces: "§4 — grace-then-checkpoint vs immediate kill", run: eviction::run },
    Experiment { name: "throttle", reproduces: "§4 — the one-placement-per-poll throttle", run: throttle::run },
    Experiment { name: "failures", reproduces: "§1 — crashes, rollback, and the checkpoint server", run: failures::run },
    Experiment { name: "history", reproduces: "§5(1) — history-aware placement ablation", run: history::run },
    Experiment { name: "gang", reproduces: "§5(2) — gang-scheduled parallel programs", run: gang::run },
    Experiment { name: "reservation", reproduces: "§5(3) — advance reservations", run: reservation::run },
    Experiment { name: "hetero", reproduces: "§5(4) — mixed VAX/SUN fleets", run: hetero::run },
    Experiment { name: "availability", reproduces: "ref. [1] — owner-model validation", run: availability::run },
    Experiment { name: "oversubscribed", reproduces: "fractional capacity — whole-machine vs half-CPU packing", run: oversubscribed::run },
    Experiment { name: "redundancy", reproduces: "speculative replicas under faults and in the fair regime", run: redundancy::run },
];

/// What an experiment is handed: the two command-line settings, and the
/// default-seed month and week, each simulated the first time someone
/// asks and shared from then on.
#[derive(Debug)]
pub struct Ctx {
    /// `--quick`: `redundancy` shrinks its month to the one-week close-up.
    quick: bool,
    /// Where `export` writes its CSVs.
    export_dir: PathBuf,
    month: OnceCell<RunOutput>,
    week: OnceCell<RunOutput>,
}

impl Ctx {
    /// The paper month at [`EXPERIMENT_SEED`].
    fn month(&self) -> &RunOutput {
        self.month.get_or_init(|| run_scenario(paper_month(EXPERIMENT_SEED)))
    }

    /// The one-week close-up at [`EXPERIMENT_SEED`].
    fn week(&self) -> &RunOutput {
        self.week.get_or_init(|| run_scenario(one_week(EXPERIMENT_SEED)))
    }
}

/// `condor exp <name>… | all [--quick]`: runs the named experiments in
/// the order given (`all`: registry order) over one shared [`Ctx`]. An
/// argument right after `export` that names nothing is its output
/// directory (default `figures/`). With no experiment named, lists the
/// registry.
///
/// # Errors
///
/// Any other argument that names no experiment.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut selected: Vec<&Experiment> = Vec::new();
    let (mut quick, mut export_dir) = (false, None);
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if arg == "all" {
            selected.extend(&EXPERIMENTS);
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.name == arg) {
            selected.push(e);
        } else if selected.last().is_some_and(|e| e.name == "export")
            && export_dir.is_none()
            && !arg.starts_with('-')
        {
            export_dir = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unknown experiment {arg:?}; `condor exp` lists them"));
        }
    }
    if selected.is_empty() {
        for e in &EXPERIMENTS {
            println!("{:<15} {}", e.name, e.reproduces);
        }
    }
    let export_dir = export_dir.unwrap_or_else(|| "figures".into());
    let ctx = Ctx { quick, export_dir, month: OnceCell::new(), week: OnceCell::new() };
    for e in selected {
        (e.run)(&ctx);
    }
    Ok(())
}
