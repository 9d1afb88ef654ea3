//! §2.4 ablation — Up-Down vs baseline allocation policies.
//!
//! A heavy user floods the cluster while a light user submits a small
//! daily batch. The paper's claim: Up-Down gives light users steady access
//! regardless of the heavy load; naive policies let the head of the line
//! monopolise.

use condor_core::config::PolicyKind;
use condor_core::job::UserId;
use condor_metrics::replicate::par_map;
use condor_metrics::summary::mean_wait_ratio;
use condor_metrics::table::{num, Table};
use condor_workload::scenarios::fairness_duel;

use super::Ctx;
use crate::{run_scenario, EXPERIMENT_SEED};

pub(super) fn run(_: &Ctx) {
    let policies = [
        PolicyKind::UpDown,
        PolicyKind::Fifo,
        PolicyKind::RoundRobin,
        PolicyKind::Random,
    ];
    println!("== §2.4: policy fairness under a monopolising heavy user ==");
    let mut t = Table::labelled(&[
        "Policy",
        "Light wait ratio",
        "Heavy wait ratio",
        "Light done",
        "Preemptions",
    ]);
    let mut updown_light = f64::NAN;
    let mut worst_baseline_light = 0.0f64;
    // The four policy runs are independent — one thread each.
    let runs = par_map(&policies, |policy| {
        let mut scenario = fairness_duel(EXPERIMENT_SEED, 10, 6);
        scenario.config.policy = *policy;
        run_scenario(scenario)
    });
    for (policy, out) in policies.iter().zip(&runs) {
        let light_wait = mean_wait_ratio(&out.jobs, |j| j.spec.user == UserId(1)).unwrap_or(f64::NAN);
        let heavy_wait = mean_wait_ratio(&out.jobs, |j| j.spec.user == UserId(0)).unwrap_or(f64::NAN);
        let light_done = out
            .jobs
            .iter()
            .filter(|j| j.spec.user == UserId(1) && j.state == condor_core::job::JobState::Completed)
            .count();
        let light_total = out.jobs.iter().filter(|j| j.spec.user == UserId(1)).count();
        t.row(vec![
            out.policy_name.clone(),
            num(light_wait, 2),
            num(heavy_wait, 2),
            format!("{light_done}/{light_total}"),
            out.totals.preemptions_priority.to_string(),
        ]);
        match policy {
            PolicyKind::UpDown => updown_light = light_wait,
            _ => worst_baseline_light = worst_baseline_light.max(light_wait),
        }
    }
    println!("{}", t.render());
    println!(
        "up-down light-user wait ratio {updown_light:.2} vs worst baseline {worst_baseline_light:.2}"
    );
    println!("paper: 'light users obtained remote resources regardless of the heavy user'");
    assert!(
        updown_light < worst_baseline_light,
        "Up-Down must beat the worst baseline for light users"
    );
}
