//! §5 future-work item 3 — advance reservations.
//!
//! "Reservations guarantee computing capacity for users in advance in order
//! to conduct experiments in distributed computations." A researcher books
//! three machines for a 12-hour window while the heavy user floods the
//! system; with the reservation their batch runs on time, without it the
//! batch fights the flood.

use condor_core::cluster::Run;
use condor_core::config::{ClusterConfig, PolicyKind, Reservation};
use condor_core::job::{JobId, JobSpec, JobState, UserId};
use condor_metrics::replicate::par_map;
use condor_metrics::table::{num, Table};
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use super::Ctx;
use crate::EXPERIMENT_SEED;

fn jobs() -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = (0..60)
        .map(|i| JobSpec {
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(i),
                UserId(0),
                NodeId::new(0),
                SimTime::ZERO,
                SimDuration::from_hours(40),
            )
        })
        .collect();
    // The researcher's distributed-computation batch: 6 two-hour runs at
    // hour 48.
    for k in 0..6u64 {
        jobs.push(JobSpec {
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(60 + k),
                UserId(1),
                NodeId::new(1),
                SimTime::from_hours(48),
                SimDuration::from_hours(2),
            )
        });
    }
    jobs
}

fn flood(policy: PolicyKind, reserve: bool) -> (String, f64, usize, u64) {
    let reservations = if reserve {
        vec![Reservation {
            holder: NodeId::new(1),
            machines: 3,
            from: SimTime::from_hours(48),
            until: SimTime::from_hours(60),
        }]
    } else {
        Vec::new()
    };
    let config = ClusterConfig {
        stations: 10,
        seed: EXPERIMENT_SEED,
        policy,
        reservations,
        ..ClusterConfig::default()
    };
    let out = Run::new(config).specs(jobs()).horizon(SimDuration::from_days(6)).execute();
    let batch: Vec<_> = out.jobs.iter().filter(|j| j.spec.user == UserId(1)).collect();
    let done_in_window = batch
        .iter()
        .filter(|j| {
            j.state == JobState::Completed
                && j.completed_at.unwrap() <= SimTime::from_hours(60)
        })
        .count();
    let mean_wait: f64 = batch
        .iter()
        .map(|j| {
            j.wait_ratio().unwrap_or_else(|| {
                out.horizon.saturating_since(j.spec.arrival).as_secs_f64()
                    / j.spec.demand.as_secs_f64()
            })
        })
        .sum::<f64>()
        / batch.len() as f64;
    (out.policy_name.clone(), mean_wait, done_in_window, out.totals.reservation_placements)
}

pub(super) fn run(_: &Ctx) {
    println!("== §5(3): a 3-machine, 12-hour reservation under a 60-job flood ==");
    let mut t = Table::labelled(&[
        "Setup",
        "Batch wait ratio",
        "Batch done in window",
        "Reservation placements",
    ]);
    let mut in_window = Vec::new();
    let setups = [
        (PolicyKind::UpDown, false, "up-down, no reservation"),
        (PolicyKind::UpDown, true, "up-down + reservation"),
        (PolicyKind::Fifo, false, "fifo, no reservation"),
        (PolicyKind::Fifo, true, "fifo + reservation"),
    ];
    // The four setups are independent simulations — one thread each.
    let results = par_map(&setups, |&(policy, reserve, _)| flood(policy, reserve));
    for ((_, _, label), (_, wait, done, placements)) in setups.iter().zip(&results) {
        t.row(vec![
            (*label).into(),
            num(*wait, 2),
            format!("{done}/6"),
            placements.to_string(),
        ]);
        in_window.push(*done);
    }
    println!("{}", t.render());
    println!("the reservation guarantees the experiment window even under FIFO, where the");
    println!("flood otherwise starves the batch completely — §5(3)'s motivation.");
    assert!(
        in_window[1] == 6 && in_window[3] == 6,
        "reserved batches must finish inside the window"
    );
    assert!(
        in_window[3] > in_window[2],
        "under FIFO the reservation must rescue the batch"
    );
}
