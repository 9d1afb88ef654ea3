//! §4 ablation — the placement throttle.
//!
//! "If several machines are available, and users have several background
//! jobs waiting for service, the performance of the local machine is
//! severely degraded if all jobs are placed at the same time. Our
//! implementation places a single job remotely every two minutes to
//! distribute over time the impact on local workstations and the network."
//!
//! This experiment sweeps the per-poll placement budget and measures the
//! burst impact: how long transfers queue on the shared medium and how
//! much local CPU the submitting machine burns per minute during the burst.

use condor_core::cluster::Run;
use condor_core::config::ClusterConfig;
use condor_core::job::{JobId, JobSpec, UserId};
use condor_core::telemetry::{SharedSink, TraceSink};
use condor_core::trace::{TraceEvent, TraceKind};
use condor_metrics::replicate::par_map;
use condor_metrics::table::{num, Table};
use condor_model::diurnal::DiurnalProfile;
use condor_model::owner::OwnerConfig;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use super::Ctx;
use crate::EXPERIMENT_SEED;

/// Streams out just the placement instants — the only events this
/// experiment reads — so the runs need no buffered trace.
#[derive(Debug, Default)]
struct PlacementTimes(Vec<SimTime>);

impl TraceSink for PlacementTimes {
    fn record(&mut self, ev: &TraceEvent) {
        if matches!(ev.kind, TraceKind::PlacementStarted { .. }) {
            self.0.push(ev.at);
        }
    }
}

fn burst_jobs(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            image_bytes: 2_000_000,
            // big images make the burst visible
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(i),
                UserId(0),
                NodeId::new(0),
                SimTime::from_hours(1),
                SimDuration::from_hours(3),
            )
        })
        .collect()
}

pub(super) fn run(_: &Ctx) {
    println!("== §4: placement-throttle ablation (20-job burst, 2 MB images, 22 idle machines) ==");
    let mut t = Table::labelled(&[
        "Placements/poll",
        "Burst window (min)",
        "Peak home CPU (s/min)",
        "Makespan (h)",
    ]);
    let budgets = [1usize, 4, 20];
    // Independent day-long runs — one thread per placement budget.
    let runs = par_map(&budgets, |&budget| {
        let config = ClusterConfig {
            stations: 23,
            seed: EXPERIMENT_SEED,
            placements_per_poll: budget,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            record_trace: false,
            ..ClusterConfig::default()
        };
        let placements = SharedSink::new(PlacementTimes::default());
        let out = Run::new(config)
            .specs(burst_jobs(20))
            .horizon(SimDuration::from_days(1))
            .sink(Box::new(placements.clone()))
            .execute();
        let starts = placements
            .try_into_inner()
            .expect("run finished; sole handle")
            .0;
        (out, starts)
    });
    for (&budget, (out, starts)) in budgets.iter().zip(&runs) {
        // Placement instants → burst window and per-minute local CPU.
        let window = starts
            .last()
            .map(|l| l.since(starts[0]).as_minutes_f64())
            .unwrap_or(0.0);
        // Transfer CPU is 5 s/MB × 2 MB = 10 s per placement; peak home
        // CPU per minute is placements-in-the-busiest-minute × 10 s.
        let mut per_minute = std::collections::HashMap::new();
        for s in starts {
            *per_minute.entry(s.as_millis() / 60_000).or_insert(0u32) += 1;
        }
        let peak = per_minute.values().copied().max().unwrap_or(0) as f64 * 10.0;
        let makespan = out
            .completed_jobs()
            .map(|j| j.completed_at.unwrap())
            .max()
            .map(|t| t.since(SimTime::from_hours(1)).as_hours_f64())
            .unwrap_or(f64::NAN);
        t.row(vec![
            budget.to_string(),
            num(window, 0),
            num(peak, 0),
            num(makespan, 1),
        ]);
    }
    println!("{}", t.render());
    println!("burst placement finishes the spread sooner but hammers the submitting machine:");
    println!("at 20/poll the home burns 100+ s of CPU in one minute (plus the network),");
    println!("which is exactly the degradation §4 describes; 1/poll smooths it to 10 s/min.");
}
