//! # condor-benchmark — the repo benchmark
//!
//! Six workloads over the Condor reproduction, measured from outside
//! through the crates' public API: end-to-end metrics with tracing off,
//! per-layer metrics from a traced run. `BENCHMARK.json` at the repo root
//! is the contract; [`registry`] is the same list in code and a self-test
//! keeps the two identical. See `README.md` for the tables.

pub mod compare;
pub mod json;
pub mod live;
pub mod probes;
pub mod registry;
pub mod run;
pub mod sim;
pub mod sim_trace;
pub mod spans;
pub mod stats;

use std::time::Duration;

/// One measured value, by registry name.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for counts and derived ratios).
    pub samples: u64,
}

/// Collects measured values under registry names.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Measured>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(self.get(name).is_none(), "{name} measured twice");
        self.0.push(Measured {
            name,
            value,
            samples: samples as u64,
        });
    }

    /// Median of `samples` under `name`.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64]) {
        self.put(name, stats::median_of(samples), samples.len());
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|m| m.value)
    }
}

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sim(sim::SimKind),
    Live(live::LiveKind),
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Sim(sim::SimKind::PaperMonth),
        Workload::Sim(sim::SimKind::FleetIdle),
        Workload::Sim(sim::SimKind::FleetLoaded),
        Workload::Sim(sim::SimKind::FleetPools),
        Workload::Live(live::LiveKind::Turnaround),
        Workload::Live(live::LiveKind::Churn),
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim(sim::SimKind::PaperMonth) => "paper_month",
            Workload::Sim(sim::SimKind::FleetIdle) => "fleet_idle",
            Workload::Sim(sim::SimKind::FleetLoaded) => "fleet_loaded",
            Workload::Sim(sim::SimKind::FleetPools) => "fleet_pools",
            Workload::Live(live::LiveKind::Turnaround) => "live_turnaround",
            Workload::Live(live::LiveKind::Churn) => "live_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Station count the layer probes are shaped to (a live pool has two
    /// workers).
    pub fn stations(self, quick: bool) -> usize {
        match self {
            Workload::Sim(k) => k.shape(quick).stations,
            Workload::Live(_) => live::WORKERS,
        }
    }
}

/// Threads the host can keep busy: `available_parallelism`, cross-checked
/// against `/proc/cpuinfo` because restrictive affinity masks can make the
/// former read 1 on a multi-core host.
pub fn nproc() -> usize {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    avail.max(cpuinfo).max(1)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
