//! Whole-run summary statistics (the numbers quoted in §3 of the paper).

use condor_core::cluster::RunOutput;
use condor_core::job::{Job, JobState, UserId};
use condor_sim::stats::Running;

/// Headline statistics of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Stations simulated.
    pub stations: usize,
    /// Observation length, hours.
    pub horizon_hours: f64,
    /// Jobs submitted (admitted).
    pub jobs_submitted: usize,
    /// Jobs completed within the window.
    pub jobs_completed: usize,
    /// Station-hours available for remote execution (owner idle).
    pub available_hours: f64,
    /// CPU-hours consumed by remote execution.
    pub consumed_hours: f64,
    /// Fraction of fleet time the stations were available.
    pub availability: f64,
    /// Mean local (owner) utilization.
    pub local_utilization: f64,
    /// Mean system utilization (local + remote).
    pub system_utilization: f64,
    /// Mean wait ratio over completed jobs.
    pub mean_wait_ratio: f64,
    /// Mean leverage over completed jobs that consumed support.
    pub mean_leverage: f64,
    /// Mean checkpoint migrations per completed job.
    pub mean_checkpoints: f64,
    /// Placements performed.
    pub placements: u64,
    /// Checkpoint migrations performed.
    pub migrations: u64,
    /// Autonomous local starts while the coordinator was unreachable
    /// (nonzero only under chaos injection).
    pub local_starts: u64,
    /// Checkpoint transfers re-sent after corruption (nonzero only under
    /// chaos injection).
    pub ckpt_retries: u64,
    /// Speculative replicas spawned (nonzero only under the redundant policy).
    pub replicas_spawned: u64,
    /// Speculative replicas cancelled; `replicas_spawned - replicas_cancelled`
    /// is the number of jobs a replica finished first.
    pub replicas_cancelled: u64,
    /// CPU-hours burned by cancelled replicas (the price of speculation).
    pub wasted_replica_hours: f64,
}

/// Computes the summary for a run.
pub fn summarize(out: &RunOutput) -> RunSummary {
    let completed: Vec<&Job> = out.completed_jobs().collect();
    let mut wait = Running::new();
    let mut lev = Running::new();
    let mut cks = Running::new();
    for j in &completed {
        if let Some(w) = j.wait_ratio() {
            wait.push(w);
        }
        if let Some(l) = j.leverage() {
            lev.push(l);
        }
        cks.push(f64::from(j.checkpoints));
    }
    let fleet_hours = out.horizon.as_hours_f64() * out.stations as f64;
    RunSummary {
        stations: out.stations,
        horizon_hours: out.horizon.as_hours_f64(),
        jobs_submitted: out.jobs.iter().filter(|j| !j.rejected).count(),
        jobs_completed: completed.len(),
        available_hours: out.available_station_hours(),
        consumed_hours: out.consumed_cpu_hours(),
        availability: out.available_station_hours() / fleet_hours,
        local_utilization: out.mean_local_utilization(),
        system_utilization: out.mean_system_utilization(),
        mean_wait_ratio: wait.mean(),
        mean_leverage: lev.mean(),
        mean_checkpoints: cks.mean(),
        placements: out.totals.placements,
        migrations: out.totals.migrations,
        local_starts: out.totals.local_starts,
        ckpt_retries: out.totals.ckpt_retries,
        replicas_spawned: out.totals.replicas_spawned,
        replicas_cancelled: out.totals.replicas_cancelled,
        wasted_replica_hours: out.totals.wasted_replica_work as f64 / 3_600_000.0,
    }
}

/// Identifies the *heavy* users of a run: anyone holding at least
/// `share_threshold` of the total submitted demand (the paper's user A held
/// 90%). Everyone else is light.
pub fn heavy_users(jobs: &[Job], share_threshold: f64) -> Vec<UserId> {
    use std::collections::BTreeMap;
    let mut demand: BTreeMap<UserId, f64> = BTreeMap::new();
    let mut total = 0.0;
    for j in jobs {
        let h = j.spec.demand.as_hours_f64();
        *demand.entry(j.spec.user).or_insert(0.0) += h;
        total += h;
    }
    if total <= 0.0 {
        return Vec::new();
    }
    demand
        .into_iter()
        .filter(|(_, d)| d / total >= share_threshold)
        .map(|(u, _)| u)
        .collect()
}

/// Mean wait ratio of completed jobs passing `filter`.
pub fn mean_wait_ratio(jobs: &[Job], filter: impl Fn(&Job) -> bool) -> Option<f64> {
    let mut acc = Running::new();
    for j in jobs {
        if j.state == JobState::Completed && filter(j) {
            if let Some(w) = j.wait_ratio() {
                acc.push(w);
            }
        }
    }
    (acc.count() > 0).then(|| acc.mean())
}

/// Mean leverage of completed jobs passing `filter`.
pub fn mean_leverage(jobs: &[Job], filter: impl Fn(&Job) -> bool) -> Option<f64> {
    let mut acc = Running::new();
    for j in jobs {
        if j.state == JobState::Completed && filter(j) {
            if let Some(l) = j.leverage() {
                acc.push(l);
            }
        }
    }
    (acc.count() > 0).then(|| acc.mean())
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_core::cluster::Run;
    use condor_core::config::ClusterConfig;
    use condor_core::job::{JobId, JobSpec};
    use condor_net::NodeId;
    use condor_sim::time::{SimDuration, SimTime};

    fn small_run() -> RunOutput {
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| JobSpec::new(
                JobId(i),
                UserId((i % 2) as u32),
                NodeId::new((i % 2) as u32),
                SimTime::from_hours(i),
                SimDuration::from_hours(if i % 2 == 0 { 8 } else { 1 }),
            ))
            .collect();
        Run::new(ClusterConfig { stations: 5, ..ClusterConfig::default() })
            .specs(jobs)
            .horizon(SimDuration::from_days(5))
            .execute()
    }

    #[test]
    fn summary_fields_are_consistent() {
        let out = small_run();
        let s = summarize(&out);
        assert_eq!(s.stations, 5);
        assert_eq!(s.horizon_hours, 120.0);
        assert_eq!(s.jobs_submitted, 6);
        assert!(s.jobs_completed <= s.jobs_submitted);
        assert!((0.0..=1.0).contains(&s.availability));
        assert!(s.system_utilization >= s.local_utilization);
        assert!(s.consumed_hours <= s.available_hours + 1e-9);
        assert_eq!(s.placements, out.totals.placements);
    }

    #[test]
    fn heavy_user_detection() {
        let out = small_run();
        // User 0 submits 3×8 h = 24 h of 27 h total → ~89% share.
        let heavy = heavy_users(&out.jobs, 0.5);
        assert_eq!(heavy, vec![UserId(0)]);
        let none = heavy_users(&out.jobs, 0.95);
        assert!(none.is_empty());
        assert!(heavy_users(&[], 0.5).is_empty());
    }

    #[test]
    fn filtered_means_respect_filters() {
        let out = small_run();
        let all = mean_wait_ratio(&out.jobs, |_| true);
        let light = mean_wait_ratio(&out.jobs, |j| j.spec.user == UserId(1));
        assert!(all.is_some());
        assert!(light.is_some());
        let nobody = mean_wait_ratio(&out.jobs, |_| false);
        assert!(nobody.is_none());
        assert!(mean_leverage(&out.jobs, |_| true).unwrap() > 0.0);
    }
}
