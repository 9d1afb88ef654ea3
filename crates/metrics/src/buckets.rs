//! Demand-bucket aggregation.
//!
//! Figures 4, 8, and 9 of the paper all share one x-axis: *job service
//! demand in hours*, bucketed hourly. This module buckets completed jobs by
//! demand and averages a per-job metric within each bucket.

use condor_core::job::{Job, JobState};

/// One point of a per-demand-bucket series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketPoint {
    /// Inclusive lower edge of the demand bucket, hours.
    pub demand_lo_hours: f64,
    /// Exclusive upper edge, hours.
    pub demand_hi_hours: f64,
    /// Number of jobs in the bucket.
    pub jobs: usize,
    /// Mean of the metric over the bucket's jobs.
    pub mean: f64,
}

impl BucketPoint {
    /// Midpoint of the bucket (plotting x-coordinate).
    pub fn mid(&self) -> f64 {
        (self.demand_lo_hours + self.demand_hi_hours) / 2.0
    }
}

/// Buckets completed jobs by service demand (`bucket_hours`-wide cells up
/// to `max_hours`, with a final catch-all cell) and averages `metric` in
/// each. Jobs for which `metric` returns `None` are skipped; jobs failing
/// `filter` are skipped; empty buckets are omitted.
pub fn by_demand_bucket<F, P>(
    jobs: &[Job],
    bucket_hours: f64,
    max_hours: f64,
    filter: P,
    metric: F,
) -> Vec<BucketPoint>
where
    F: Fn(&Job) -> Option<f64>,
    P: Fn(&Job) -> bool,
{
    assert!(bucket_hours > 0.0, "zero bucket width");
    assert!(max_hours > bucket_hours, "max below one bucket");
    let n_buckets = (max_hours / bucket_hours).ceil() as usize + 1; // + overflow cell
    let mut sums = vec![0.0f64; n_buckets];
    let mut counts = vec![0usize; n_buckets];
    for j in jobs {
        if j.state != JobState::Completed || !filter(j) {
            continue;
        }
        let Some(value) = metric(j) else { continue };
        let demand_h = j.spec.demand.as_hours_f64();
        let idx = ((demand_h / bucket_hours) as usize).min(n_buckets - 1);
        sums[idx] += value;
        counts[idx] += 1;
    }
    (0..n_buckets)
        .filter(|&i| counts[i] > 0)
        .map(|i| BucketPoint {
            demand_lo_hours: i as f64 * bucket_hours,
            demand_hi_hours: if i == n_buckets - 1 {
                f64::INFINITY
            } else {
                (i + 1) as f64 * bucket_hours
            },
            jobs: counts[i],
            mean: sums[i] / counts[i] as f64,
        })
        .collect()
}

/// Mean wait ratio per demand bucket (Fig. 4).
pub fn wait_ratio_by_demand(jobs: &[Job], filter: impl Fn(&Job) -> bool) -> Vec<BucketPoint> {
    by_demand_bucket(jobs, 1.0, 14.0, filter, |j| j.wait_ratio())
}

/// Mean checkpoint rate (moves per demand-hour) per bucket (Fig. 8).
pub fn checkpoint_rate_by_demand(
    jobs: &[Job],
    filter: impl Fn(&Job) -> bool,
) -> Vec<BucketPoint> {
    by_demand_bucket(jobs, 1.0, 14.0, filter, |j| {
        Some(j.checkpoint_rate_per_hour())
    })
}

/// Mean leverage per bucket (Fig. 9).
pub fn leverage_by_demand(jobs: &[Job], filter: impl Fn(&Job) -> bool) -> Vec<BucketPoint> {
    by_demand_bucket(jobs, 1.0, 14.0, filter, |j| j.leverage())
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_core::job::{JobId, JobSpec, UserId};
    use condor_net::NodeId;
    use condor_sim::time::{SimDuration, SimTime};

    fn completed_job(id: u64, demand_h: f64, checkpoints: u32, support_s: f64) -> Job {
        let demand = SimDuration::from_hours_f64(demand_h);
        let spec = JobSpec {
            syscalls_per_cpu_sec: 0.0,
            ..JobSpec::new(JobId(id), UserId(0), NodeId::new(0), SimTime::ZERO, demand)
        };
        let mut j = Job::new(spec);
        j.accrue_run(demand, 0);
        j.charge_transfer(SimDuration::from_secs_f64(support_s));
        j.checkpoints = checkpoints;
        j.state = JobState::Completed;
        j.completed_at = Some(SimTime::ZERO + demand * 2);
        j
    }

    #[test]
    fn buckets_average_within_cells() {
        let jobs = vec![
            completed_job(0, 0.5, 1, 10.0),
            completed_job(1, 0.9, 3, 10.0),
            completed_job(2, 5.5, 2, 10.0),
        ];
        let pts = by_demand_bucket(&jobs, 1.0, 14.0, |_| true, |j| Some(f64::from(j.checkpoints)));
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].jobs, 2);
        assert_eq!(pts[0].mean, 2.0);
        assert_eq!(pts[0].demand_lo_hours, 0.0);
        assert_eq!(pts[1].jobs, 1);
        assert!((pts[1].mid() - 5.5).abs() < 0.01);
    }

    #[test]
    fn overflow_bucket_catches_long_jobs() {
        let jobs = vec![completed_job(0, 30.0, 1, 10.0)];
        let pts = by_demand_bucket(&jobs, 1.0, 14.0, |_| true, |_| Some(1.0));
        assert_eq!(pts.len(), 1);
        assert!(pts[0].demand_hi_hours.is_infinite());
    }

    #[test]
    fn incomplete_and_filtered_jobs_are_skipped() {
        let mut unfinished = completed_job(0, 2.0, 0, 10.0);
        unfinished.state = JobState::Queued;
        let jobs = vec![unfinished, completed_job(1, 2.0, 0, 10.0)];
        let all = by_demand_bucket(&jobs, 1.0, 14.0, |_| true, |_| Some(1.0));
        assert_eq!(all[0].jobs, 1);
        let none = by_demand_bucket(&jobs, 1.0, 14.0, |_| false, |_| Some(1.0));
        assert!(none.is_empty());
    }

    #[test]
    fn named_series_use_job_ledgers() {
        // 2 h job with 2 moves → 1 move/hour; wait ratio = 1 (took 4 h).
        let jobs = vec![completed_job(0, 2.0, 2, 20.0)];
        let ck = checkpoint_rate_by_demand(&jobs, |_| true);
        assert!((ck[0].mean - 1.0).abs() < 1e-9);
        let wr = wait_ratio_by_demand(&jobs, |_| true);
        assert!((wr[0].mean - 1.0).abs() < 1e-9);
        let lev = leverage_by_demand(&jobs, |_| true);
        // 7200 s remote / 20 s support = 360.
        assert!((lev[0].mean - 360.0).abs() < 1.0, "{}", lev[0].mean);
    }
}
