//! User behaviour models.
//!
//! Table 1 of the paper profiles five users: one *heavy* user (A) who "often
//! tried to execute as many remote jobs as there were workstations" and kept
//! more than 30 jobs in the system, and four *light* users (B–E) who
//! submitted occasional batches of ≈ 5 jobs. A [`UserProfile`] captures the
//! statistical signature of one such user; [`UserProfile::generate`] expands
//! it into concrete job specifications.

use condor_core::job::{JobId, JobSpec, UserId};
use condor_model::station::ArchSet;
use condor_net::NodeId;
use condor_sim::dist::{Hyperexponential, LogNormal, Sample};
use condor_sim::rng::SimRng;
use condor_sim::time::{SimDuration, SimTime};

/// Mean of the log-normal number of *total* system calls per job, the same
/// for every user. The paper notes short jobs do about the same total I/O
/// as long ones, which is exactly what makes their leverage lower (Fig. 9);
/// so the total, not the rate, is the stable per-job quantity.
const TOTAL_SYSCALLS_MEAN: f64 = 400.0;
/// Shape (σ of the underlying normal) of the total-system-call count.
const TOTAL_SYSCALLS_SIGMA: f64 = 1.0;

/// Statistical description of one submitting user.
#[derive(Debug)]
pub struct UserProfile {
    /// Identity (paper letters A–E map to 0–4).
    pub user: UserId,
    /// The workstation this user submits from.
    pub home: NodeId,
    /// Total jobs submitted over the observation window.
    pub job_count: usize,
    /// Mean of the batch-size distribution (jobs arrive in batches —
    /// paper Fig. 3's sharp queue-length rises).
    pub mean_batch_size: f64,
    /// Service-demand distribution (hours of reference CPU).
    pub demand_hours: Hyperexponential,
    /// Checkpoint-image size distribution (bytes); the paper's observed
    /// mean was ½ MB.
    pub image_bytes: LogNormal,
    /// Architectures the user compiles for (paper §5(4); the 1988 default
    /// is VAX-only).
    pub binaries: ArchSet,
}

impl UserProfile {
    /// A profile with the paper's cross-user defaults: batches of ~5,
    /// half-megabyte images, and a demand mixture with the requested mean.
    ///
    /// The demand distribution is a two-branch hyperexponential: 70% of
    /// jobs are "short" (a third of the mean), 30% "long", preserving the
    /// requested mean while keeping the median well below it — the shape of
    /// the paper's Fig. 2.
    pub fn with_mean_demand(user: UserId, home: NodeId, job_count: usize, mean_hours: f64) -> Self {
        assert!(mean_hours > 0.0, "demand mean must be positive");
        // p·(m/3) + (1−p)·L = m with p = 0.7 → L = (m − 0.7·m/3)/0.3.
        let short = mean_hours / 3.0;
        let long = (mean_hours - 0.7 * short) / 0.3;
        UserProfile {
            user,
            home,
            job_count,
            mean_batch_size: 5.0,
            demand_hours: Hyperexponential::new(vec![(0.7, short), (0.3, long)]),
            image_bytes: LogNormal::with_mean(500_000.0, 0.5),
            binaries: ArchSet::vax_only(),
        }
    }

    /// Generates this user's submissions across `[0, window)`.
    ///
    /// Jobs arrive in batches: batch epochs are uniform over the window,
    /// batch sizes are geometric-ish draws around `mean_batch_size`, and
    /// every job in a batch shares the same arrival instant (the user typed
    /// one `submit` loop). Ids are provisional (dense from `first_id`);
    /// [`merge_users`](crate::trace::merge_users) reassigns them by global
    /// arrival order.
    pub fn generate(&self, window: SimDuration, rng: &mut SimRng, first_id: u64) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.job_count);
        let total_syscalls = LogNormal::with_mean(TOTAL_SYSCALLS_MEAN, TOTAL_SYSCALLS_SIGMA);
        let mut next_id = first_id;
        while jobs.len() < self.job_count {
            let batch_at = SimTime::from_millis(rng.uniform_range_u64(0, window.as_millis()));
            // Geometric batch size with the configured mean, at least 1.
            let mut size = 1usize;
            let p_continue = 1.0 - 1.0 / self.mean_batch_size.max(1.0);
            while rng.chance(p_continue) && size < 64 {
                size += 1;
            }
            for _ in 0..size {
                if jobs.len() >= self.job_count {
                    break;
                }
                let demand_h = self.demand_hours.sample(rng).max(0.05);
                let demand = SimDuration::from_hours_f64(demand_h);
                let image = (self.image_bytes.sample(rng).max(50_000.0)) as u64;
                let calls = total_syscalls.sample(rng).max(1.0);
                let rate = calls / demand.as_secs_f64();
                jobs.push(JobSpec {
                    image_bytes: image,
                    syscalls_per_cpu_sec: rate,
                    binaries: self.binaries,
                    ..JobSpec::new(JobId(next_id), self.user, self.home, batch_at, demand)
                });
                next_id += 1;
            }
        }
        jobs.sort_by_key(|j| (j.arrival, j.id));
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(n: usize, mean_h: f64) -> UserProfile {
        UserProfile::with_mean_demand(UserId(0), NodeId::new(0), n, mean_h)
    }

    #[test]
    fn demand_mixture_preserves_mean() {
        for mean in [0.7, 2.5, 6.2] {
            let p = profile(10, mean);
            assert!(
                (p.demand_hours.mean() - mean).abs() < 1e-9,
                "mixture mean for {mean}"
            );
        }
    }

    #[test]
    fn generates_requested_count_within_window() {
        let p = profile(200, 3.0);
        let mut rng = SimRng::seed_from(1);
        let window = SimDuration::from_days(30);
        let jobs = p.generate(window, &mut rng, 0);
        assert_eq!(jobs.len(), 200);
        for j in &jobs {
            assert!(j.arrival < SimTime::ZERO + window);
            assert!(j.demand >= SimDuration::from_minutes(3));
            assert!(j.image_bytes >= 50_000);
            assert!(j.syscalls_per_cpu_sec > 0.0);
            assert_eq!(j.user, UserId(0));
            assert_eq!(j.home, NodeId::new(0));
        }
        // Sorted by arrival.
        for w in jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn empirical_demand_mean_tracks_target() {
        let p = profile(5_000, 6.2);
        let mut rng = SimRng::seed_from(2);
        let jobs = p.generate(SimDuration::from_days(30), &mut rng, 0);
        let mean_h: f64 =
            jobs.iter().map(|j| j.demand.as_hours_f64()).sum::<f64>() / jobs.len() as f64;
        assert!((mean_h - 6.2).abs() / 6.2 < 0.1, "empirical mean {mean_h}");
        // Median below mean: right skew, the Fig. 2 shape.
        let mut hours: Vec<f64> = jobs.iter().map(|j| j.demand.as_hours_f64()).collect();
        hours.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = hours[hours.len() / 2];
        assert!(median < mean_h * 0.75, "median {median} vs mean {mean_h}");
    }

    #[test]
    fn jobs_arrive_in_batches() {
        let p = profile(100, 2.0);
        let mut rng = SimRng::seed_from(3);
        let jobs = p.generate(SimDuration::from_days(30), &mut rng, 0);
        // Batches share arrival instants: distinct arrivals well below
        // the job count.
        let distinct: std::collections::HashSet<u64> =
            jobs.iter().map(|j| j.arrival.as_millis()).collect();
        assert!(
            distinct.len() * 2 < jobs.len(),
            "{} distinct arrivals for {} jobs — not batchy",
            distinct.len(),
            jobs.len()
        );
    }

    #[test]
    fn image_sizes_center_on_half_megabyte() {
        let p = profile(2_000, 2.0);
        let mut rng = SimRng::seed_from(4);
        let jobs = p.generate(SimDuration::from_days(30), &mut rng, 0);
        let mean_img: f64 =
            jobs.iter().map(|j| j.image_bytes as f64).sum::<f64>() / jobs.len() as f64;
        assert!(
            (mean_img - 500_000.0).abs() / 500_000.0 < 0.15,
            "mean image {mean_img}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile(50, 2.0);
        let a = p.generate(SimDuration::from_days(10), &mut SimRng::seed_from(9), 0);
        let b = p.generate(SimDuration::from_days(10), &mut SimRng::seed_from(9), 0);
        assert_eq!(a, b);
    }
}
