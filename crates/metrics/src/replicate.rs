//! Multi-seed replication: means with confidence intervals.
//!
//! Single simulation runs are noisy; the paper itself reports one month of
//! one reality. For ablations (history-aware placement, eviction
//! strategies) we replicate across seeds and report a mean with a 95%
//! confidence half-width, so "A beats B" claims are statistically
//! defensible.
//!
//! Replications are embarrassingly parallel — each seed drives an
//! independent simulation — so [`replicate_par`] fans the seeds out across
//! threads. Results are aggregated **in seed order**, which makes the
//! parallel path bit-identical to the serial [`replicate`]: floating-point
//! summation order, and therefore every digit of the reported mean and
//! half-width, does not depend on thread scheduling.

use condor_core::shard::{default_threads, fork_join};
use condor_sim::stats::Running;

/// Two-sided 95% Student-t critical values, indexed by degrees of freedom
/// (slot 0 unused). Small replication counts (the common case here: 4–8
/// seeds) need the t distribution — the normal approximation's 1.96
/// understates the half-width by up to 60% at n=4.
const T_95: [f64; 31] = [
    f64::NAN, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
    2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
    2.042,
];

/// The 95% two-sided Student-t critical value for `df` degrees of freedom.
///
/// Above the table, values round *down* to the nearest tabulated df
/// (30, 40, 60, 120), which rounds the critical value — and hence the
/// reported interval — conservatively up.
fn t_critical_95(df: u64) -> f64 {
    match df {
        0 => f64::INFINITY,
        1..=30 => T_95[df as usize],
        31..=39 => T_95[30],
        40..=59 => 2.021,
        60..=119 => 2.000,
        _ => 1.980,
    }
}

/// A replicated estimate: mean over independent runs plus a confidence
/// half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Mean over replications.
    pub mean: f64,
    /// 95% confidence half-width (Student-t on n−1 degrees of freedom;
    /// replications are independent seeds).
    pub half_width: f64,
    /// Number of replications.
    pub n: u64,
}

impl MeanCi {
    /// Computes the estimate from per-replication values.
    ///
    /// # Panics
    ///
    /// Panics on empty input.
    pub fn from_values(values: &[f64]) -> MeanCi {
        assert!(!values.is_empty(), "no replications");
        let r: Running = values.iter().copied().collect();
        let n = r.count();
        let half_width = if n < 2 {
            f64::INFINITY
        } else {
            t_critical_95(n - 1) * (r.sample_variance() / n as f64).sqrt()
        };
        MeanCi {
            mean: r.mean(),
            half_width,
            n,
        }
    }

    /// Whether this estimate is significantly below `other` (intervals do
    /// not overlap).
    pub fn significantly_below(&self, other: &MeanCi) -> bool {
        self.mean + self.half_width < other.mean - other.half_width
    }
}

impl std::fmt::Display for MeanCi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.half_width.is_finite() {
            write!(f, "{:.2} ± {:.2}", self.mean, self.half_width)
        } else {
            write!(f, "{:.2} (n=1)", self.mean)
        }
    }
}

/// Runs `f` once per seed, serially, and aggregates the returned metric.
pub fn replicate<F>(seeds: &[u64], mut f: F) -> MeanCi
where
    F: FnMut(u64) -> f64,
{
    let values: Vec<f64> = seeds.iter().map(|&s| f(s)).collect();
    MeanCi::from_values(&values)
}

/// Runs `f` once per seed across the replication workers
/// ([`default_threads`]) and aggregates the returned metric.
///
/// Bit-identical to [`replicate`]: results are collected in seed order
/// before aggregation, so the output carries no trace of thread timing.
pub fn replicate_par<F>(seeds: &[u64], f: F) -> MeanCi
where
    F: Fn(u64) -> f64 + Sync,
{
    MeanCi::from_values(&par_map(seeds, |&s| f(s)))
}

/// Maps `f` over `items` on scoped threads, returning results in item
/// order.
///
/// Each item drives one independent closure call (typically one simulation
/// run keyed by a seed or configuration); contiguous chunks of the item
/// list go to each of [`default_threads`] threads through the sharded
/// runner's [`fork_join`] and land in pre-assigned output slots, so the
/// returned `Vec` is exactly what the serial `items.iter().map(f)` would
/// produce, regardless of which thread finishes first.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let mut slots: Vec<(&I, Option<T>)> = items.iter().map(|item| (item, None)).collect();
    fork_join(&mut slots, default_threads(), |(item, out)| *out = Some(f(item)));
    slots.into_iter().map(|(_, out)| out.expect("fork_join ran every slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_half_width() {
        let ci = MeanCi::from_values(&[10.0, 12.0, 8.0, 10.0]);
        assert_eq!(ci.mean, 10.0);
        assert_eq!(ci.n, 4);
        // s² = (0+4+4+0)/3 = 8/3; hw = t(df=3)·sqrt(8/12) = 3.182·0.8165.
        assert!((ci.half_width - 3.182 * (8.0f64 / 12.0).sqrt()).abs() < 1e-9);
        assert_eq!(format!("{ci}"), format!("10.00 ± {:.2}", ci.half_width));
    }

    #[test]
    fn t_critical_shrinks_toward_normal() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(3) - 3.182).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        // Step function is monotone non-increasing in df.
        let mut prev = f64::INFINITY;
        for df in 0..200 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t must not grow with df (df={df})");
            prev = t;
        }
        assert!((t_critical_95(10_000) - 1.980).abs() < 1e-9);
    }

    #[test]
    fn single_replication_has_infinite_width() {
        let ci = MeanCi::from_values(&[5.0]);
        assert_eq!(ci.mean, 5.0);
        assert!(ci.half_width.is_infinite());
        assert!(format!("{ci}").contains("n=1"));
    }

    #[test]
    fn significance_requires_separation() {
        let low = MeanCi { mean: 1.0, half_width: 0.5, n: 10 };
        let high = MeanCi { mean: 3.0, half_width: 0.5, n: 10 };
        assert!(low.significantly_below(&high));
        assert!(!high.significantly_below(&low));
        let wide = MeanCi { mean: 3.0, half_width: 3.0, n: 3 };
        assert!(!low.significantly_below(&wide), "overlapping intervals");
    }

    #[test]
    fn replicate_runs_per_seed() {
        let ci = replicate(&[1, 2, 3, 4], |s| s as f64);
        assert_eq!(ci.mean, 2.5);
        assert_eq!(ci.n, 4);
    }

    #[test]
    fn par_map_preserves_seed_order() {
        let seeds: Vec<u64> = (0..37).collect();
        let out = par_map(&seeds, |&s| s * 10);
        assert_eq!(out, seeds.iter().map(|s| s * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_replication_is_bit_identical_to_serial() {
        let seeds: Vec<u64> = (1..=11).collect();
        // A deliberately ill-conditioned metric: summation order matters at
        // the ULP level, so any reordering would show up in the bits.
        let metric = |s: u64| ((s as f64) * 1e-3).sin() * 1e6 + 1.0 / (s as f64);
        let serial = replicate(&seeds, metric);
        let parallel = replicate_par(&seeds, metric);
        assert_eq!(serial.mean.to_bits(), parallel.mean.to_bits());
        assert_eq!(serial.half_width.to_bits(), parallel.half_width.to_bits());
        assert_eq!(serial.n, parallel.n);
    }

    #[test]
    #[should_panic(expected = "no replications")]
    fn empty_input_rejected() {
        MeanCi::from_values(&[]);
    }
}
