//! Probability distributions for workload and availability modelling.
//!
//! The paper's evaluation rests on a few distributional facts: job service
//! demands have mean ≈ 5 h but median < 3 h (right-skewed, so
//! hyperexponential), workstation available intervals are a mixture of long
//! and short regimes, and light users arrive in small batches. This module
//! provides the corresponding samplers behind one object-safe trait so that
//! configurations can mix and match them.

use crate::rng::SimRng;

/// A sampleable, non-negative real-valued distribution.
///
/// Implementations must return finite values `>= 0`.
pub trait Sample: std::fmt::Debug {
    /// Draws one value using `rng`.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The analytic mean of the distribution, used by calibration code and
    /// sanity tests.
    fn mean(&self) -> f64;
}

/// A distribution that always returns the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates the point distribution at `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite() && value >= 0.0, "invalid point mass {value}");
        Deterministic { value }
    }
}

impl Sample for Deterministic {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, negative, or non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo < hi,
            "invalid uniform range [{lo}, {hi})"
        );
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform_range_f64(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Exponential distribution with a given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid exponential mean {mean}");
        Exponential { mean }
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.exponential(self.mean)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// A finite mixture of exponentials (hyperexponential).
///
/// This is the classic model for right-skewed workloads: most draws come
/// from a short-mean branch, a minority from a long-mean branch, yielding
/// mean well above median — exactly the shape of the paper's Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperexponential {
    branches: Vec<(f64, f64)>, // (probability, mean)
}

impl Hyperexponential {
    /// Creates a mixture from `(probability, mean)` branches.
    ///
    /// # Panics
    ///
    /// Panics if the branch list is empty, any probability or mean is
    /// invalid, or the probabilities do not sum to 1 (within 1e-9).
    pub fn new(branches: Vec<(f64, f64)>) -> Self {
        assert!(!branches.is_empty(), "hyperexponential needs branches");
        let mut total = 0.0;
        for &(p, m) in &branches {
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "bad branch probability {p}");
            assert!(m.is_finite() && m > 0.0, "bad branch mean {m}");
            total += p;
        }
        assert!(
            (total - 1.0).abs() < 1e-9,
            "branch probabilities sum to {total}, expected 1"
        );
        Hyperexponential { branches }
    }

    /// Two-branch convenience constructor: probability `p_short` of mean
    /// `short_mean`, otherwise `long_mean`.
    pub fn two(p_short: f64, short_mean: f64, long_mean: f64) -> Self {
        Hyperexponential::new(vec![(p_short, short_mean), (1.0 - p_short, long_mean)])
    }
}

impl Sample for Hyperexponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let mut u = rng.uniform_f64();
        for &(p, m) in &self.branches {
            if u < p {
                return rng.exponential(m);
            }
            u -= p;
        }
        // Floating-point slack: fall through to the last branch.
        let (_, m) = *self.branches.last().expect("non-empty branches");
        rng.exponential(m)
    }

    fn mean(&self) -> f64 {
        self.branches.iter().map(|&(p, m)| p * m).sum()
    }
}

/// Log-normal distribution parameterised by the mean and sigma of the
/// underlying normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with underlying normal parameters `mu`, `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0, "invalid lognormal");
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with a target *distribution* mean and a shape
    /// `sigma` of the underlying normal.
    ///
    /// # Panics
    ///
    /// Panics if `target_mean <= 0` or `sigma < 0`.
    pub fn with_mean(target_mean: f64, sigma: f64) -> Self {
        assert!(target_mean > 0.0, "lognormal mean must be positive");
        let mu = target_mean.ln() - sigma * sigma / 2.0;
        LogNormal::new(mu, sigma)
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &dyn Sample, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(3.5);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        assert_eq!(d.mean(), 4.0);
        let m = empirical_mean(&d, 3, 100_000);
        assert!((m - 4.0).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn exponential_empirical_mean() {
        let d = Exponential::new(7.0);
        let m = empirical_mean(&d, 4, 200_000);
        assert!((m - 7.0).abs() / 7.0 < 0.02, "mean {m}");
    }

    #[test]
    fn hyperexponential_mean_and_skew() {
        // 70% short jobs (1 h), 30% long (15 h): mean 5.2 h like the paper.
        let d = Hyperexponential::two(0.7, 1.0, 15.0);
        assert!((d.mean() - 5.2).abs() < 1e-9);
        let m = empirical_mean(&d, 5, 300_000);
        assert!((m - 5.2).abs() / 5.2 < 0.03, "mean {m}");

        // Median well below mean (right skew).
        let mut rng = SimRng::seed_from(6);
        let mut xs: Vec<f64> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[25_000];
        assert!(median < 3.0, "median {median} should be < 3 h");
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn hyperexponential_validates_probabilities() {
        let _ = Hyperexponential::new(vec![(0.5, 1.0), (0.6, 2.0)]);
    }

    #[test]
    fn lognormal_with_mean_hits_target() {
        let d = LogNormal::with_mean(0.5, 0.8);
        assert!((d.mean() - 0.5).abs() < 1e-12);
        let m = empirical_mean(&d, 8, 300_000);
        assert!((m - 0.5).abs() / 0.5 < 0.03, "mean {m}");
        let mut rng = SimRng::seed_from(9);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn trait_objects_work() {
        let dists: Vec<Box<dyn Sample>> = vec![
            Box::new(Deterministic::new(1.0)),
            Box::new(Exponential::new(1.0)),
            Box::new(Uniform::new(0.0, 2.0)),
        ];
        let mut rng = SimRng::seed_from(12);
        for d in &dists {
            let x = d.sample(&mut rng);
            assert!(x.is_finite() && x >= 0.0);
        }
    }
}
