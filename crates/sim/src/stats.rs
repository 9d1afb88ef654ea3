//! Streaming and batch statistics.
//!
//! [`Running`] implements Welford's online algorithm (numerically stable
//! mean/variance without storing samples); [`Histogram`] and
//! [`percentile`]/[`Cdf`] support the distributional figures of the paper.

/// Online mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use condor_sim::stats::Running;
///
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     r.push(x);
/// }
/// assert_eq!(r.mean(), 5.0);
/// assert_eq!(r.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Population variance (divides by *n*); 0 when fewer than 2 samples.
    pub fn population_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by *n − 1*); 0 when fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Running {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Running {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut r = Running::new();
        r.extend(iter);
        r
    }
}

/// The `q`-th percentile (0–100, linear interpolation) of unsorted data.
///
/// Returns `None` on empty input.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 100]` or any value is NaN.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = q / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The median (50th percentile) of unsorted data.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Fixed-bucket histogram over `[lo, hi)` with uniform bucket widths, plus
/// underflow/overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` uniform cells over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or the range is empty/non-finite.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bucket counts (excluding under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// A log₂-bucketed histogram over non-negative integer observations.
///
/// Designed for streaming telemetry at unbounded horizons: memory is a
/// fixed 65 buckets regardless of sample count, and every update is O(1).
/// Bucket *b* holds values whose bit length is *b* (bucket 0 holds the
/// value 0), so relative resolution is a factor of two everywhere — enough
/// for "is the queue wait minutes or hours?" questions, by design not for
/// exact percentiles (see [`LogHistogram::quantile`]).
///
/// # Examples
///
/// ```
/// use condor_sim::stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [1u64, 2, 3, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(1000));
/// assert!((h.mean() - 251.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// counts[b] = observations with bit length b (b = 0 ⇒ value 0).
    counts: [u64; 65],
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean (the sum is tracked exactly); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the geometric midpoint of
    /// the bucket containing the `q`-th ranked observation, clamped to the
    /// observed min/max. Accurate to within a factor of two by
    /// construction. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if b == 0 {
                    return Some(0);
                }
                // Bucket b spans [2^(b-1), 2^b); geometric midpoint ≈
                // 2^(b-1) * √2.
                let lo = 1u64 << (b - 1);
                let mid = (lo as f64 * std::f64::consts::SQRT_2).round() as u64;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        unreachable!("rank within total")
    }

    /// Non-empty buckets as `(bucket_lo, bucket_hi_exclusive, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(b, &c)| {
            if b == 0 {
                (0, 1, c)
            } else {
                (1u64 << (b - 1), (1u128 << b).min(u64::MAX as u128) as u64, c)
            }
        })
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An empirical cumulative distribution function.
///
/// # Examples
///
/// ```
/// use condor_sim::stats::Cdf;
///
/// let cdf = Cdf::from_values(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_below(2.5), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from observations.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn from_values(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        Cdf { sorted: values }
    }

    /// Fraction of observations strictly below `x` (0 when empty).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Evaluates the CDF at each grid point, returning `(x, F(x))` pairs —
    /// the series plotted in the paper's Figure 2.
    pub fn evaluate_on(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter().map(|&x| (x, self.fraction_below(x))).collect()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when built from no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-th percentile of the underlying data.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile(&self.sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_known_dataset() {
        let r: Running = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(r.count(), 8);
        assert_eq!(r.mean(), 5.0);
        assert_eq!(r.population_variance(), 4.0);
        assert!((r.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.min(), Some(2.0));
        assert_eq!(r.max(), Some(9.0));
        assert_eq!(r.sum(), 40.0);
    }

    #[test]
    fn running_empty_and_single() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), None);
        assert_eq!(r.population_variance(), 0.0);
        let mut r1 = Running::new();
        r1.push(3.0);
        assert_eq!(r1.mean(), 3.0);
        assert_eq!(r1.population_variance(), 0.0);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.7 - 20.0).collect();
        let seq: Running = data.iter().copied().collect();
        let mut a: Running = data[..37].iter().copied().collect();
        let b: Running = data[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.population_variance() - seq.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn running_merge_with_empty() {
        let mut a = Running::new();
        let b: Running = [1.0, 2.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.mean(), 1.5);
        let mut c: Running = [4.0].into_iter().collect();
        c.merge(&Running::new());
        assert_eq!(c.mean(), 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 50.0), Some(25.0));
        assert_eq!(median(&v), Some(25.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order-insensitive.
        let shuffled = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&shuffled, 50.0), Some(25.0));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validates_q() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn histogram_buckets_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn cdf_fraction_and_percentiles() {
        let cdf = Cdf::from_values(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_below(0.5), 0.0);
        assert_eq!(cdf.fraction_below(1.0), 0.0); // strictly below
        assert_eq!(cdf.fraction_below(2.5), 0.5);
        assert_eq!(cdf.fraction_below(100.0), 1.0);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
        assert_eq!(cdf.percentile(50.0), Some(2.5));
    }

    #[test]
    fn cdf_grid_evaluation_is_monotone() {
        let cdf = Cdf::from_values((0..100).map(|i| i as f64).collect());
        let grid: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
        let pts = cdf.evaluate_on(&grid);
        for w in pts.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be monotone: {pts:?}");
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::from_values(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_below(1.0), 0.0);
        assert_eq!(cdf.percentile(50.0), None);
    }

    #[test]
    fn log_histogram_exact_aggregates() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 5, 5, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000_000));
        assert_eq!(h.sum(), 1_000_011);
        assert!((h.mean() - 200_002.2).abs() < 1e-6);
    }

    #[test]
    fn log_histogram_quantiles_within_factor_of_two() {
        let mut h = LogHistogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap() as f64;
        assert!((250.0..=1_000.0).contains(&p50), "p50 {p50}");
        let p0 = h.quantile(0.0).unwrap();
        assert!(p0 >= 1, "clamped to observed min, got {p0}");
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 <= 1_000, "clamped to observed max, got {p100}");
    }

    #[test]
    fn log_histogram_buckets_and_merge() {
        let mut a = LogHistogram::new();
        a.record(0);
        a.record(3);
        let mut b = LogHistogram::new();
        b.record(3);
        b.record(1 << 40);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        let buckets: Vec<_> = a.buckets().collect();
        // Value 0 → bucket [0,1); values 3 → [2,4); 2^40 → [2^40, 2^41).
        assert_eq!(
            buckets,
            vec![(0, 1, 1), (2, 4, 2), (1 << 40, 1 << 41, 1)]
        );
        let empty = LogHistogram::default();
        a.merge(&empty);
        assert_eq!(a.count(), 4);
    }
}
