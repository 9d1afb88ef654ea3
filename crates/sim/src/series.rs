//! Time-series recording.
//!
//! The paper's figures are time series (queue length per hour, utilization
//! per day) and time-weighted averages. Two recorders cover both needs:
//!
//! * [`StepSeries`] — a piecewise-constant signal (queue length, busy/idle
//!   flags). Records every change; supports time-weighted averaging and
//!   resampling onto a fixed grid for plotting.
//! * [`BucketAccumulator`] — accumulates amounts (CPU-milliseconds consumed)
//!   into fixed-width time buckets; used for utilization-per-hour curves.
//! * [`CoarseSeries`] — a bounded-memory sampled series for streaming
//!   telemetry: keeps at most a fixed number of points by averaging ever
//!   wider windows as more samples arrive.

use crate::time::{SimDuration, SimTime};

/// A piecewise-constant time series: the value set at time *t* holds until
/// the next set.
///
/// # Examples
///
/// ```
/// use condor_sim::series::StepSeries;
/// use condor_sim::time::{SimDuration, SimTime};
///
/// let mut s = StepSeries::new(0.0);
/// s.set(SimTime::from_secs(10), 2.0);
/// s.set(SimTime::from_secs(20), 4.0);
/// // 0 for 10 s, 2 for 10 s, 4 for 10 s → time-weighted mean of 2.
/// let mean = s.time_weighted_mean(SimTime::ZERO, SimTime::from_secs(30));
/// assert!((mean - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StepSeries {
    points: Vec<(SimTime, f64)>,
}

impl StepSeries {
    /// Creates a series whose value is `initial` from time zero.
    pub fn new(initial: f64) -> Self {
        StepSeries {
            points: vec![(SimTime::ZERO, initial)],
        }
    }

    /// Sets the value from `at` onward.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded change (the series is
    /// append-only).
    pub fn set(&mut self, at: SimTime, value: f64) {
        let (last_t, last_v) = *self.points.last().expect("series is never empty");
        assert!(at >= last_t, "StepSeries::set out of order: {at} < {last_t}");
        if value == last_v {
            return; // no-op change, keep the series compact
        }
        if at == last_t {
            // Overwrite a same-instant change.
            self.points.last_mut().expect("non-empty").1 = value;
            // Collapse if this made it equal to the previous point.
            if self.points.len() >= 2 && self.points[self.points.len() - 2].1 == value {
                self.points.pop();
            }
        } else {
            self.points.push((at, value));
        }
    }

    /// Adds `delta` to the current value, effective at `at`.
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let v = self.value_at_end();
        self.set(at, v + delta);
    }

    /// The value after all recorded changes.
    pub fn value_at_end(&self) -> f64 {
        self.points.last().expect("non-empty").1
    }

    /// The value in effect at instant `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1, // before first point: initial value
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Number of recorded change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if only the initial value has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.len() == 1
    }

    /// Point-wise sum of several step series — the merged series' value at
    /// any instant equals the sum of every part's value there.
    ///
    /// Used by the space-parallel cluster runner to combine per-pool queue
    /// series into the fleet-wide series the serial simulator would have
    /// produced. Deterministic: depends only on the parts' contents.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn merge_sum(parts: &[&StepSeries]) -> StepSeries {
        assert!(!parts.is_empty(), "merge_sum needs at least one series");
        // One cursor per part at the point in effect; every part's first
        // point is at time zero. Sweep the change instants in order,
        // summing the parts in part order at each.
        let mut at = vec![0usize; parts.len()];
        let in_effect =
            |at: &[usize]| -> f64 { parts.iter().zip(at).map(|(p, &i)| p.points[i].1).sum() };
        let mut merged = StepSeries::new(in_effect(&at));
        let next = |p: &StepSeries, i: usize| p.points.get(i + 1).map(|&(t, _)| t);
        while let Some(t) = parts.iter().zip(&at).filter_map(|(p, &i)| next(p, i)).min() {
            for (p, i) in parts.iter().zip(&mut at) {
                if next(p, *i) == Some(t) {
                    *i += 1;
                }
            }
            merged.set(t, in_effect(&at));
        }
        merged
    }

    /// Time-weighted mean over `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn time_weighted_mean(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "empty averaging window [{from}, {to})");
        let mut acc = 0.0;
        let mut cursor = from;
        let mut value = self.value_at(from);
        // Walk the change points inside the window.
        let start = match self.points.binary_search_by(|&(pt, _)| pt.cmp(&from)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        for &(pt, v) in &self.points[start..] {
            if pt >= to {
                break;
            }
            acc += value * pt.since(cursor).as_millis() as f64;
            cursor = pt;
            value = v;
        }
        acc += value * to.since(cursor).as_millis() as f64;
        acc / to.since(from).as_millis() as f64
    }

    /// Samples the series onto a fixed grid: one point per `step`, covering
    /// `[from, to)`, each point being the **time-weighted mean** within its
    /// cell (not the instantaneous value), which is what the paper's hourly
    /// queue-length plots show.
    pub fn resample_mean(&self, from: SimTime, to: SimTime, step: SimDuration) -> Vec<f64> {
        assert!(!step.is_zero(), "zero resampling step");
        let mut out = Vec::new();
        let mut cell = from;
        while cell < to {
            let cell_end = (cell + step).min(to);
            out.push(self.time_weighted_mean(cell, cell_end));
            cell = cell_end;
        }
        out
    }

    /// Maximum value attained in `[from, to)` (including the value carried
    /// into the window).
    pub fn max_in(&self, from: SimTime, to: SimTime) -> f64 {
        let mut m = self.value_at(from);
        for &(pt, v) in &self.points {
            if pt >= from && pt < to {
                m = m.max(v);
            }
        }
        m
    }

    /// Iterates over the recorded `(time, value)` change points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }
}

/// Accumulates amounts into fixed-width time buckets.
///
/// Typical use: charge CPU-milliseconds of useful work into hourly buckets,
/// then divide by capacity to get a utilization curve.
///
/// # Examples
///
/// ```
/// use condor_sim::series::BucketAccumulator;
/// use condor_sim::time::{SimDuration, SimTime};
///
/// let mut acc = BucketAccumulator::new(SimDuration::HOUR);
/// // Six units spread over 90 minutes: two thirds land in the first hour.
/// acc.deposit_interval(SimTime::ZERO, SimTime::from_secs(90 * 60), 6.0);
/// assert_eq!(acc.bucket_totals(2), vec![4.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct BucketAccumulator {
    width: SimDuration,
    buckets: Vec<f64>,
}

impl BucketAccumulator {
    /// Creates an accumulator with buckets of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "zero bucket width");
        BucketAccumulator {
            width,
            buckets: Vec::new(),
        }
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    fn bucket_index(&self, t: SimTime) -> usize {
        (t.as_millis() / self.width.as_millis()) as usize
    }

    fn ensure(&mut self, idx: usize) {
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0.0);
        }
    }

    /// Deposits `amount` entirely into the bucket containing instant `t`.
    fn deposit_point(&mut self, t: SimTime, amount: f64) {
        let idx = self.bucket_index(t);
        self.ensure(idx);
        self.buckets[idx] += amount;
    }

    /// Spreads `amount` uniformly over the interval `[from, to)`, splitting
    /// it across buckets pro-rata. An empty interval deposits at `from`.
    pub fn deposit_interval(&mut self, from: SimTime, to: SimTime, amount: f64) {
        if to <= from {
            self.deposit_point(from, amount);
            return;
        }
        let total_ms = to.since(from).as_millis() as f64;
        let mut cursor = from;
        while cursor < to {
            let bucket_end = cursor.align_down(self.width) + self.width;
            let seg_end = bucket_end.min(to);
            let frac = seg_end.since(cursor).as_millis() as f64 / total_ms;
            self.deposit_point(cursor, amount * frac);
            cursor = seg_end;
        }
    }

    /// Adds every bucket of `other` into this accumulator.
    ///
    /// Both accumulators must share a bucket width; used to combine
    /// per-pool busy-time ledgers into the fleet-wide one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ.
    pub fn absorb(&mut self, other: &BucketAccumulator) {
        assert_eq!(
            self.width, other.width,
            "cannot absorb a BucketAccumulator of different bucket width"
        );
        if other.buckets.is_empty() {
            return;
        }
        self.ensure(other.buckets.len() - 1);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Totals of the first `n` buckets (zero-padded beyond the data).
    pub fn bucket_totals(&self, n: usize) -> Vec<f64> {
        let mut v = self.buckets.clone();
        v.resize(n.max(v.len()), 0.0);
        v.truncate(n);
        v
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Number of buckets touched so far.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// `true` if nothing has been deposited.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// A bounded-memory sampled time series.
///
/// Built for telemetry sinks that watch a gauge (bus backlog, scheduling
/// index) over arbitrarily long runs: memory never exceeds `capacity`
/// points. Samples are averaged in windows of `stride` consecutive pushes;
/// when the point buffer fills, adjacent points are pair-merged and the
/// stride doubles, halving resolution instead of growing. Each stored point
/// is `(time of first sample in window, mean of window)`. Fully
/// deterministic: the stored points depend only on the push sequence.
///
/// # Examples
///
/// ```
/// use condor_sim::series::CoarseSeries;
/// use condor_sim::time::SimTime;
///
/// let mut s = CoarseSeries::new(4);
/// for i in 0..100u64 {
///     s.push(SimTime::from_secs(i), i as f64);
/// }
/// assert!(s.len() <= 4);
/// assert_eq!(s.samples(), 100);
/// assert!((s.mean() - 49.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseSeries {
    capacity: usize,
    points: Vec<(SimTime, f64)>,
    stride: u64,
    pending_at: SimTime,
    pending_sum: f64,
    pending_count: u64,
    samples: u64,
    total_sum: f64,
    max: f64,
}

impl CoarseSeries {
    /// Default point capacity used by the telemetry layer.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// Creates a series holding at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (pair-merging needs room to halve).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "CoarseSeries capacity must be at least 2");
        CoarseSeries {
            capacity,
            points: Vec::new(),
            stride: 1,
            pending_at: SimTime::ZERO,
            pending_sum: 0.0,
            pending_count: 0,
            samples: 0,
            total_sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Samples are assumed to arrive in time order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.samples += 1;
        self.total_sum += value;
        self.max = self.max.max(value);
        if self.pending_count == 0 {
            self.pending_at = at;
        }
        self.pending_sum += value;
        self.pending_count += 1;
        if self.pending_count >= self.stride {
            self.flush_pending();
            if self.points.len() >= self.capacity {
                self.coarsen();
            }
        }
    }

    fn flush_pending(&mut self) {
        if self.pending_count == 0 {
            return;
        }
        let mean = self.pending_sum / self.pending_count as f64;
        self.points.push((self.pending_at, mean));
        self.pending_sum = 0.0;
        self.pending_count = 0;
    }

    fn coarsen(&mut self) {
        let merged: Vec<(SimTime, f64)> = self
            .points
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    (pair[0].0, (pair[0].1 + pair[1].1) / 2.0)
                } else {
                    pair[0]
                }
            })
            .collect();
        self.points = merged;
        self.stride *= 2;
    }

    /// The stored points as `(window start, window mean)`, oldest first.
    /// Includes any partially filled window at the end.
    pub fn points(&self) -> Vec<(SimTime, f64)> {
        let mut v = self.points.clone();
        if self.pending_count > 0 {
            v.push((self.pending_at, self.pending_sum / self.pending_count as f64));
        }
        v
    }

    /// Number of stored points (including a partial window).
    pub fn len(&self) -> usize {
        self.points.len() + usize::from(self.pending_count > 0)
    }

    /// `true` when no sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Total number of samples pushed (not points stored).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Exact mean of every sample ever pushed; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_sum / self.samples as f64
        }
    }

    /// Largest sample ever pushed; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.max)
    }

    /// Current samples-per-point coarsening factor (1 until the first merge).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Merges `other` into this series, interleaving stored points by time.
    ///
    /// The exact aggregates (`samples`, `mean`, `max`) combine losslessly;
    /// the stored point shape is rebuilt by replaying both point lists in
    /// time order, so it carries the same bounded-memory approximation any
    /// single-writer series has. Deterministic: depends only on the two
    /// series' contents, never on call timing.
    pub fn absorb(&mut self, other: &CoarseSeries) {
        if other.samples == 0 {
            return;
        }
        if self.samples == 0 {
            *self = other.clone();
            return;
        }
        let mine = self.points();
        let theirs = other.points();
        let mut rebuilt = CoarseSeries::new(self.capacity.max(other.capacity));
        let (mut i, mut j) = (0, 0);
        while i < mine.len() || j < theirs.len() {
            let take_mine = j >= theirs.len() || (i < mine.len() && mine[i].0 <= theirs[j].0);
            let (t, v) = if take_mine { mine[i] } else { theirs[j] };
            if take_mine {
                i += 1;
            } else {
                j += 1;
            }
            rebuilt.push(t, v);
        }
        // The replay above rebuilt the *shape*; restore the exact
        // aggregates from both sources.
        rebuilt.samples = self.samples + other.samples;
        rebuilt.total_sum = self.total_sum + other.total_sum;
        rebuilt.max = self.max.max(other.max);
        *self = rebuilt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_series_value_lookup() {
        let mut s = StepSeries::new(1.0);
        s.set(SimTime::from_secs(10), 5.0);
        s.set(SimTime::from_secs(20), 3.0);
        assert_eq!(s.value_at(SimTime::ZERO), 1.0);
        assert_eq!(s.value_at(SimTime::from_secs(9)), 1.0);
        assert_eq!(s.value_at(SimTime::from_secs(10)), 5.0);
        assert_eq!(s.value_at(SimTime::from_secs(15)), 5.0);
        assert_eq!(s.value_at(SimTime::from_secs(25)), 3.0);
        assert_eq!(s.value_at_end(), 3.0);
    }

    #[test]
    fn step_series_compacts_redundant_sets() {
        let mut s = StepSeries::new(1.0);
        s.set(SimTime::from_secs(5), 1.0); // no change
        assert_eq!(s.len(), 1);
        s.set(SimTime::from_secs(6), 2.0);
        s.set(SimTime::from_secs(6), 1.0); // same-instant overwrite back to 1
        assert_eq!(s.len(), 1, "overwrite collapsing to previous value");
    }

    #[test]
    fn add_accumulates_deltas() {
        let mut s = StepSeries::new(0.0);
        s.add(SimTime::from_secs(1), 1.0);
        s.add(SimTime::from_secs(2), 1.0);
        s.add(SimTime::from_secs(3), -2.0);
        assert_eq!(s.value_at(SimTime::from_millis(2_500)), 2.0);
        assert_eq!(s.value_at_end(), 0.0);
    }

    #[test]
    fn time_weighted_mean_partial_windows() {
        let mut s = StepSeries::new(0.0);
        s.set(SimTime::from_secs(10), 10.0);
        // Window [5, 15): 5 s at 0, 5 s at 10 → mean 5.
        let m = s.time_weighted_mean(SimTime::from_secs(5), SimTime::from_secs(15));
        assert!((m - 5.0).abs() < 1e-12);
        // Window fully before any change.
        let m0 = s.time_weighted_mean(SimTime::ZERO, SimTime::from_secs(5));
        assert_eq!(m0, 0.0);
        // Window fully after the last change.
        let m1 = s.time_weighted_mean(SimTime::from_secs(20), SimTime::from_secs(30));
        assert_eq!(m1, 10.0);
    }

    #[test]
    fn resample_mean_grid() {
        let mut s = StepSeries::new(0.0);
        s.set(SimTime::from_secs(30), 2.0); // halfway through first minute
        let cells = s.resample_mean(SimTime::ZERO, SimTime::from_secs(120), SimDuration::MINUTE);
        assert_eq!(cells.len(), 2);
        assert!((cells[0] - 1.0).abs() < 1e-12);
        assert!((cells[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_in_window() {
        let mut s = StepSeries::new(1.0);
        s.set(SimTime::from_secs(10), 9.0);
        s.set(SimTime::from_secs(20), 2.0);
        assert_eq!(s.max_in(SimTime::ZERO, SimTime::from_secs(5)), 1.0);
        assert_eq!(s.max_in(SimTime::ZERO, SimTime::from_secs(15)), 9.0);
        // Value carried into the window counts.
        assert_eq!(s.max_in(SimTime::from_secs(12), SimTime::from_secs(18)), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn step_series_rejects_time_travel() {
        let mut s = StepSeries::new(0.0);
        s.set(SimTime::from_secs(10), 1.0);
        s.set(SimTime::from_secs(5), 2.0);
    }

    #[test]
    fn bucket_point_deposits() {
        let mut acc = BucketAccumulator::new(SimDuration::MINUTE);
        acc.deposit_point(SimTime::from_secs(10), 1.0);
        acc.deposit_point(SimTime::from_secs(59), 2.0);
        acc.deposit_point(SimTime::from_secs(60), 4.0);
        assert_eq!(acc.bucket_totals(3), vec![3.0, 4.0, 0.0]);
        assert_eq!(acc.total(), 7.0);
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn bucket_interval_splits_pro_rata() {
        let mut acc = BucketAccumulator::new(SimDuration::MINUTE);
        // 90 s interval straddling the boundary: 2/3 in bucket 0, 1/3 in 1.
        acc.deposit_interval(SimTime::ZERO, SimTime::from_secs(90), 3.0);
        let t = acc.bucket_totals(2);
        assert!((t[0] - 2.0).abs() < 1e-9, "{t:?}");
        assert!((t[1] - 1.0).abs() < 1e-9, "{t:?}");
        assert!((acc.total() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_interval_empty_becomes_point() {
        let mut acc = BucketAccumulator::new(SimDuration::MINUTE);
        let t = SimTime::from_secs(30);
        acc.deposit_interval(t, t, 5.0);
        assert_eq!(acc.bucket_totals(1), vec![5.0]);
    }

    #[test]
    fn bucket_interval_spanning_many_buckets_conserves_mass() {
        let mut acc = BucketAccumulator::new(SimDuration::HOUR);
        acc.deposit_interval(SimTime::from_secs(1_000), SimTime::from_hours(10), 42.0);
        assert!((acc.total() - 42.0).abs() < 1e-9);
        assert_eq!(acc.len(), 10);
    }

    #[test]
    fn coarse_series_stays_within_capacity() {
        let mut s = CoarseSeries::new(8);
        for i in 0..10_000u64 {
            s.push(SimTime::from_secs(i), (i % 7) as f64);
        }
        assert!(s.len() <= 8, "len {} exceeds capacity", s.len());
        assert_eq!(s.samples(), 10_000);
        assert!(s.stride() > 1, "must have coarsened");
    }

    #[test]
    fn coarse_series_exact_aggregates_survive_coarsening() {
        let mut s = CoarseSeries::new(4);
        for i in 0..1_000u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert!((s.mean() - 499.5).abs() < 1e-9);
        assert_eq!(s.max(), Some(999.0));
    }

    #[test]
    fn coarse_series_small_runs_keep_full_resolution() {
        let mut s = CoarseSeries::new(16);
        s.push(SimTime::from_secs(1), 10.0);
        s.push(SimTime::from_secs(2), 20.0);
        s.push(SimTime::from_secs(3), 30.0);
        assert_eq!(s.stride(), 1);
        assert_eq!(
            s.points(),
            vec![
                (SimTime::from_secs(1), 10.0),
                (SimTime::from_secs(2), 20.0),
                (SimTime::from_secs(3), 30.0),
            ]
        );
    }

    #[test]
    fn coarse_series_points_preserve_window_means() {
        let mut s = CoarseSeries::new(2);
        for i in 0..8u64 {
            s.push(SimTime::from_secs(i), 1.0);
        }
        // All samples are 1.0, so every coarsened point's mean is exactly 1.
        for (_, v) in s.points() {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!(s.len() <= 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_sum_adds_step_series_pointwise() {
        let mut a = StepSeries::new(1.0);
        a.add(SimTime::from_secs(10), 2.0); // 3 from t=10
        let mut b = StepSeries::new(0.0);
        b.add(SimTime::from_secs(5), 5.0); // 5 from t=5
        b.add(SimTime::from_secs(10), -5.0); // back to 0 at t=10
        let m = StepSeries::merge_sum(&[&a, &b]);
        assert_eq!(m.value_at(SimTime::ZERO), 1.0);
        assert_eq!(m.value_at(SimTime::from_secs(7)), 6.0);
        assert_eq!(m.value_at(SimTime::from_secs(10)), 3.0);
        assert_eq!(m.value_at_end(), 3.0);
    }

    #[test]
    fn bucket_absorb_adds_bucketwise() {
        let mut a = BucketAccumulator::new(SimDuration::HOUR);
        a.deposit_point(SimTime::from_secs(30 * 60), 2.0);
        let mut b = BucketAccumulator::new(SimDuration::HOUR);
        b.deposit_point(SimTime::from_secs(30 * 60), 1.0);
        b.deposit_point(SimTime::from_secs(90 * 60), 4.0);
        a.absorb(&b);
        assert_eq!(a.bucket_totals(2), vec![3.0, 4.0]);
        assert_eq!(a.total(), 7.0);
    }

    #[test]
    fn coarse_absorb_preserves_exact_aggregates() {
        let mut a = CoarseSeries::new(8);
        let mut b = CoarseSeries::new(8);
        for k in 0..10u64 {
            a.push(SimTime::from_secs(2 * k), k as f64);
            b.push(SimTime::from_secs(2 * k + 1), 100.0);
        }
        let (sa, sb) = (a.samples(), b.samples());
        let (ma, mb) = (a.mean(), b.mean());
        a.absorb(&b);
        assert_eq!(a.samples(), sa + sb);
        let expect = (ma * sa as f64 + mb * sb as f64) / (sa + sb) as f64;
        assert!((a.mean() - expect).abs() < 1e-9);
        assert_eq!(a.max(), Some(100.0));
        // Absorbing into an empty series copies the other side verbatim.
        let mut empty = CoarseSeries::new(8);
        empty.absorb(&b);
        assert_eq!(empty.samples(), sb);
    }
}
