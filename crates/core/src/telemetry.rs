//! Streaming telemetry: trace sinks and the O(1)-memory run summary.
//!
//! The legacy [`Trace`] buffers every event and is
//! scanned after the run — fine for a simulated month, infeasible for the
//! horizons the benchmarks target. This module inverts the flow: the
//! cluster pushes each [`TraceEvent`] into any number of [`TraceSink`]s *as
//! it happens*, so observers choose their own memory/accuracy trade-off:
//!
//! * [`StatsSink`] — aggregates into a [`Telemetry`] summary (per-kind
//!   counters, log-bucketed histograms, coarsened gauge series) in O(1)
//!   memory; always attached, so even `record_trace: false` runs report.
//! * [`VecSink`] — buffers everything, like the legacy trace.
//! * [`RingSink`] — keeps only the last *N* events (crash forensics).
//! * [`SharedSink`] — a cloneable handle so the caller keeps access to a
//!   sink after handing it to the cluster.
//! * `Trace` itself implements [`TraceSink`], closing the loop.
//!
//! A sink declares the event kinds it consumes ([`TraceSink::interest`], a
//! [`KindMask`]); the cluster tests the mask before the call, so a span
//! folder is never handed the polls and owner transitions that make up two
//! thirds of a month.
//!
//! Sinks also receive periodic [`GaugeSample`]s — instantaneous cluster
//! state (bus backlog, free machines, Up-Down index) captured at each
//! coordinator poll, which no discrete event carries.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use condor_sim::series::CoarseSeries;
use condor_sim::stats::LogHistogram;
use condor_sim::time::{SimDuration, SimTime};

use crate::dense::DenseTable;
use crate::job::JobId;
use crate::trace::{Trace, TraceEvent, TraceKind, TraceParseError};

/// Instantaneous cluster state sampled at each coordinator poll.
///
/// Gauges are not discrete events: nothing "happens" when the bus backlog
/// is 3 s, yet the paper's bus-occupancy figures need exactly that signal.
/// The cluster captures one sample per poll cycle and offers it to every
/// sink alongside the event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Queued work on the shared bus ahead of a transfer booked now.
    pub bus_backlog: SimDuration,
    /// Machines currently able to host a foreign job.
    pub free_machines: u32,
    /// Jobs waiting across all station queues.
    pub waiting_jobs: u32,
    /// Mean Up-Down schedule index across stations (`None` under other
    /// allocation policies).
    pub updown_mean_index: Option<f64>,
}

/// What a sink subscribes to: a set of [`TraceKind`]s, one bit per
/// [`TraceKind::index`], and one more bit for the per-poll
/// [`GaugeSample`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMask(u64);

const _: () = assert!(TraceKind::COUNT < u64::BITS as usize);

impl KindMask {
    const SAMPLES: u64 = 1 << (u64::BITS - 1);
    /// Every kind, and the gauge samples.
    pub const ALL: KindMask = KindMask(((1 << TraceKind::COUNT) - 1) | Self::SAMPLES);
    /// Nothing.
    pub const NONE: KindMask = KindMask(0);

    /// Everything but the named kinds (snake_case, as in
    /// [`TraceKind::names`]); a name that matches no kind removes nothing.
    pub fn all_but(names: &[&str]) -> KindMask {
        let dropped = names.iter().filter_map(|n| TraceKind::index_of_name(n));
        KindMask(dropped.fold(Self::ALL.0, |mask, i| mask & !(1 << i)))
    }

    /// Exactly the named kinds (snake_case, as in [`TraceKind::names`]),
    /// without the gauge samples.
    ///
    /// # Errors
    ///
    /// [`TraceParseError::UnknownKind`] for a name that matches no kind.
    pub fn from_names<'a>(
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<KindMask, TraceParseError> {
        names.into_iter().try_fold(KindMask::NONE, |mask, name| {
            let i = TraceKind::index_of_name(name)
                .ok_or_else(|| TraceParseError::UnknownKind(name.to_string()))?;
            Ok(KindMask(mask.0 | 1 << i))
        })
    }

    /// The same kinds, without the gauge samples.
    pub fn without_samples(self) -> KindMask {
        KindMask(self.0 & !Self::SAMPLES)
    }

    /// Whether `kind` is in the set.
    #[inline]
    pub fn contains(self, kind: &TraceKind) -> bool {
        self.0 >> kind.index() & 1 != 0
    }

    /// Whether the gauge samples are subscribed to.
    #[inline]
    pub fn samples(self) -> bool {
        self.0 & Self::SAMPLES != 0
    }

    /// Everything either mask subscribes to.
    pub fn union(self, other: KindMask) -> KindMask {
        KindMask(self.0 | other.0)
    }
}

/// An observer of the cluster's event stream.
///
/// The cluster calls [`record`](TraceSink::record) once per
/// [`TraceEvent`] of a kind in the sink's [`interest`](TraceSink::interest),
/// in simulation order, [`sample`](TraceSink::sample) once
/// per coordinator poll, and [`finish`](TraceSink::finish) exactly once
/// when the run ends. Implementations must be `Send` so runs stay usable
/// from the parallel replication harness.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Observes one event, in simulation order.
    fn record(&mut self, ev: &TraceEvent);

    /// Observes one periodic gauge sample. Default: ignored.
    fn sample(&mut self, _s: &GaugeSample) {}

    /// Called once when the run reaches its horizon. Default: no-op.
    fn finish(&mut self, _at: SimTime) {}

    /// The kinds this sink does anything with, and whether it reads the
    /// gauge samples; anything else need not be delivered, and the cluster
    /// does not deliver it. Asked once, when the sink is attached.
    /// Default: everything — right for any sink that counts or stores what
    /// it is handed.
    fn interest(&self) -> KindMask {
        KindMask::ALL
    }
}

impl TraceSink for Trace {
    fn record(&mut self, ev: &TraceEvent) {
        Trace::record(self, ev.at, ev.kind);
    }
}

/// A sink that buffers every event, like the legacy trace.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, yielding the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// A bounded sink keeping only the most recent events.
///
/// Memory is O(capacity) regardless of run length — attach one to a long
/// run and, when something goes wrong, the tail tells you what led up
/// to it.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    seen: u64,
}

impl RingSink {
    /// Creates a sink retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingSink capacity must be positive");
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Consumes the sink, yielding the retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into_iter().collect()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever observed (including evicted ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(*ev);
        self.seen += 1;
    }
}

/// Hands an inner sink only what its [`KindMask`] holds — the events of
/// those kinds, and the gauge samples if the mask has them: the mask is
/// the filter's [`interest`](TraceSink::interest), so the cluster
/// withholds everything else upstream, and the filter itself only
/// forwards.
///
/// Backs `condor trace --kind a,b`: wrap the printing/exporting sink so a
/// month-scale run streams only the event families of interest. How many
/// events the mask let through is the run's
/// [`Telemetry::events_in`] the mask.
///
/// # Examples
///
/// ```
/// use condor_core::cluster::Run;
/// use condor_core::config::ClusterConfig;
/// use condor_core::telemetry::{KindFilterSink, KindMask, SharedSink, VecSink};
/// use condor_core::trace::TraceKind;
/// use condor_sim::time::SimDuration;
///
/// let polls = KindMask::from_names(["coordinator_polled"]).unwrap();
/// let only_polls = SharedSink::new(KindFilterSink::new(VecSink::new(), polls));
/// let config = ClusterConfig { stations: 4, ..ClusterConfig::default() };
/// Run::new(config)
///     .horizon(SimDuration::from_hours(1))
///     .sink(Box::new(only_polls.clone()))
///     .execute();
/// only_polls.with(|f| {
///     assert_eq!(f.inner().len(), 29); // the polls at 2, 4, …, 58 minutes
///     assert!(f.inner().events().iter().all(|e| matches!(e.kind, TraceKind::CoordinatorPolled { .. })));
/// });
/// ```
#[derive(Debug)]
pub struct KindFilterSink<S> {
    mask: KindMask,
    inner: S,
}

impl<S> KindFilterSink<S> {
    /// Wraps `inner`, forwarding the kinds in `mask`.
    pub fn new(inner: S, mask: KindMask) -> Self {
        KindFilterSink { mask, inner }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink> TraceSink for KindFilterSink<S> {
    fn record(&mut self, ev: &TraceEvent) {
        self.inner.record(ev);
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.inner.sample(s);
    }

    fn finish(&mut self, at: SimTime) {
        self.inner.finish(at);
    }

    fn interest(&self) -> KindMask {
        self.mask
    }
}

/// A cloneable handle to a sink, so the caller keeps access after the
/// cluster takes ownership of a boxed copy.
///
/// # Examples
///
/// ```
/// use condor_core::telemetry::{RingSink, SharedSink, TraceSink};
///
/// let tail = SharedSink::new(RingSink::new(100));
/// let for_cluster: Box<dyn TraceSink + Send> = Box::new(tail.clone());
/// // … run the cluster with `for_cluster` attached …
/// drop(for_cluster);
/// let events = tail.with(|r| r.len());
/// assert_eq!(events, 0);
/// ```
#[derive(Debug)]
pub struct SharedSink<S> {
    inner: Arc<Mutex<S>>,
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink { inner: Arc::clone(&self.inner) }
    }
}

impl<S> SharedSink<S> {
    /// Wraps a sink in a shared handle.
    pub fn new(sink: S) -> Self {
        SharedSink { inner: Arc::new(Mutex::new(sink)) }
    }

    /// Runs `f` with exclusive access to the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.inner.lock().expect("sink lock poisoned"))
    }

    /// Recovers the inner sink. Returns `None` if other handles are still
    /// alive.
    pub fn try_into_inner(self) -> Option<S> {
        Arc::try_unwrap(self.inner)
            .ok()
            .map(|m| m.into_inner().expect("sink lock poisoned"))
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn record(&mut self, ev: &TraceEvent) {
        self.with(|s| s.record(ev));
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.with(|sink| sink.sample(s));
    }

    fn finish(&mut self, at: SimTime) {
        self.with(|s| s.finish(at));
    }

    fn interest(&self) -> KindMask {
        self.with(|s| s.interest())
    }
}

/// The O(1)-memory run summary built by [`StatsSink`].
///
/// Counters and histogram/series aggregates are exact where cheap (counts,
/// sums, min/max) and bounded-resolution where exactness would cost
/// unbounded memory (histogram quantiles are log₂-bucketed; gauge series
/// are pair-merge coarsened). Deterministic for a given seed: identical
/// runs produce identical summaries.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Total events observed.
    pub events_total: u64,
    /// Per-kind event counts, indexed by [`TraceKind::index`].
    pub counts: [u64; TraceKind::COUNT],
    /// Time from entering a queue to the subsequent start, in
    /// milliseconds (arrival→start, checkpoint-home→restart, kill→restart).
    pub queue_wait_ms: LogHistogram,
    /// Length of each uninterrupted execution burst, in milliseconds.
    pub remote_burst_ms: LogHistogram,
    /// Checkpoint image sizes put on the wire, in bytes.
    pub checkpoint_bytes: LogHistogram,
    /// Bus backlog (ms of queued transfer work) sampled at each poll.
    pub bus_backlog_ms: CoarseSeries,
    /// Mean Up-Down schedule index sampled at each poll (empty under
    /// non-Up-Down policies).
    pub updown_index: CoarseSeries,
    /// Earliest event timestamp, if any.
    pub first_event: Option<SimTime>,
    /// Latest event timestamp, if any.
    pub last_event: Option<SimTime>,
    /// The run horizon passed to [`TraceSink::finish`].
    pub finished_at: SimTime,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            events_total: 0,
            counts: [0; TraceKind::COUNT],
            queue_wait_ms: LogHistogram::new(),
            remote_burst_ms: LogHistogram::new(),
            checkpoint_bytes: LogHistogram::new(),
            bus_backlog_ms: CoarseSeries::new(CoarseSeries::DEFAULT_CAPACITY),
            updown_index: CoarseSeries::new(CoarseSeries::DEFAULT_CAPACITY),
            first_event: None,
            last_event: None,
            finished_at: SimTime::ZERO,
        }
    }
}

impl Telemetry {
    /// Per-kind counts as `(name, count)`, nonzero kinds only, in
    /// [`TraceKind::index`] order.
    pub fn nonzero_counts(&self) -> Vec<(&'static str, u64)> {
        TraceKind::names()
            .iter()
            .zip(self.counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&n, &c)| (n, c))
            .collect()
    }

    /// Events observed of the kinds in `mask`.
    pub fn events_in(&self, mask: KindMask) -> u64 {
        (0..TraceKind::COUNT).filter(|&i| mask.0 >> i & 1 != 0).map(|i| self.counts[i]).sum()
    }

    /// `true` when no events were observed.
    pub fn is_empty(&self) -> bool {
        self.events_total == 0
    }

    /// Merges another summary into this one — counters and histograms add
    /// losslessly, gauge series interleave by time, and the event-span
    /// bounds widen. Used by the sharded runner to combine per-pool
    /// summaries into the fleet-wide one; deterministic in the inputs.
    pub fn merge(&mut self, other: &Telemetry) {
        self.events_total += other.events_total;
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.queue_wait_ms.merge(&other.queue_wait_ms);
        self.remote_burst_ms.merge(&other.remote_burst_ms);
        self.checkpoint_bytes.merge(&other.checkpoint_bytes);
        self.bus_backlog_ms.absorb(&other.bus_backlog_ms);
        self.updown_index.absorb(&other.updown_index);
        self.first_event = match (self.first_event, other.first_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_event = match (self.last_event, other.last_event) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.finished_at = self.finished_at.max(other.finished_at);
    }
}

/// What [`StatsSink::record`] must do with an event's per-job marks. Each
/// kind's mark is a column of the trace-kind table, read by
/// [`TraceKind::index`] so the hot path branches off a table lookup
/// instead of re-matching the full kind enum; most events (owner flips,
/// polls) have none and skip mark handling entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MarkAction {
    /// Job entered the queue: set the queued mark.
    Queue,
    /// Job started: close the queue wait, set the running mark.
    Start,
    /// Job resumed in place: set the running mark.
    Resume,
    /// Job stopped producing: close the running burst.
    EndBurst,
    /// Checkpoint out: close the burst and record the image size.
    Checkpoint,
    /// Immediate kill: close the burst, job requeues at home.
    Kill,
}

/// Dense per-job timestamp marks (job ids are the dense sequence `0..n`;
/// one a caller invents cannot size the table, see [`DenseTable`]).
#[derive(Debug, Default)]
struct JobMarks(DenseTable<Mark>);

/// One job's mark in 8 bytes: [`SimTime::MAX`] is "no mark", an instant no
/// run reaches (a stream that stamps an event there loses that one sample).
#[derive(Debug, Clone, Copy)]
struct Mark(SimTime);

impl Default for Mark {
    fn default() -> Self {
        Mark(SimTime::MAX)
    }
}

impl JobMarks {
    #[inline]
    fn insert(&mut self, job: JobId, at: SimTime) {
        *self.0.entry(job.0) = Mark(at);
    }

    #[inline]
    fn remove(&mut self, job: JobId) -> Option<SimTime> {
        let mark = std::mem::take(self.0.get_mut(job.0)?);
        (mark.0 != SimTime::MAX).then_some(mark.0)
    }
}

/// Aggregates the event stream into a [`Telemetry`] summary.
///
/// Tracks per-job "queued since" / "running since" marks to turn the event
/// stream into queue-wait and execution-burst samples; everything else is
/// direct counting. Memory is O(max job id + fixed aggregates),
/// independent of run length.
#[derive(Debug, Default)]
pub struct StatsSink {
    telemetry: Telemetry,
    queued_since: JobMarks,
    running_since: JobMarks,
}

impl StatsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// The summary accumulated so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Consumes the sink, yielding the summary.
    pub fn into_telemetry(self) -> Telemetry {
        self.telemetry
    }
}

impl TraceSink for StatsSink {
    fn record(&mut self, ev: &TraceEvent) {
        let t = &mut self.telemetry;
        t.events_total += 1;
        let index = ev.kind.index();
        t.counts[index] += 1;
        // Min / max of `at`, not first / latest call: the same bounds on a
        // monotone stream, and still the stream's bounds when owner
        // transitions folded at a poll arrive after later-stamped events
        // (the rule `Telemetry::merge` already applies across shards).
        t.first_event = Some(t.first_event.map_or(ev.at, |f| f.min(ev.at)));
        t.last_event = Some(t.last_event.map_or(ev.at, |l| l.max(ev.at)));
        let Some(action) = TraceKind::mark_at(index) else {
            return; // owner flips and polls — the bulk of the stream
        };
        let Some(job) = ev.kind.job() else { return };
        match action {
            MarkAction::Queue => {
                self.queued_since.insert(job, ev.at);
            }
            MarkAction::Start => {
                if let Some(since) = self.queued_since.remove(job) {
                    t.queue_wait_ms.record(ev.at.since(since).as_millis());
                }
                self.running_since.insert(job, ev.at);
            }
            MarkAction::Resume => {
                self.running_since.insert(job, ev.at);
            }
            MarkAction::EndBurst => {
                if let Some(since) = self.running_since.remove(job) {
                    t.remote_burst_ms.record(ev.at.since(since).as_millis());
                }
            }
            MarkAction::Checkpoint => {
                // Under grace-then-checkpoint the job was already suspended
                // (no running mark left); under direct vacate this closes
                // the burst.
                if let Some(since) = self.running_since.remove(job) {
                    t.remote_burst_ms.record(ev.at.since(since).as_millis());
                }
                if let TraceKind::CheckpointStarted { bytes, .. } = ev.kind {
                    t.checkpoint_bytes.record(bytes);
                }
            }
            MarkAction::Kill => {
                if let Some(since) = self.running_since.remove(job) {
                    t.remote_burst_ms.record(ev.at.since(since).as_millis());
                }
                // An immediate-kill requeues the job at home.
                self.queued_since.insert(job, ev.at);
            }
        }
    }

    fn sample(&mut self, s: &GaugeSample) {
        self.telemetry
            .bus_backlog_ms
            .push(s.at, s.bus_backlog.as_millis() as f64);
        if let Some(idx) = s.updown_mean_index {
            self.telemetry.updown_index.push(s.at, idx);
        }
    }

    fn finish(&mut self, at: SimTime) {
        self.telemetry.finished_at = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_net::NodeId;

    fn ev(secs: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_secs(secs), kind }
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let mut s = VecSink::new();
        assert!(s.is_empty());
        s.record(&ev(1, TraceKind::JobArrived { job: JobId(0) }));
        s.record(&ev(2, TraceKind::JobArrived { job: JobId(1) }));
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].at, SimTime::from_secs(1));
        assert_eq!(s.into_events().len(), 2);
    }

    #[test]
    fn ring_sink_keeps_the_tail() {
        let mut s = RingSink::new(3);
        for i in 0..10 {
            s.record(&ev(i, TraceKind::JobArrived { job: JobId(i) }));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.seen(), 10);
        let tail: Vec<u64> = s
            .events()
            .map(|e| match e.kind {
                TraceKind::JobArrived { job } => job.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tail, vec![7, 8, 9]);
    }

    #[test]
    fn stats_sink_counts_and_waits() {
        let mut s = StatsSink::new();
        let n = NodeId::new(4);
        s.record(&ev(0, TraceKind::JobArrived { job: JobId(0) }));
        s.record(&ev(60, TraceKind::JobStarted { job: JobId(0), on: n }));
        s.record(&ev(600, TraceKind::JobSuspended { job: JobId(0), on: n }));
        s.record(&ev(
            700,
            TraceKind::CheckpointStarted {
                job: JobId(0),
                from: n,
                reason: crate::job::PreemptReason::OwnerReturned,
                bytes: 1_000_000,
            },
        ));
        s.record(&ev(
            800,
            TraceKind::CheckpointCompleted { job: JobId(0), from: n, bytes: 1_000_000 },
        ));
        s.record(&ev(900, TraceKind::JobStarted { job: JobId(0), on: n }));
        s.record(&ev(2_000, TraceKind::JobCompleted { job: JobId(0), on: n }));
        s.finish(SimTime::from_hours(1));

        let t = s.telemetry();
        assert_eq!(t.events_total, 7);
        let counts = t.nonzero_counts();
        assert!(counts.contains(&("job_arrived", 1)) && counts.contains(&("job_started", 2)));
        // Two queue waits: 60 s after arrival, 100 s after the checkpoint.
        assert_eq!(t.queue_wait_ms.count(), 2);
        assert_eq!(t.queue_wait_ms.min(), Some(60_000));
        assert_eq!(t.queue_wait_ms.max(), Some(100_000));
        // Two bursts: 540 s then 1100 s; the checkpoint after the suspend
        // does not double-count.
        assert_eq!(t.remote_burst_ms.count(), 2);
        assert_eq!(t.checkpoint_bytes.count(), 1);
        assert_eq!(t.checkpoint_bytes.max(), Some(1_000_000));
        assert_eq!(t.finished_at, SimTime::from_hours(1));
        assert_eq!(t.first_event, Some(SimTime::ZERO));
        assert_eq!(t.last_event, Some(SimTime::from_secs(2_000)));
        assert!(!t.is_empty());
        let names: Vec<&str> = t.nonzero_counts().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"job_arrived") && names.contains(&"checkpoint_started"));
    }

    /// Owner transitions folded at a poll reach the sink after events
    /// stamped later; the span bounds are the stream's, not the call
    /// order's.
    #[test]
    fn stats_sink_event_bounds_are_min_and_max_of_the_stamps() {
        let mut s = StatsSink::new();
        let station = NodeId::new(0);
        s.record(&ev(120, TraceKind::JobArrived { job: JobId(0) }));
        s.record(&ev(300, TraceKind::OwnerIdle { station }));
        s.record(&ev(45, TraceKind::OwnerActive { station }));
        let t = s.telemetry();
        assert_eq!(t.first_event, Some(SimTime::from_secs(45)));
        assert_eq!(t.last_event, Some(SimTime::from_secs(300)));
    }

    #[test]
    fn stats_sink_gauge_samples() {
        let mut s = StatsSink::new();
        for i in 0..100u64 {
            s.sample(&GaugeSample {
                at: SimTime::from_secs(i * 30),
                bus_backlog: SimDuration::from_millis(i * 10),
                free_machines: 5,
                waiting_jobs: 2,
                updown_mean_index: (i % 2 == 0).then_some(i as f64),
            });
        }
        let t = s.telemetry();
        assert_eq!(t.bus_backlog_ms.samples(), 100);
        assert_eq!(t.updown_index.samples(), 50);
        assert_eq!(t.bus_backlog_ms.max(), Some(990.0));
    }

    #[test]
    fn trace_is_a_sink() {
        let mut trace = Trace::new();
        let sink: &mut (dyn TraceSink + Send) = &mut trace;
        sink.record(&ev(5, TraceKind::JobArrived { job: JobId(9) }));
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].at, SimTime::from_secs(5));
    }
}
