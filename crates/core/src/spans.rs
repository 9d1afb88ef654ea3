//! Per-job lifecycle spans, folded online from the event stream.
//!
//! The paper's evaluation is entirely about *where a job's time goes*:
//! queue wait at the home station (wait ratio, Fig. 4), remote execution
//! bursts, and checkpoint/transfer leverage (Fig. 9). Counters and
//! histograms answer "how much overall"; this module answers "why did job
//! 17 take 9 hours of wall clock for 2 hours of CPU?" — by folding the
//! [`TraceEvent`] stream into contiguous per-job **spans**, one per
//! lifecycle phase:
//!
//! * [`SpanPhase::Queued`] — waiting at home (arrival→placement,
//!   checkpoint-landed→next placement, dependency holds);
//! * [`SpanPhase::Transfer`] — placement image in flight to the target;
//! * [`SpanPhase::Running`] — executing on a foreign machine;
//! * [`SpanPhase::Suspended`] — stopped in place pending the grace period;
//! * [`SpanPhase::Checkpointing`] — checkpoint image in flight back home.
//!
//! [`SpanSink`] is a [`TraceSink`]: attach it to a run (or replay a saved
//! JSONL trace into it) and it produces a [`SpanLog`] — per-job span lists,
//! a per-station occupancy timeline, and instant markers for preemptions.
//! The folding state is one row per job; the log itself grows with the
//! spans it records, like any trace.
//!
//! Spans are **gapless by construction**: every transition closes the
//! current span at the instant the next opens, so a job's phase durations
//! sum exactly to its wall clock (arrival → completion, or → horizon for
//! unfinished jobs). [`SpanLog::breakdown`] exploits that to compute
//! per-job and aggregate where-time-went fractions plus the critical path
//! of the run's makespan.

use std::collections::BTreeMap;

use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use crate::dense::DenseTable;
use crate::fold::{rules, Hold, JobRow, LifecycleFold, Life, Next, Rule};
use crate::job::JobId;
use crate::telemetry::{KindMask, TraceSink};
use crate::trace::{TraceEvent, TraceKind};

/// A lifecycle phase a job passes through, as observable from the trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Waiting in the home station's queue (includes dependency holds).
    #[default]
    Queued,
    /// Placement image in flight to the target machine.
    Transfer,
    /// Executing on a foreign machine.
    Running,
    /// Stopped in place by owner activity, pending the grace period.
    Suspended,
    /// Checkpoint image in flight back to the home station.
    Checkpointing,
}

impl SpanPhase {
    /// Number of distinct phases.
    pub const COUNT: usize = 5;

    /// All phases, in [`SpanPhase::index`] order.
    pub const ALL: [SpanPhase; SpanPhase::COUNT] = [
        SpanPhase::Queued,
        SpanPhase::Transfer,
        SpanPhase::Running,
        SpanPhase::Suspended,
        SpanPhase::Checkpointing,
    ];

    /// Dense index of this phase in `0..COUNT`.
    pub fn index(self) -> usize {
        match self {
            SpanPhase::Queued => 0,
            SpanPhase::Transfer => 1,
            SpanPhase::Running => 2,
            SpanPhase::Suspended => 3,
            SpanPhase::Checkpointing => 4,
        }
    }

    /// Stable lowercase name of this phase.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Queued => "queued",
            SpanPhase::Transfer => "transfer",
            SpanPhase::Running => "running",
            SpanPhase::Suspended => "suspended",
            SpanPhase::Checkpointing => "checkpointing",
        }
    }
}

/// One contiguous phase interval in a job's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The phase.
    pub phase: SpanPhase,
    /// When the phase began.
    pub from: SimTime,
    /// When the phase ended (next transition, completion, or horizon).
    pub until: SimTime,
    /// The machine involved: the host for `Transfer`/`Running`/
    /// `Suspended`/`Checkpointing` (the gang lead for parallel programs),
    /// `None` while `Queued` at home.
    pub station: Option<NodeId>,
}

impl Span {
    /// Length of the span.
    pub fn duration(&self) -> SimDuration {
        self.until.since(self.from)
    }
}

/// The complete span history of one job.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobSpans {
    /// When the job entered the system.
    pub arrived: SimTime,
    /// When it delivered all demand, if it did within the horizon.
    pub completed: Option<SimTime>,
    /// Contiguous spans from arrival to completion/horizon, in order.
    pub spans: Vec<Span>,
    /// Total checkpoint-image bytes shipped home on this job's behalf:
    /// the sum of every [`TraceKind::CheckpointCompleted`] event's `bytes`
    /// field (one event per gang member on parallel programs).
    pub transfer_bytes: u64,
}

impl JobSpans {
    /// Wall clock from arrival to completion (or the log's horizon).
    pub fn wall(&self, horizon: SimTime) -> SimDuration {
        self.completed.unwrap_or(horizon).since(self.arrived)
    }

    /// Total time per phase, indexed by [`SpanPhase::index`]. Because
    /// spans are gapless, these sum exactly to [`JobSpans::wall`].
    pub fn phase_totals(&self) -> [SimDuration; SpanPhase::COUNT] {
        let mut totals = [SimDuration::ZERO; SpanPhase::COUNT];
        for s in &self.spans {
            totals[s.phase.index()] += s.duration();
        }
        totals
    }
}

/// One interval during which a station hosted a foreign job (from
/// placement start to the completion/checkpoint/kill/crash that freed it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// The hosted job.
    pub job: JobId,
    /// When the placement transfer began.
    pub from: SimTime,
    /// When the station was freed.
    pub until: SimTime,
    /// Granted CPU in milli-units (1000 = the whole machine). Fractional
    /// grants come from [`TraceKind::JobGranted`], which the cluster emits
    /// just before the placement whenever a job demands less than a whole
    /// machine; whole-machine placements never emit it and stay at 1000.
    pub cpu_milli: u32,
}

/// An instantaneous lifecycle marker (rendered as an instant event in the
/// Perfetto export): preemptions, kills, resumes, crash rollbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanMarker {
    /// When it happened.
    pub at: SimTime,
    /// The job concerned.
    pub job: JobId,
    /// The machine concerned.
    pub station: NodeId,
    /// Stable label: `suspended`, `resumed_in_place`, `killed`,
    /// `checkpoint_out`, `periodic_checkpoint`, `crash_rollback`,
    /// `chaos_ckpt_corrupted`, `chaos_local_start`, `adopted`,
    /// `replica_spawned`, or `replica_cancelled`.
    pub label: &'static str,
}

/// Everything [`SpanSink`] produces: per-job span lists, the per-station
/// occupancy timeline, and instant markers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanLog {
    /// Span history per job, in job-id order.
    pub jobs: BTreeMap<JobId, JobSpans>,
    /// Foreign-occupancy intervals per station, in start order.
    pub stations: BTreeMap<NodeId, Vec<Occupancy>>,
    /// Instant markers in simulation order.
    pub markers: Vec<SpanMarker>,
    /// The horizon open spans were closed at.
    pub finished_at: SimTime,
}

/// Per-job row of a [`Breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobBreakdown {
    /// The job.
    pub job: JobId,
    /// Wall clock (arrival → completion or horizon).
    pub wall: SimDuration,
    /// Time per phase, indexed by [`SpanPhase::index`]; sums to `wall`.
    pub by_phase: [SimDuration; SpanPhase::COUNT],
    /// Whether the job completed within the horizon.
    pub completed: bool,
}

/// The where-time-went summary derived from a [`SpanLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breakdown {
    /// One row per job, in job-id order.
    pub per_job: Vec<JobBreakdown>,
    /// Sum of all jobs' per-phase time, indexed by [`SpanPhase::index`].
    pub aggregate: [SimDuration; SpanPhase::COUNT],
    /// Sum of all jobs' wall clocks (equals the aggregate's sum).
    pub total_wall: SimDuration,
    /// First arrival → last completion (or the horizon while jobs remain).
    pub makespan: SimDuration,
    /// The job whose completion closes the makespan — with independent
    /// jobs, the critical path of the batch is exactly this job's span
    /// chain. `None` for an empty log.
    pub critical: Option<JobBreakdown>,
}

impl SpanLog {
    /// Computes the where-time-went breakdown.
    pub fn breakdown(&self) -> Breakdown {
        let mut per_job = Vec::with_capacity(self.jobs.len());
        let mut aggregate = [SimDuration::ZERO; SpanPhase::COUNT];
        let mut total_wall = SimDuration::ZERO;
        let mut first_arrival: Option<SimTime> = None;
        let mut makespan_end: Option<SimTime> = None;
        let mut any_unfinished = false;
        for (&job, js) in &self.jobs {
            let by_phase = js.phase_totals();
            let wall = js.wall(self.finished_at);
            for (agg, d) in aggregate.iter_mut().zip(by_phase) {
                *agg += d;
            }
            total_wall += wall;
            first_arrival = Some(first_arrival.map_or(js.arrived, |f| f.min(js.arrived)));
            match js.completed {
                Some(c) => makespan_end = Some(makespan_end.map_or(c, |m| m.max(c))),
                None => any_unfinished = true,
            }
            per_job.push(JobBreakdown { job, wall, by_phase, completed: js.completed.is_some() });
        }
        let end = if any_unfinished {
            self.finished_at
        } else {
            makespan_end.unwrap_or(self.finished_at)
        };
        let makespan = first_arrival.map_or(SimDuration::ZERO, |f| end.saturating_since(f));
        // The critical job: last to complete — or, while jobs are still in
        // flight at the horizon, the unfinished job that arrived first
        // (the longest-open chain).
        let critical = if any_unfinished {
            per_job
                .iter()
                .filter(|b| !b.completed)
                .max_by_key(|b| b.wall)
                .copied()
        } else {
            makespan_end.and_then(|last| {
                self.jobs
                    .iter()
                    .find(|(_, js)| js.completed == Some(last))
                    .and_then(|(&job, _)| per_job.iter().find(|b| b.job == job))
                    .copied()
            })
        };
        Breakdown { per_job, aggregate, total_wall, makespan, critical }
    }
}

/// A [`TraceSink`] that folds the event stream into a [`SpanLog`] online.
///
/// The phases and holdings come from the shared `LifecycleFold` (`fold.rs`):
/// every event steps the job's row through `JobRow::advance`, and the sink
/// keeps the span each step closes and the occupancy each freed station
/// ends. It follows the stream wherever it goes — legality is the auditor's
/// business — including the gang-scheduling corners (k placement starts and
/// k checkpoint completions per migration collapse into single `Transfer` /
/// `Checkpointing` spans on the gang lead). Feeding the same events in the
/// same order — live or replayed from a JSONL file — gives an identical log.
///
/// # Examples
///
/// ```
/// use condor_core::spans::{SpanPhase, SpanSink};
/// use condor_core::telemetry::TraceSink;
/// use condor_core::trace::{TraceEvent, TraceKind};
/// use condor_core::job::JobId;
/// use condor_net::NodeId;
/// use condor_sim::time::SimTime;
///
/// let mut sink = SpanSink::new();
/// let job = JobId(0);
/// let on = NodeId::new(3);
/// for (t, kind) in [
///     (0, TraceKind::JobArrived { job }),
///     (60, TraceKind::PlacementStarted { job, target: on }),
///     (65, TraceKind::JobStarted { job, on }),
///     (300, TraceKind::JobCompleted { job, on }),
/// ] {
///     sink.record(&TraceEvent { at: SimTime::from_secs(t), kind });
/// }
/// sink.finish(SimTime::from_secs(400));
/// let log = sink.into_log();
/// let spans = &log.jobs[&job].spans;
/// assert_eq!(spans.len(), 3);
/// assert_eq!(spans[0].phase, SpanPhase::Queued);
/// assert_eq!(spans[2].phase, SpanPhase::Running);
/// ```
#[derive(Debug, Default)]
pub struct SpanSink {
    /// Markers as they happen; `jobs` and `stations` move in from the
    /// tables below when the run finishes.
    log: SpanLog,
    fold: LifecycleFold,
    /// Span history per job that ever arrived.
    jobs: DenseTable<Option<JobSpans>>,
    /// Ended occupancies per station, in release order.
    stations: DenseTable<Vec<Occupancy>>,
}

impl SpanSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        SpanSink::default()
    }

    /// The log. Its markers accumulate as events arrive; its `jobs` and
    /// `stations` are complete once [`finish`](TraceSink::finish) has
    /// closed the open spans at the horizon, and empty before.
    pub fn log(&self) -> &SpanLog {
        &self.log
    }

    /// Consumes the sink, yielding the log. Call after
    /// [`finish`](TraceSink::finish) so open spans are closed at the
    /// horizon.
    pub fn into_log(self) -> SpanLog {
        self.log
    }

    /// Rebuilds a span log from a recorded event sequence, closing open
    /// spans at `horizon`.
    pub fn fold(events: &[TraceEvent], horizon: SimTime) -> SpanLog {
        let mut sink = SpanSink::new();
        for ev in events {
            sink.record(ev);
        }
        sink.finish(horizon);
        sink.into_log()
    }

    /// Opens the job's timeline in the queue at `at` — an arrival, or an
    /// adoption into this pool — forgetting whatever it was doing.
    fn begin(&mut self, job: JobId, at: SimTime) -> &mut JobSpans {
        self.fold.jobs.entry(job.0).begin(at);
        self.jobs.entry(job.0).get_or_insert_with(JobSpans::default)
    }

    /// Steps a job that is in the system through `rule`, keeping the span
    /// the step closed and the occupancies it ended.
    fn follow(&mut self, at: SimTime, job: JobId, node: NodeId, rule: &Rule) {
        let Ok(row) = self.fold.live(job) else { return };
        let moved = row.advance(at, node, rule);
        if let Some(from) = moved.freed {
            vacate(&mut self.stations, job, row.demand.cpu_milli, (node, from), at);
        }
        if rule.hold == Hold::FreeAll {
            vacate_all(&mut self.stations, job, row, at);
        }
        let Some(span) = moved.closed else { return };
        if let Some(history) = self.history(job) {
            history.spans.push(span);
            if rule.next == Next::Done {
                history.completed = Some(at);
            }
        }
    }

    /// The job's history, if it ever arrived.
    fn history(&mut self, job: JobId) -> Option<&mut JobSpans> {
        self.jobs.get_mut(job.0)?.as_mut()
    }
}

/// Ends one occupancy of `job` at `at`: the station and since when.
fn vacate(
    stations: &mut DenseTable<Vec<Occupancy>>,
    job: JobId,
    cpu_milli: u32,
    (station, from): (NodeId, SimTime),
    at: SimTime,
) {
    let ended = Occupancy { job, from, until: at, cpu_milli };
    stations.entry(station.index().into()).push(ended);
}

/// Ends the occupancy of every station `job` holds.
fn vacate_all(stations: &mut DenseTable<Vec<Occupancy>>, job: JobId, row: &mut JobRow, at: SimTime) {
    for held in row.held.drain(..) {
        vacate(stations, job, row.demand.cpu_milli, held, at);
    }
}

impl TraceSink for SpanSink {
    fn record(&mut self, ev: &TraceEvent) {
        use TraceKind as K;
        let at = ev.at;
        // Job, machine, the rule that steps the job's row, the marker left.
        let (job, node, rule, label) = match ev.kind {
            K::PlacementStarted { job, target } => (job, target, Some(&rules::PLACED), None),
            K::JobStarted { job, on } => (job, on, Some(&rules::STARTED), None),
            K::JobSuspended { job, on } => (job, on, Some(&rules::SUSPENDED), Some("suspended")),
            // The cluster emits `JobStarted` alongside this marker (in
            // either order, depending on the gang path), so the step is
            // usually a no-op for one of the two.
            K::JobResumedInPlace { job, on } => {
                (job, on, Some(&rules::RESUMED), Some("resumed_in_place"))
            }
            K::CheckpointStarted { job, from, .. } => {
                (job, from, Some(&rules::CKPT_STARTED), Some("checkpoint_out"))
            }
            // The timeline is the gang lead's: the first image home puts
            // the job back in the queue.
            K::CheckpointCompleted { job, from, bytes } => {
                if let Some(history) = self.history(job) {
                    history.transfer_bytes += bytes;
                }
                (job, from, Some(&rules::CKPT_LANDED), None)
            }
            K::JobKilled { job, on } => (job, on, Some(&rules::KILLED), Some("killed")),
            K::PeriodicCheckpoint { job, on } => (job, on, None, Some("periodic_checkpoint")),
            K::CrashRollback { job, on } => {
                (job, on, Some(&rules::CRASHED), Some("crash_rollback"))
            }
            K::JobCompleted { job, on } => (job, on, Some(&rules::COMPLETED), None),
            // The job stays Checkpointing; the marker records the retry.
            K::ChaosCkptCorrupted { job, from, .. } => {
                (job, from, None, Some("chaos_ckpt_corrupted"))
            }
            // An autonomous start occupies the home station just like a
            // placed image; the paired `JobStarted` does the phase
            // transition.
            K::ChaosLocalStart { job, on } => {
                (job, on, Some(&rules::LOCAL_START), Some("chaos_local_start"))
            }
            // Replicas never alter the primary's phase timeline — the job
            // stays Queued (or Running elsewhere) while copies race. The
            // markers record where and when the redundancy budget went.
            K::ReplicaSpawned { job, on } => (job, on, None, Some("replica_spawned")),
            K::ReplicaCancelled { job, on, .. } => (job, on, None, Some("replica_cancelled")),
            // Adoption opens the job's life in the destination pool,
            // exactly like an arrival; the marker records the station
            // whose queue adopted it.
            K::JobAdopted { job, on } => {
                let history = self.begin(job, at);
                if history.spans.is_empty() && history.arrived == SimTime::ZERO {
                    history.arrived = at;
                }
                (job, on, None, Some("adopted"))
            }
            K::JobArrived { job } => return self.begin(job, at).arrived = at,
            // Emitted immediately ahead of the placement it describes;
            // the grant is fixed for the job's stay on that station.
            K::JobGranted { job, cpu_milli, .. } => {
                if let Ok(row) = self.fold.live(job) {
                    row.demand.cpu_milli = cpu_milli;
                }
                return;
            }
            // The job leaves this pool mid-queue: end its open span here
            // without marking it completed. Forwarded jobs hold no
            // stations, so there is nothing to release.
            K::JobForwarded { job, .. } => {
                if let Ok(row) = self.fold.live(job) {
                    row.life = Life::Done;
                    let open = row.open_span(at);
                    if let Some(history) = self.history(job) {
                        history.spans.push(open);
                    }
                }
                return;
            }
            // The kinds `interest` leaves out.
            K::JobRejected { .. }
            | K::PlacementDiskRejected { .. }
            | K::OwnerActive { .. }
            | K::OwnerIdle { .. }
            | K::StationFailed { .. }
            | K::StationRecovered { .. }
            | K::ReservationStarted { .. }
            | K::ReservationEnded { .. }
            | K::CoordinatorPolled { .. }
            | K::ChaosPollLost
            | K::ChaosPollDelayed { .. }
            | K::ChaosDupDropped
            | K::ChaosLinkDown { .. }
            | K::ChaosLinkUp { .. }
            | K::ChaosCoordDown
            | K::ChaosCoordUp => return,
        };
        if let Some(rule) = rule {
            self.follow(at, job, node, rule);
        }
        if let Some(label) = label {
            self.log.markers.push(SpanMarker { at, job, station: node, label });
        }
    }

    fn finish(&mut self, at: SimTime) {
        self.log.finished_at = at;
        // Close open spans and occupancies at the horizon, in job order.
        for (id, row) in self.fold.jobs.iter_mut() {
            if row.life == Life::Live {
                row.life = Life::Done;
                if let Some(Some(history)) = self.jobs.get_mut(id) {
                    history.spans.push(row.open_span(at));
                }
                vacate_all(&mut self.stations, JobId(id), row, at);
            }
        }
        for (id, history) in self.jobs.iter_mut() {
            if let Some(history) = history.take() {
                self.log.jobs.insert(JobId(id), history);
            }
        }
        // Occupancy lists fill in release order; present them in start
        // order per station.
        for (id, occupancies) in self.stations.iter_mut() {
            if !occupancies.is_empty() {
                occupancies.sort_by_key(|o| o.from);
                let station = NodeId::new(u32::try_from(id).unwrap_or(u32::MAX));
                self.log.stations.insert(station, std::mem::take(occupancies));
            }
        }
    }

    /// The job lifecycle alone: polls, owner transitions and station events
    /// — two thirds of a month — and the gauge samples are never delivered.
    fn interest(&self) -> KindMask {
        KindMask::all_but(&[
            "job_rejected", "placement_disk_rejected", "owner_active", "owner_idle",
            "station_failed", "station_recovered", "reservation_started", "reservation_ended",
            "coordinator_polled", "chaos_poll_lost", "chaos_poll_delayed", "chaos_dup_dropped",
            "chaos_link_down", "chaos_link_up", "chaos_coord_down", "chaos_coord_up",
        ])
        .without_samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PreemptReason;

    fn ev(secs: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_secs(secs), kind }
    }

    #[test]
    fn single_job_lifecycle_spans_are_gapless() {
        let job = JobId(0);
        let on = NodeId::new(2);
        let events = vec![
            ev(0, TraceKind::JobArrived { job }),
            ev(100, TraceKind::PlacementStarted { job, target: on }),
            ev(110, TraceKind::JobStarted { job, on }),
            ev(500, TraceKind::JobSuspended { job, on }),
            ev(560, TraceKind::JobStarted { job, on }),
            ev(560, TraceKind::JobResumedInPlace { job, on }),
            ev(900, TraceKind::JobSuspended { job, on }),
            ev(1200, TraceKind::CheckpointStarted {
                job,
                from: on,
                reason: PreemptReason::OwnerReturned,
                bytes: 1_000,
            }),
            ev(1300, TraceKind::CheckpointCompleted { job, from: on, bytes: 1_000 }),
            ev(1500, TraceKind::PlacementStarted { job, target: on }),
            ev(1510, TraceKind::JobStarted { job, on }),
            ev(2000, TraceKind::JobCompleted { job, on }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(3000));
        let js = &log.jobs[&job];
        assert_eq!(js.completed, Some(SimTime::from_secs(2000)));
        assert_eq!(js.transfer_bytes, 1_000);
        // Gapless: spans tile [arrival, completion].
        let mut cursor = js.arrived;
        for s in &js.spans {
            assert_eq!(s.from, cursor, "gap before {s:?}");
            cursor = s.until;
        }
        assert_eq!(cursor, SimTime::from_secs(2000));
        // Phase totals sum to wall clock.
        let wall: SimDuration = js.wall(log.finished_at);
        let total: SimDuration = js
            .phase_totals()
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d);
        assert_eq!(total, wall);
        // The resume produced one suspended span of 60 s.
        let suspended = js.phase_totals()[SpanPhase::Suspended.index()];
        assert_eq!(suspended, SimDuration::from_secs(60 + 300));
        // Occupancy: two visits to the station.
        assert_eq!(log.stations[&on].len(), 2);
        // Markers recorded in order.
        let labels: Vec<&str> = log.markers.iter().map(|m| m.label).collect();
        assert_eq!(
            labels,
            vec!["suspended", "resumed_in_place", "suspended", "checkpoint_out"]
        );
    }

    #[test]
    fn gang_events_collapse_into_single_spans() {
        let job = JobId(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let events = vec![
            ev(0, TraceKind::JobArrived { job }),
            ev(10, TraceKind::PlacementStarted { job, target: a }),
            ev(10, TraceKind::PlacementStarted { job, target: b }),
            ev(20, TraceKind::JobStarted { job, on: a }),
            ev(90, TraceKind::CheckpointStarted {
                job,
                from: a,
                reason: PreemptReason::PriorityPreemption,
                bytes: 500,
            }),
            ev(90, TraceKind::CheckpointStarted {
                job,
                from: b,
                reason: PreemptReason::PriorityPreemption,
                bytes: 500,
            }),
            ev(100, TraceKind::CheckpointCompleted { job, from: a, bytes: 500 }),
            ev(120, TraceKind::CheckpointCompleted { job, from: b, bytes: 500 }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(200));
        let js = &log.jobs[&job];
        // One transfer span, one checkpointing span, despite 2 members.
        let phases: Vec<SpanPhase> = js.spans.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                SpanPhase::Queued,
                SpanPhase::Transfer,
                SpanPhase::Running,
                SpanPhase::Checkpointing,
                SpanPhase::Queued, // still open at horizon, closed by finish
            ]
        );
        assert_eq!(js.transfer_bytes, 1_000);
        // Both stations held from placement to their own checkpoint landing.
        assert_eq!(log.stations[&a][0].until, SimTime::from_secs(100));
        assert_eq!(log.stations[&b][0].until, SimTime::from_secs(120));
    }

    #[test]
    fn breakdown_sums_and_critical_path() {
        let (j0, j1) = (JobId(0), JobId(1));
        let on = NodeId::new(1);
        let events = vec![
            ev(0, TraceKind::JobArrived { job: j0 }),
            ev(50, TraceKind::JobArrived { job: j1 }),
            ev(100, TraceKind::PlacementStarted { job: j0, target: on }),
            ev(110, TraceKind::JobStarted { job: j0, on }),
            ev(400, TraceKind::JobCompleted { job: j0, on }),
            ev(500, TraceKind::PlacementStarted { job: j1, target: on }),
            ev(520, TraceKind::JobStarted { job: j1, on }),
            ev(1000, TraceKind::JobCompleted { job: j1, on }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(2000));
        let b = log.breakdown();
        assert_eq!(b.per_job.len(), 2);
        for row in &b.per_job {
            let sum = row
                .by_phase
                .iter()
                .fold(SimDuration::ZERO, |acc, d| acc + *d);
            assert_eq!(sum, row.wall, "phase totals sum to wall for {:?}", row.job);
        }
        // Makespan: first arrival (0) to last completion (1000).
        assert_eq!(b.makespan, SimDuration::from_secs(1000));
        assert_eq!(b.critical.expect("non-empty").job, j1);
        let agg_sum = b
            .aggregate
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d);
        assert_eq!(agg_sum, b.total_wall);
    }

    #[test]
    fn crash_rollback_requeues_and_frees_stations() {
        let job = JobId(0);
        let on = NodeId::new(4);
        let events = vec![
            ev(0, TraceKind::JobArrived { job }),
            ev(10, TraceKind::PlacementStarted { job, target: on }),
            ev(20, TraceKind::JobStarted { job, on }),
            ev(300, TraceKind::StationFailed { station: on }),
            ev(300, TraceKind::CrashRollback { job, on }),
        ];
        let log = SpanSink::fold(&events, SimTime::from_secs(500));
        let js = &log.jobs[&job];
        assert_eq!(js.completed, None);
        assert_eq!(js.spans.last().unwrap().phase, SpanPhase::Queued);
        assert_eq!(log.stations[&on][0].until, SimTime::from_secs(300));
        assert_eq!(log.markers.last().unwrap().label, "crash_rollback");
    }
}

