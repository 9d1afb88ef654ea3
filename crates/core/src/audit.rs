//! Online protocol auditing: a [`TraceSink`] that checks the cluster's
//! observable invariants *as the events stream past*.
//!
//! The invariants are the ones `tests/protocol.rs` replays offline —
//! promoted here into a reusable state machine so they can run against a
//! live simulation (attach an [`AuditSink`] with `Run::sink`)
//! or against a saved JSONL trace (`condor audit --jsonl trace.jsonl`):
//!
//! 1. **Per-job lifecycle legality** — one arrival per job, placements
//!    only after arrival, starts only after placement, a completion is
//!    terminal, and every transition follows the phase machine (including
//!    the gang corners: k same-instant placement starts, k checkpoint
//!    completions, resume markers paired with restarts).
//! 2. **Station capacity conservation** — the demand vectors of a
//!    machine's resident foreign jobs never sum past its capacity in any
//!    dimension (for whole-machine streams this degenerates to the classic
//!    at-most-one-resident exclusivity), and every occupancy is closed by
//!    the job that opened it. Station capacities default to whole machines;
//!    pin a fleet's profile with [`AuditSink::with_capacities`].
//! 3. **Owner alternation** — per-station activity transitions alternate
//!    (never active-while-active or idle-while-idle).
//! 4. **Coordinator cadence** — polls tick at a fixed interval (gaps are
//!    exact positive multiples of it while the coordinator host is down),
//!    and placement starts never bunch tighter than that interval.
//!
//! Violations are *recorded, not panicked*: the auditor keeps streaming so
//! one corruption early in a trace still yields a full report. The first
//! 1,024 violations are kept verbatim; beyond that
//! only the count grows. Auditing state is one row per job and station seen.

use std::fmt;

use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use crate::fold::{rules, JobRow, LifecycleFold, Life, Rule};
use crate::job::JobId;
use crate::spans::SpanPhase;
use crate::telemetry::{KindMask, TraceSink};
use crate::trace::{TraceEvent, TraceKind};
use AuditViolationKind as K;

/// One invariant breach, with the instant it was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// When the offending event was recorded (for end-of-run checks, the
    /// finish horizon).
    pub at: SimTime,
    /// What went wrong.
    pub kind: AuditViolationKind,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.at, self.kind)
    }
}

/// The typed invariant breaches [`AuditSink`] can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolationKind {
    /// A job emitted `JobArrived` more than once.
    DuplicateArrival {
        /// The job.
        job: JobId,
    },
    /// A lifecycle event referenced a job that never arrived.
    EventBeforeArrival {
        /// The job.
        job: JobId,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// A lifecycle event arrived for a job already completed or rejected.
    EventAfterTerminal {
        /// The job.
        job: JobId,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// An event was illegal in the job's current phase.
    IllegalTransition {
        /// The job.
        job: JobId,
        /// Phase the auditor had the job in.
        phase: &'static str,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// `CheckpointCompleted` with no matching start in flight.
    UnmatchedCheckpointCompletion {
        /// The job.
        job: JobId,
        /// Claimed source station.
        station: NodeId,
    },
    /// Checkpoint starts outnumber completions at end of run for a job
    /// that is *not* mid-checkpoint (a transfer was silently lost).
    CheckpointImbalance {
        /// The job.
        job: JobId,
        /// Starts minus completions.
        in_flight: u32,
    },
    /// A placement targeted a station already hosting a foreign job.
    ///
    /// Reported for whole-machine placements only: a whole-machine demand
    /// can never legally share, so naming the resident is more useful than
    /// the raw capacity arithmetic. Fractional overcommits report
    /// [`AuditViolationKind::CapacityExceeded`] instead.
    DoubleOccupancy {
        /// The station.
        station: NodeId,
        /// The job already resident.
        resident: JobId,
        /// The job being placed onto it.
        incoming: JobId,
    },
    /// A placement pushed a station's granted capacity past its limit in
    /// some dimension.
    CapacityExceeded {
        /// The station.
        station: NodeId,
        /// Dimension name: `cpu`, `mem`, or `tag`.
        dimension: &'static str,
        /// Milli-units granted in that dimension after the placement.
        granted_milli: u32,
        /// The station's capacity in that dimension, in milli-units.
        capacity_milli: u32,
        /// The job being placed.
        incoming: JobId,
    },
    /// A completion/checkpoint/kill named a station the job did not hold.
    WrongStationRelease {
        /// The station named by the event.
        station: NodeId,
        /// The job.
        job: JobId,
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// An owner went active twice (or idle twice) in a row.
    OwnerTransitionRepeated {
        /// The station.
        station: NodeId,
        /// `true` for double-active, `false` for double-idle.
        active: bool,
    },
    /// A poll gap was not a positive whole multiple of the cadence.
    PollCadenceBroken {
        /// The observed gap.
        gap: SimDuration,
        /// The established cadence.
        cadence: SimDuration,
    },
    /// Two placement fan-outs bunched tighter than the poll cadence.
    PlacementThrottleBroken {
        /// The observed gap.
        gap: SimDuration,
        /// The established cadence.
        cadence: SimDuration,
    },
    /// A chaos recovery event (`chaos_coord_up` / `chaos_link_up`) with
    /// no matching outage or partition in effect.
    UnmatchedChaosRecovery {
        /// Trace-kind name of the offending event.
        event: &'static str,
    },
    /// `ReplicaSpawned` for a station already holding a live replica of
    /// the same job.
    DuplicateReplica {
        /// The job.
        job: JobId,
        /// The station.
        station: NodeId,
    },
    /// `ReplicaCancelled` naming a (job, station) pair with no live
    /// replica there.
    UnmatchedReplicaCancel {
        /// The job.
        job: JobId,
        /// The station.
        station: NodeId,
    },
    /// Replica conservation broken: spawned copies neither cancelled nor
    /// consumed by the job's completion (observed at completion or at the
    /// end of the run).
    ReplicaLeaked {
        /// The job.
        job: JobId,
        /// Live replicas left dangling.
        live: u32,
    },
}

impl fmt::Display for AuditViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            K::DuplicateArrival { job } => write!(f, "{job:?} arrived twice"),
            K::EventBeforeArrival { job, event } => {
                write!(f, "{event} for {job:?} before it arrived")
            }
            K::EventAfterTerminal { job, event } => {
                write!(f, "{event} for {job:?} after it completed/was rejected")
            }
            K::IllegalTransition { job, phase, event } => {
                write!(f, "{event} illegal for {job:?} while {phase}")
            }
            K::UnmatchedCheckpointCompletion { job, station } => {
                write!(f, "checkpoint_completed for {job:?} from {station} with none in flight")
            }
            K::CheckpointImbalance { job, in_flight } => {
                write!(f, "{job:?} ended with {in_flight} checkpoint transfer(s) lost")
            }
            K::DoubleOccupancy { station, resident, incoming } => {
                write!(f, "{station} received {incoming:?} while hosting {resident:?}")
            }
            K::CapacityExceeded { station, dimension, granted_milli, capacity_milli, incoming } => {
                write!(
                    f,
                    "{station} {dimension} over capacity: {granted_milli}/{capacity_milli} milli \
                     after placing {incoming:?}"
                )
            }
            K::WrongStationRelease { station, job, event } => {
                write!(f, "{event} for {job:?} names {station}, which it does not hold")
            }
            K::OwnerTransitionRepeated { station, active } => {
                let what = if *active { "active" } else { "idle" };
                write!(f, "{station} owner went {what} twice in a row")
            }
            K::PollCadenceBroken { gap, cadence } => {
                write!(f, "poll gap {gap} is not a whole multiple of cadence {cadence}")
            }
            K::PlacementThrottleBroken { gap, cadence } => {
                write!(f, "placements {gap} apart violate the {cadence} throttle")
            }
            K::UnmatchedChaosRecovery { event } => {
                write!(f, "{event} with no matching chaos fault in effect")
            }
            K::DuplicateReplica { job, station } => {
                write!(f, "{station} spawned a second live replica of {job:?}")
            }
            K::UnmatchedReplicaCancel { job, station } => {
                write!(f, "replica_cancelled for {job:?} on {station} with no live replica there")
            }
            K::ReplicaLeaked { job, live } => {
                write!(f, "{job:?} left {live} replica(s) neither cancelled nor completed")
            }
        }
    }
}

/// Whether `gap` is a positive whole multiple of `cadence` (mostly once: no division).
fn whole_multiple(gap: SimDuration, cadence: SimDuration) -> bool {
    !gap.is_zero() && (gap == cadence || (!cadence.is_zero() && cadence * (gap / cadence) == gap))
}

/// A [`TraceSink`] that audits the protocol invariants online.
///
/// # Examples
///
/// ```
/// use condor_core::audit::AuditSink;
/// use condor_core::telemetry::TraceSink;
/// use condor_core::trace::{TraceEvent, TraceKind};
/// use condor_core::job::JobId;
/// use condor_net::NodeId;
/// use condor_sim::time::SimTime;
///
/// let mut audit = AuditSink::new();
/// // A start with no preceding arrival or placement: two violations.
/// audit.record(&TraceEvent {
///     at: SimTime::from_secs(5),
///     kind: TraceKind::JobStarted { job: JobId(9), on: NodeId::new(0) },
/// });
/// audit.finish(SimTime::from_secs(10));
/// assert!(!audit.is_clean());
/// ```
#[derive(Debug, Default)]
pub struct AuditSink {
    /// Per-job phase, holdings, demand, checkpoints in flight and live
    /// replicas; per-station residents, owner state and partition depth.
    fold: LifecycleFold,
    /// Per-station capacity vectors, indexed by station id; stations past
    /// the end (or an empty vector) default to a whole machine.
    capacities: Vec<ResourceVec>,
    /// Established poll cadence; inferred from observed gaps unless pinned
    /// via [`AuditSink::with_poll_interval`].
    cadence: Option<SimDuration>,
    cadence_pinned: bool,
    /// Independent coordinators feeding this stream (>1 for merged
    /// sharded-run traces). Zero means one. With several coordinators the
    /// pools tick one shared grid, so same-instant polls and fan-outs are
    /// legal cross-pool ties; only those zero gaps are exempt from the
    /// poll-cadence and placement-throttle checks. Every per-job and
    /// per-station check applies regardless.
    pools: usize,
    last_poll: Option<SimTime>,
    /// Last placement fan-out instant and job (gang members share one).
    last_placement: Option<(SimTime, JobId)>,
    /// Off-grid poll instant announced by `ChaosPollDelayed`: the
    /// same-instant `CoordinatorPolled` (and any placements it fans out)
    /// is exempt from the cadence and throttle checks and does not move
    /// either baseline.
    delayed_poll_at: Option<SimTime>,
    /// Nesting depth of chaos coordinator-outage windows.
    chaos_coord_depth: u32,
    /// `ReplicaSpawned` events observed.
    replicas_spawned: u64,
    /// `ReplicaCancelled` events observed.
    replicas_cancelled: u64,
    /// Sum of the `wasted_ms` carried by cancellations.
    replica_wasted_ms: u64,
    events: u64,
    total: u64,
    violations: Vec<AuditViolation>,
}

impl AuditSink {
    /// Violations kept verbatim; beyond this only the total count grows.
    const MAX_RECORDED: usize = 1024;

    /// Creates an auditor that infers the poll cadence from the trace.
    pub fn new() -> Self {
        AuditSink::default()
    }

    /// Pins the expected coordinator poll cadence instead of inferring it
    /// from the first observed gap.
    pub fn with_poll_interval(mut self, cadence: SimDuration) -> Self {
        self.cadence = Some(cadence);
        self.cadence_pinned = true;
        self
    }

    /// Declares how many independent pool coordinators feed this stream
    /// (the pool count of a sharded run). With more than one, same-instant
    /// polls and placement fan-outs are treated as legal cross-pool ties
    /// on the shared grid; nonzero gaps still get the full poll-cadence
    /// and placement-throttle checks, so a single pool's violations stay
    /// visible even in a merged trace. Job-lifecycle and station-capacity
    /// checks are unaffected.
    pub fn with_pools(mut self, pools: usize) -> Self {
        self.pools = pools;
        self
    }

    /// Pins the fleet's per-station capacity vectors (indexed by station
    /// id). Without this, every station is audited as a whole machine —
    /// matching [`ClusterConfig`](crate::config::ClusterConfig)'s default
    /// capacity profile. Stations past the end of the vector default to
    /// whole machines.
    pub fn with_capacities(mut self, capacities: Vec<ResourceVec>) -> Self {
        self.capacities = capacities;
        self
    }

    /// Events inspected so far.
    pub fn events_seen(&self) -> u64 {
        self.events
    }

    /// Total violations observed (including any beyond the recorded cap).
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// The recorded violations, in observation order (the first 1,024
    /// only).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Whether no invariant was breached.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Replica accounting observed so far: `(spawned, cancelled,
    /// wasted_ms)`. With the conservation invariant clean,
    /// `spawned - cancelled` is exactly the number of completions a
    /// replica delivered, and `wasted_ms` sums the work the cancelled
    /// copies threw away.
    pub fn replica_totals(&self) -> (u64, u64, u64) {
        (self.replicas_spawned, self.replicas_cancelled, self.replica_wasted_ms)
    }

    fn report(&mut self, at: SimTime, kind: AuditViolationKind) {
        self.total += 1;
        if self.violations.len() < Self::MAX_RECORDED {
            self.violations.push(AuditViolation { at, kind });
        }
    }

    /// The one lookup every lifecycle event starts with: the job's row, or the
    /// report that it never arrived or is already terminal (the event drops).
    fn live(&mut self, ev: &TraceEvent, job: JobId) -> Option<&mut JobRow> {
        let kind = match self.fold.live(job) {
            Ok(row) => return Some(row),
            Err(Life::Done) => K::EventAfterTerminal { job, event: ev.kind.name() },
            Err(_) => K::EventBeforeArrival { job, event: ev.kind.name() },
        };
        // `report`, spelled out: the row's borrow of the fold reaches here.
        self.total += 1;
        if self.violations.len() < Self::MAX_RECORDED {
            self.violations.push(AuditViolation { at: ev.at, kind });
        }
        None
    }

    /// Reports the event as illegal in `phase` unless `legal`.
    fn judged(&mut self, ev: &TraceEvent, job: JobId, phase: &'static str, legal: bool) {
        if !legal {
            let event = ev.kind.name();
            self.report(ev.at, K::IllegalTransition { job, phase, event });
        }
    }

    /// Steps a job that is in the system through `rule`, reporting the step
    /// if the rule forbids it: whether the job held `node`, or `None` when
    /// the event was dropped.
    fn step(&mut self, ev: &TraceEvent, job: JobId, node: NodeId, rule: &Rule) -> Option<bool> {
        let row = self.live(ev, job)?;
        let (from, legal) = row.judge(ev.at, rule);
        let held = row.advance(ev.at, node, rule).held;
        self.judged(ev, job, from.name(), legal);
        Some(held)
    }

    /// [`step`](Self::step), for the events that end there.
    fn follow(&mut self, ev: &TraceEvent, job: JobId, node: NodeId, rule: &Rule) {
        self.step(ev, job, node, rule);
    }

    /// Admits `job` onto `station`, checking per-dimension capacity
    /// conservation against the residents already there. Whole-machine
    /// demands landing on an occupied station report the classic
    /// `DoubleOccupancy`; fractional overcommits report the offending
    /// dimension.
    fn admit(&mut self, at: SimTime, job: JobId, demand: ResourceVec, station: NodeId) {
        // A whole machine unless pinned.
        let capacity = self.capacities.get(station.as_usize()).copied().unwrap_or_default();
        let list = &mut self.fold.station(station).residents;
        let used = list.iter().fold(ResourceVec::ZERO, |acc, &(_, d)| acc.add(d));
        let first_resident = list.first().map(|&(j, _)| j);
        list.push((job, demand));
        let granted = used.add(demand);
        let over = [
            ("cpu", granted.cpu_milli, capacity.cpu_milli),
            ("mem", granted.mem_milli, capacity.mem_milli),
            ("tag", granted.tag_milli, capacity.tag_milli),
        ];
        let (incoming, over) = (job, over.into_iter().find(|&(_, granted, cap)| granted > cap));
        match (over, first_resident) {
            (None, _) => {}
            (Some(_), Some(resident)) if demand.is_whole() => {
                self.report(at, K::DoubleOccupancy { station, resident, incoming });
            }
            (Some((dimension, granted_milli, capacity_milli)), _) => self.report(
                at,
                K::CapacityExceeded { station, dimension, granted_milli, capacity_milli, incoming },
            ),
        }
    }

    /// Takes `job` off `station`'s resident list.
    fn vacate(&mut self, job: JobId, station: NodeId) {
        let list = &mut self.fold.station(station).residents;
        if let Some(p) = list.iter().position(|&(j, _)| j == job) {
            list.swap_remove(p);
        }
    }

    /// Settles a step that gave `station` back: off the resident list if the
    /// job held it, a wrong-station release if it did not.
    fn released(&mut self, ev: &TraceEvent, job: JobId, station: NodeId, held: bool) {
        if held {
            self.vacate(job, station);
        } else {
            let event = ev.kind.name();
            self.report(ev.at, K::WrongStationRelease { station, job, event });
        }
    }

    /// Frees every station the job held (completion or crash teardown).
    fn vacate_all(&mut self, job: JobId, held: Vec<(NodeId, SimTime)>) {
        for (station, _) in held {
            self.vacate(job, station);
        }
    }

    /// A job enters the system — alive on arrival, terminal when rejected at
    /// admission; either one for a job already known is a duplicate.
    fn enter(&mut self, at: SimTime, job: JobId, life: Life) {
        let row = self.fold.jobs.entry(job.0);
        if row.life != Life::Absent {
            return self.report(at, K::DuplicateArrival { job });
        }
        row.begin(at);
        row.life = life;
    }

    /// Throttle: fan-outs for *different* placements must sit at least one
    /// poll cadence apart. A fan-out from a chaos-delayed poll is off the
    /// grid by construction and is not remembered, so the next on-grid
    /// fan-out is measured against the previous on-grid one. In a merged
    /// multi-pool stream, same-instant fan-outs are distinct pools ticking
    /// the shared grid together — only that zero gap is exempt.
    fn throttle(&mut self, at: SimTime, job: JobId) {
        if self.delayed_poll_at == Some(at) {
            return;
        }
        if let (Some((prev, _)), Some(cadence)) = (self.last_placement, self.cadence) {
            let gap = at.since(prev);
            let cross_pool_tie = self.pools > 1 && gap.is_zero();
            if gap < cadence && !cross_pool_tie {
                self.report(at, K::PlacementThrottleBroken { gap, cadence });
            }
        }
        self.last_placement = Some((at, job));
    }

    /// One owner transition: two of the same in a row is a violation.
    fn owner(&mut self, at: SimTime, station: NodeId, active: bool) {
        if self.fold.station(station).owner_active.replace(active) == Some(active) {
            self.report(at, K::OwnerTransitionRepeated { station, active });
        }
    }

    /// Polls tick a fixed grid. A chaos-delayed poll is off the grid by
    /// construction; it neither gets the cadence check nor becomes the
    /// baseline the next on-grid poll is measured against.
    fn poll(&mut self, at: SimTime) {
        if self.delayed_poll_at == Some(at) {
            return;
        }
        if let Some(prev) = self.last_poll {
            let gap = at.since(prev);
            // Merged multi-pool streams tick one shared grid: same-instant
            // polls are distinct pools tying, which a single coordinator
            // can never legally produce. Only that zero gap is exempt;
            // nonzero gaps keep the check.
            if self.pools > 1 && gap.is_zero() {
                return;
            }
            match self.cadence {
                None => self.cadence = Some(gap),
                Some(cadence) if whole_multiple(gap, cadence) => {}
                // A shorter gap that evenly divides the inferred cadence
                // means the first gap we saw spanned coordinator downtime:
                // re-baseline rather than report.
                Some(cadence)
                    if !self.cadence_pinned && gap < cadence && whole_multiple(cadence, gap) =>
                {
                    self.cadence = Some(gap);
                }
                Some(cadence) => self.report(at, K::PollCadenceBroken { gap, cadence }),
            }
        }
        self.last_poll = Some(at);
    }
}

impl TraceSink for AuditSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let at = ev.at;
        match ev.kind {
            TraceKind::JobArrived { job } => self.enter(at, job, Life::Live),
            // Rejection replaces arrival; both for one job is illegal.
            TraceKind::JobRejected { job } => self.enter(at, job, Life::Done),
            TraceKind::JobGranted { job, cpu_milli, mem_milli, tag_milli, .. } => {
                // Announces the fractional demand of the placement that
                // follows at this same instant; the demand is fixed for
                // the job's life, so it persists across re-placements.
                if let Some(row) = self.live(ev, job) {
                    row.demand = ResourceVec { cpu_milli, mem_milli, tag_milli };
                    let (from, legal) = row.judge(at, &rules::GRANTED);
                    self.judged(ev, job, from.name(), legal);
                }
            }
            TraceKind::PlacementStarted { job, target } => {
                if let Some(row) = self.live(ev, job) {
                    let demand = row.demand;
                    let (from, legal) = row.judge(at, &rules::PLACED);
                    row.advance(at, target, &rules::PLACED);
                    if from == SpanPhase::Queued {
                        self.throttle(at, job);
                    }
                    self.judged(ev, job, from.name(), legal);
                    self.admit(at, job, demand, target);
                }
            }
            TraceKind::PlacementDiskRejected { job, target } => {
                self.follow(ev, job, target, &rules::DISK_REJECTED)
            }
            TraceKind::JobStarted { job, on } => self.follow(ev, job, on, &rules::STARTED),
            TraceKind::JobResumedInPlace { job, on } => self.follow(ev, job, on, &rules::RESUMED),
            TraceKind::JobSuspended { job, on } => self.follow(ev, job, on, &rules::SUSPENDED),
            TraceKind::PeriodicCheckpoint { job, on } => self.follow(ev, job, on, &rules::PERIODIC),
            // The retry keeps the transfer in flight: phase and
            // `ckpt_in_flight` are both unchanged.
            TraceKind::ChaosCkptCorrupted { job, from, .. } => {
                self.follow(ev, job, from, &rules::CKPT_CORRUPTED)
            }
            TraceKind::CheckpointStarted { job, from, .. } => {
                if let Some(row) = self.live(ev, job) {
                    row.ckpt_in_flight += 1;
                    self.follow(ev, job, from, &rules::CKPT_STARTED);
                }
            }
            TraceKind::CheckpointCompleted { job, from, .. } => {
                if let Some(row) = self.live(ev, job) {
                    // A gang is checkpointing until its last image lands.
                    let matched = row.ckpt_in_flight > 0;
                    row.ckpt_in_flight = row.ckpt_in_flight.saturating_sub(1);
                    let rule = match (matched, row.ckpt_in_flight) {
                        (true, 0) => &rules::CKPT_LANDED,
                        _ => &rules::CKPT_MEMBER_LANDED,
                    };
                    let held = row.advance(at, from, rule).held;
                    if !matched {
                        self.report(at, K::UnmatchedCheckpointCompletion { job, station: from });
                    }
                    self.released(ev, job, from, held);
                }
            }
            TraceKind::JobKilled { job, on } => {
                if let Some(held) = self.step(ev, job, on, &rules::KILLED) {
                    self.released(ev, job, on, held);
                }
            }
            TraceKind::JobCompleted { job, on } => {
                if let Some(row) = self.live(ev, job) {
                    // A completion delivered by a live replica on `on` is
                    // legal from *any* primary phase: the win tears the
                    // primary down wherever it was — queued, mid-transfer,
                    // suspended, even mid-checkpoint (that transfer will
                    // never complete, so its in-flight count is forgiven).
                    let replica_win = row.replicas.contains(&on);
                    if replica_win {
                        row.ckpt_in_flight = 0;
                    }
                    // Completion consumes at most the winning replica;
                    // rivals must have been cancelled beforehand.
                    let live = row.replicas.iter().filter(|&&n| n != on).count() as u32;
                    row.replicas.clear();
                    let (from, legal) = row.judge(at, &rules::COMPLETED);
                    let named = row.advance(at, on, &rules::COMPLETED).held;
                    let held = std::mem::take(&mut row.held);
                    self.judged(ev, job, from.name(), legal || replica_win);
                    if !named {
                        let (station, event) = (on, "job_completed");
                        self.report(at, K::WrongStationRelease { station, job, event });
                    }
                    self.vacate_all(job, held);
                    if live > 0 {
                        self.report(at, K::ReplicaLeaked { job, live });
                    }
                }
            }
            TraceKind::CrashRollback { job, on } => {
                if let Some(row) = self.live(ev, job) {
                    // The crash tears down any in-flight checkpoint
                    // transfer: the completion will never come.
                    row.ckpt_in_flight = 0;
                    row.advance(at, on, &rules::CRASHED);
                    let held = std::mem::take(&mut row.held);
                    self.vacate_all(job, held);
                }
            }
            TraceKind::OwnerActive { station } => self.owner(at, station, true),
            TraceKind::OwnerIdle { station } => self.owner(at, station, false),
            TraceKind::CoordinatorPolled { .. } => self.poll(at),
            TraceKind::ChaosPollDelayed { .. } => self.delayed_poll_at = Some(at),
            TraceKind::ChaosLocalStart { job, on } => {
                if let Some(row) = self.live(ev, job) {
                    let demand = row.demand;
                    self.follow(ev, job, on, &rules::LOCAL_START);
                    self.admit(at, job, demand, on);
                }
            }
            TraceKind::ChaosCoordDown => self.chaos_coord_depth += 1,
            TraceKind::ChaosCoordUp => match self.chaos_coord_depth.checked_sub(1) {
                Some(depth) => self.chaos_coord_depth = depth,
                None => self.report(at, K::UnmatchedChaosRecovery { event: "chaos_coord_up" }),
            },
            TraceKind::ChaosLinkDown { station } => self.fold.station(station).partitions += 1,
            TraceKind::ChaosLinkUp { station } => {
                let depth = &mut self.fold.station(station).partitions;
                match depth.checked_sub(1) {
                    Some(less) => *depth = less,
                    None => self.report(at, K::UnmatchedChaosRecovery { event: "chaos_link_up" }),
                }
            }
            TraceKind::JobForwarded { job, .. } => {
                // The job leaves this pool while still queued; it stays
                // tracked so a merged trace can follow it into adoption.
                if let Some(row) = self.live(ev, job) {
                    let (from, legal) = row.judge(at, &rules::FORWARDED);
                    self.judged(ev, job, from.name(), legal);
                }
            }
            TraceKind::JobAdopted { job, on: _ } => {
                // Adoption is the destination-pool arrival of a forwarded
                // job. In a merged trace the job is already tracked (it
                // was forwarded while queued); in a per-pool trace this is
                // its first appearance and plays the role of an arrival.
                let row = self.fold.jobs.entry(job.0);
                let (was, legal) = match row.life {
                    Life::Absent => return row.begin(at),
                    Life::Live => (row.phase.name(), row.phase == SpanPhase::Queued),
                    Life::Done => ("done", false),
                };
                (row.life, row.phase) = (Life::Live, SpanPhase::Queued);
                self.judged(ev, job, was, legal);
            }
            TraceKind::ReplicaSpawned { job, on } => {
                // Replicas are phase-independent of the primary (they
                // spawn alongside its placement and outlive its evictions)
                // but still occupy real capacity on their station.
                if let Some(row) = self.live(ev, job) {
                    let duplicate = row.replicas.contains(&on);
                    if !duplicate {
                        row.replicas.push(on);
                    }
                    row.held.push((on, at));
                    let demand = row.demand;
                    if duplicate {
                        self.report(at, K::DuplicateReplica { job, station: on });
                    }
                    self.replicas_spawned += 1;
                    self.admit(at, job, demand, on);
                }
            }
            TraceKind::ReplicaCancelled { job, on, wasted_ms } => {
                if let Some(row) = self.live(ev, job) {
                    let replica = row.replicas.iter().position(|&n| n == on);
                    if let Some(p) = replica {
                        row.replicas.swap_remove(p);
                    }
                    let held = row.held.iter().position(|&(n, _)| n == on);
                    if let Some(p) = held {
                        row.held.swap_remove(p);
                    }
                    if replica.is_none() {
                        self.report(at, K::UnmatchedReplicaCancel { job, station: on });
                    }
                    self.replicas_cancelled += 1;
                    self.replica_wasted_ms += wasted_ms;
                    self.released(ev, job, on, held.is_some());
                }
            }
            TraceKind::ChaosPollLost
            | TraceKind::ChaosDupDropped
            | TraceKind::StationFailed { .. }
            | TraceKind::StationRecovered { .. }
            | TraceKind::ReservationStarted { .. }
            | TraceKind::ReservationEnded { .. } => {}
        }
    }

    /// Every event counts towards [`events_seen`](AuditSink::events_seen),
    /// so every kind is asked for; the gauge samples are not.
    fn interest(&self) -> KindMask {
        KindMask::ALL.without_samples()
    }

    fn finish(&mut self, at: SimTime) {
        // Transfers still in flight at the horizon are legal only while
        // the job is mid-checkpoint; anything else lost a completion.
        // Then replica conservation: every spawned copy must have been
        // cancelled or consumed by its job's completion by the horizon
        // (the simulation cancels survivors in `finalize`). Both in job
        // order.
        let mut imbalanced = Vec::new();
        let mut leaked = Vec::new();
        for (id, row) in self.fold.jobs.iter_mut() {
            let mid_checkpoint = row.life == Life::Live && row.phase == SpanPhase::Checkpointing;
            if row.ckpt_in_flight > 0 && !mid_checkpoint {
                let (job, in_flight) = (JobId(id), row.ckpt_in_flight);
                imbalanced.push(K::CheckpointImbalance { job, in_flight });
            }
            if !row.replicas.is_empty() {
                let (job, live) = (JobId(id), row.replicas.len() as u32);
                leaked.push(K::ReplicaLeaked { job, live });
            }
        }
        for kind in imbalanced.into_iter().chain(leaked) {
            self.report(at, kind);
        }
    }
}
