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
//! [`AuditSink::MAX_RECORDED`] violations are kept verbatim; beyond that
//! only the count grows. Auditing state is O(active jobs + stations).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

use crate::job::JobId;
use crate::telemetry::TraceSink;
use crate::trace::{TraceEvent, TraceKind};

/// Phase a job occupies in the auditor's replica of the lifecycle machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Queued,
    Transfer,
    Running,
    Suspended,
    Checkpointing,
    /// Terminal: completed, or rejected at admission.
    Done,
}

impl JobPhase {
    fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Transfer => "transfer",
            JobPhase::Running => "running",
            JobPhase::Suspended => "suspended",
            JobPhase::Checkpointing => "checkpointing",
            JobPhase::Done => "done",
        }
    }
}

/// Auditor-side record for one job that has entered the system.
#[derive(Debug)]
struct JobAudit {
    phase: JobPhase,
    /// Checkpoint transfers in flight (started, not yet completed).
    ckpt_in_flight: u32,
    /// Instant of the gang fan-out currently in progress, if any: extra
    /// same-instant `PlacementStarted` / `CheckpointStarted` events for
    /// the same job are legal only at exactly this time.
    fanout_at: Option<SimTime>,
    /// Instant of the last `JobStarted`, pairing the two legal
    /// resume-event orders (start-then-marker and marker-then-start).
    started_at: Option<SimTime>,
    /// Instant of the last `JobResumedInPlace`.
    resumed_at: Option<SimTime>,
    /// Instant of the last `ChaosLocalStart` (an autonomous start while
    /// the coordinator is unreachable); the paired same-instant
    /// `JobStarted` is legal straight from `Queued`.
    local_start_at: Option<SimTime>,
    /// Resource demand, set by `JobGranted` ahead of a fractional
    /// placement; whole-machine jobs never emit the grant and stay here.
    demand: ResourceVec,
}

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
        use AuditViolationKind as K;
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

/// Returns whether `gap` is a positive whole multiple of `cadence`.
fn whole_multiple(gap: SimDuration, cadence: SimDuration) -> bool {
    !gap.is_zero() && !cadence.is_zero() && cadence * (gap / cadence) == gap
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
    jobs: HashMap<JobId, JobAudit>,
    /// The foreign jobs each station currently hosts, with their granted
    /// demand vectors (several residents are legal when every dimension
    /// stays within the station's capacity).
    residents: HashMap<NodeId, Vec<(JobId, ResourceVec)>>,
    /// Per-station capacity vectors, indexed by station id; stations past
    /// the end (or an empty vector) default to a whole machine.
    capacities: Vec<ResourceVec>,
    /// Reverse of `residents`: every station a job holds (k for gangs).
    held: HashMap<JobId, Vec<NodeId>>,
    /// Last owner transition per station (`true` = active).
    owner_active: HashMap<NodeId, bool>,
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
    /// Nesting depth of chaos partitions, per cut-off station.
    chaos_link_depth: HashMap<NodeId, u32>,
    /// Stations holding a live speculative replica of each job (see
    /// [`crate::redundancy`]); every entry must be closed by a
    /// `ReplicaCancelled` or consumed by the job's completion.
    live_replicas: HashMap<JobId, Vec<NodeId>>,
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
    pub const MAX_RECORDED: usize = 1024;

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

    /// The recorded violations, in observation order (first
    /// [`AuditSink::MAX_RECORDED`] only).
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

    /// Consumes the auditor, yielding the recorded violations.
    pub fn into_violations(self) -> Vec<AuditViolation> {
        self.violations
    }

    fn report(&mut self, at: SimTime, kind: AuditViolationKind) {
        self.total += 1;
        if self.violations.len() < Self::MAX_RECORDED {
            self.violations.push(AuditViolation { at, kind });
        }
    }

    /// Fetches the job record, reporting if the job never arrived or is
    /// already terminal. Returns `None` when the event must be dropped.
    fn job_for_event(&mut self, at: SimTime, job: JobId, event: &'static str) -> bool {
        match self.jobs.get(&job) {
            None => {
                self.report(at, AuditViolationKind::EventBeforeArrival { job, event });
                false
            }
            Some(a) if a.phase == JobPhase::Done => {
                self.report(at, AuditViolationKind::EventAfterTerminal { job, event });
                false
            }
            Some(_) => true,
        }
    }

    /// Copies out the phase and fan-out instant for a job known to exist.
    fn job_snapshot(&self, job: JobId) -> (JobPhase, Option<SimTime>) {
        let a = self.jobs.get(&job).expect("caller checked presence");
        (a.phase, a.fanout_at)
    }

    fn illegal(&mut self, at: SimTime, job: JobId, phase: JobPhase, event: &'static str) {
        self.report(
            at,
            AuditViolationKind::IllegalTransition { job, phase: phase.name(), event },
        );
    }

    /// The audited capacity of a station (whole machine unless pinned).
    fn capacity_of(&self, station: NodeId) -> ResourceVec {
        self.capacities
            .get(station.as_usize())
            .copied()
            .unwrap_or(ResourceVec::WHOLE)
    }

    /// Admits `job` onto `station`, checking per-dimension capacity
    /// conservation against the residents already there. Whole-machine
    /// demands landing on an occupied station report the classic
    /// `DoubleOccupancy`; fractional overcommits report the offending
    /// dimension.
    fn admit(&mut self, at: SimTime, job: JobId, station: NodeId) {
        let demand = self.jobs.get(&job).map_or(ResourceVec::WHOLE, |a| a.demand);
        let capacity = self.capacity_of(station);
        let list = self.residents.entry(station).or_default();
        let used = list
            .iter()
            .fold(ResourceVec::ZERO, |acc, &(_, d)| acc.add(d));
        let first_resident = list.first().map(|&(j, _)| j);
        list.push((job, demand));
        self.held.entry(job).or_default().push(station);
        let granted = used.add(demand);
        if granted.fits(capacity) {
            return;
        }
        if let (true, Some(resident)) = (demand.is_whole(), first_resident) {
            self.report(
                at,
                AuditViolationKind::DoubleOccupancy { station, resident, incoming: job },
            );
            return;
        }
        let over = [
            ("cpu", granted.cpu_milli, capacity.cpu_milli),
            ("mem", granted.mem_milli, capacity.mem_milli),
            ("tag", granted.tag_milli, capacity.tag_milli),
        ];
        for (dimension, granted_milli, capacity_milli) in over {
            if granted_milli > capacity_milli {
                self.report(
                    at,
                    AuditViolationKind::CapacityExceeded {
                        station,
                        dimension,
                        granted_milli,
                        capacity_milli,
                        incoming: job,
                    },
                );
                return;
            }
        }
    }

    /// Removes one station from the job's holdings, reporting a
    /// wrong-station release if it was not held.
    fn release(&mut self, at: SimTime, job: JobId, station: NodeId, event: &'static str) {
        let held = self.held.entry(job).or_default();
        if let Some(pos) = held.iter().position(|&n| n == station) {
            held.swap_remove(pos);
            if let Some(list) = self.residents.get_mut(&station) {
                if let Some(p) = list.iter().position(|&(j, _)| j == job) {
                    list.swap_remove(p);
                }
            }
        } else {
            self.report(at, AuditViolationKind::WrongStationRelease { station, job, event });
        }
    }

    /// Frees every station the job holds (completion or crash teardown).
    fn release_all(&mut self, job: JobId) {
        for station in self.held.remove(&job).unwrap_or_default() {
            if let Some(list) = self.residents.get_mut(&station) {
                if let Some(p) = list.iter().position(|&(j, _)| j == job) {
                    list.swap_remove(p);
                }
            }
        }
    }
}

impl TraceSink for AuditSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let at = ev.at;
        match ev.kind {
            TraceKind::JobArrived { job } => {
                let duplicate = match self.jobs.entry(job) {
                    Entry::Occupied(_) => true,
                    Entry::Vacant(slot) => {
                        slot.insert(JobAudit {
                            phase: JobPhase::Queued,
                            ckpt_in_flight: 0,
                            fanout_at: None,
                            started_at: None,
                            resumed_at: None,
                            local_start_at: None,
                            demand: ResourceVec::WHOLE,
                        });
                        false
                    }
                };
                if duplicate {
                    self.report(at, AuditViolationKind::DuplicateArrival { job });
                }
            }
            TraceKind::JobRejected { job } => {
                // Rejection replaces arrival; both for one job is illegal.
                let duplicate = match self.jobs.entry(job) {
                    Entry::Occupied(_) => true,
                    Entry::Vacant(slot) => {
                        slot.insert(JobAudit {
                            phase: JobPhase::Done,
                            ckpt_in_flight: 0,
                            fanout_at: None,
                            started_at: None,
                            resumed_at: None,
                            local_start_at: None,
                            demand: ResourceVec::WHOLE,
                        });
                        false
                    }
                };
                if duplicate {
                    self.report(at, AuditViolationKind::DuplicateArrival { job });
                }
            }
            TraceKind::JobGranted { job, cpu_milli, mem_milli, tag_milli, .. } => {
                // Announces the fractional demand of the placement that
                // follows at this same instant; the demand is fixed for
                // the job's life, so it persists across re-placements.
                if self.job_for_event(at, job, "job_granted") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    let phase = a.phase;
                    a.demand = ResourceVec { cpu_milli, mem_milli, tag_milli };
                    if phase != JobPhase::Queued {
                        self.illegal(at, job, phase, "job_granted");
                    }
                }
            }
            TraceKind::PlacementStarted { job, target } => {
                if self.job_for_event(at, job, "placement_started") {
                    let (phase, fanout_at) = self.job_snapshot(job);
                    match phase {
                        JobPhase::Queued => {
                            // Throttle: fan-outs for *different* placements
                            // must sit at least one poll cadence apart. A
                            // fan-out from a chaos-delayed poll is off the
                            // grid by construction and is not remembered,
                            // so the next on-grid fan-out is measured
                            // against the previous on-grid one. In a merged
                            // multi-pool stream, same-instant fan-outs are
                            // distinct pools ticking the shared grid
                            // together — only that zero gap is exempt.
                            if self.delayed_poll_at != Some(at) {
                                if let (Some((prev, _)), Some(cadence)) =
                                    (self.last_placement, self.cadence)
                                {
                                    let gap = at.since(prev);
                                    let cross_pool_tie = self.pools > 1 && gap.is_zero();
                                    if gap < cadence && !cross_pool_tie {
                                        self.report(
                                            at,
                                            AuditViolationKind::PlacementThrottleBroken {
                                                gap,
                                                cadence,
                                            },
                                        );
                                    }
                                }
                                self.last_placement = Some((at, job));
                            }
                            let a = self.jobs.get_mut(&job).expect("checked");
                            a.phase = JobPhase::Transfer;
                            a.fanout_at = Some(at);
                        }
                        // Gang fan-out: extra members at the same instant.
                        JobPhase::Transfer if fanout_at == Some(at) => {}
                        phase => {
                            // Report, then follow the event anyway so one
                            // corruption does not cascade into noise.
                            self.illegal(at, job, phase, "placement_started");
                            let a = self.jobs.get_mut(&job).expect("checked");
                            a.phase = JobPhase::Transfer;
                            a.fanout_at = Some(at);
                        }
                    }
                    self.admit(at, job, target);
                }
            }
            TraceKind::PlacementDiskRejected { job, .. } => {
                if self.job_for_event(at, job, "placement_disk_rejected") {
                    let (phase, _) = self.job_snapshot(job);
                    if phase != JobPhase::Queued {
                        self.illegal(at, job, phase, "placement_disk_rejected");
                    }
                }
            }
            TraceKind::JobStarted { job, on: _ } => {
                if self.job_for_event(at, job, "job_started") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    let (phase, resumed_at, local_start_at) =
                        (a.phase, a.resumed_at, a.local_start_at);
                    a.started_at = Some(at);
                    a.phase = JobPhase::Running;
                    // Legal from a landed transfer or a suspension; also as
                    // the restart notification paired with a same-instant
                    // resume marker (the gang event order), or straight
                    // from the queue when paired with a same-instant
                    // autonomous chaos start.
                    let legal = matches!(phase, JobPhase::Transfer | JobPhase::Suspended)
                        || (phase == JobPhase::Running && resumed_at == Some(at))
                        || (phase == JobPhase::Queued && local_start_at == Some(at));
                    if !legal {
                        self.illegal(at, job, phase, "job_started");
                    }
                }
            }
            TraceKind::JobResumedInPlace { job, on: _ } => {
                if self.job_for_event(at, job, "job_resumed_in_place") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    let (phase, started_at) = (a.phase, a.started_at);
                    a.resumed_at = Some(at);
                    a.phase = JobPhase::Running;
                    // Legal from a suspension; also as the marker paired
                    // with a same-instant restart (single-job event order).
                    let legal = phase == JobPhase::Suspended
                        || (phase == JobPhase::Running && started_at == Some(at));
                    if !legal {
                        self.illegal(at, job, phase, "job_resumed_in_place");
                    }
                }
            }
            TraceKind::JobSuspended { job, on: _ } => {
                if self.job_for_event(at, job, "job_suspended") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    let phase = a.phase;
                    a.phase = JobPhase::Suspended;
                    // Transfer → Suspended is legal: the owner was already
                    // active when the placement image landed.
                    if !matches!(phase, JobPhase::Running | JobPhase::Transfer) {
                        self.illegal(at, job, phase, "job_suspended");
                    }
                }
            }
            TraceKind::CheckpointStarted { job, .. } => {
                if self.job_for_event(at, job, "checkpoint_started") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    let (phase, fanout_at) = (a.phase, a.fanout_at);
                    a.ckpt_in_flight += 1;
                    a.phase = JobPhase::Checkpointing;
                    // Gang checkpoint-out repeats at the same instant.
                    let gang_member = phase == JobPhase::Checkpointing && fanout_at == Some(at);
                    if !gang_member {
                        a.fanout_at = Some(at);
                    }
                    let legal =
                        matches!(phase, JobPhase::Running | JobPhase::Suspended) || gang_member;
                    if !legal {
                        self.illegal(at, job, phase, "checkpoint_started");
                    }
                }
            }
            TraceKind::CheckpointCompleted { job, from, .. } => {
                if self.job_for_event(at, job, "checkpoint_completed") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    if a.ckpt_in_flight == 0 {
                        self.report(
                            at,
                            AuditViolationKind::UnmatchedCheckpointCompletion {
                                job,
                                station: from,
                            },
                        );
                    } else {
                        a.ckpt_in_flight -= 1;
                        if a.ckpt_in_flight == 0 {
                            a.phase = JobPhase::Queued;
                        }
                    }
                    self.release(at, job, from, "checkpoint_completed");
                }
            }
            TraceKind::JobKilled { job, on } => {
                if self.job_for_event(at, job, "job_killed") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    let phase = a.phase;
                    a.phase = JobPhase::Queued;
                    if !matches!(
                        phase,
                        JobPhase::Transfer | JobPhase::Running | JobPhase::Suspended
                    ) {
                        self.illegal(at, job, phase, "job_killed");
                    }
                    self.release(at, job, on, "job_killed");
                }
            }
            TraceKind::PeriodicCheckpoint { job, on: _ } => {
                if self.job_for_event(at, job, "periodic_checkpoint") {
                    let (phase, _) = self.job_snapshot(job);
                    if phase != JobPhase::Running {
                        self.illegal(at, job, phase, "periodic_checkpoint");
                    }
                }
            }
            TraceKind::JobCompleted { job, on } => {
                if self.job_for_event(at, job, "job_completed") {
                    // A completion delivered by a live replica on `on` is
                    // legal from *any* primary phase: the win tears the
                    // primary down wherever it was — queued, mid-transfer,
                    // suspended, even mid-checkpoint (that transfer will
                    // never complete, so its in-flight count is forgiven).
                    let replica_win = self
                        .live_replicas
                        .get(&job)
                        .is_some_and(|stations| stations.contains(&on));
                    let (phase, _) = self.job_snapshot(job);
                    if phase != JobPhase::Running && !replica_win {
                        self.illegal(at, job, phase, "job_completed");
                    }
                    {
                        let a = self.jobs.get_mut(&job).expect("checked");
                        a.phase = JobPhase::Done;
                        if replica_win {
                            a.ckpt_in_flight = 0;
                        }
                    }
                    if !self.held.get(&job).is_some_and(|h| h.contains(&on)) {
                        self.report(
                            at,
                            AuditViolationKind::WrongStationRelease {
                                station: on,
                                job,
                                event: "job_completed",
                            },
                        );
                    }
                    self.release_all(job);
                    // Completion consumes at most the winning replica;
                    // rivals must have been cancelled beforehand.
                    if let Some(mut stations) = self.live_replicas.remove(&job) {
                        stations.retain(|&n| n != on);
                        if !stations.is_empty() {
                            self.report(
                                at,
                                AuditViolationKind::ReplicaLeaked {
                                    job,
                                    live: stations.len() as u32,
                                },
                            );
                        }
                    }
                }
            }
            TraceKind::CrashRollback { job, on: _ } => {
                if self.job_for_event(at, job, "crash_rollback") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    a.phase = JobPhase::Queued;
                    // The crash tears down any in-flight checkpoint
                    // transfer: the completion will never come.
                    a.ckpt_in_flight = 0;
                    self.release_all(job);
                }
            }
            TraceKind::OwnerActive { station } => {
                if self.owner_active.insert(station, true) == Some(true) {
                    self.report(
                        at,
                        AuditViolationKind::OwnerTransitionRepeated { station, active: true },
                    );
                }
            }
            TraceKind::OwnerIdle { station } => {
                if self.owner_active.insert(station, false) == Some(false) {
                    self.report(
                        at,
                        AuditViolationKind::OwnerTransitionRepeated { station, active: false },
                    );
                }
            }
            TraceKind::CoordinatorPolled { .. } => {
                // A chaos-delayed poll is off the grid by construction; it
                // neither gets the cadence check nor becomes the baseline
                // the next on-grid poll is measured against.
                if self.delayed_poll_at == Some(at) {
                    return;
                }
                if let Some(prev) = self.last_poll {
                    let gap = at.since(prev);
                    // Merged multi-pool streams tick one shared grid:
                    // same-instant polls are distinct pools tying, which a
                    // single coordinator can never legally produce. Only
                    // that zero gap is exempt; nonzero gaps keep the check.
                    if self.pools > 1 && gap.is_zero() {
                        return;
                    }
                    match self.cadence {
                        None => self.cadence = Some(gap),
                        Some(cadence) => {
                            if !whole_multiple(gap, cadence) {
                                // A shorter gap that evenly divides the
                                // inferred cadence means the first gap we
                                // saw spanned coordinator downtime:
                                // re-baseline rather than report.
                                if !self.cadence_pinned
                                    && gap < cadence
                                    && whole_multiple(cadence, gap)
                                {
                                    self.cadence = Some(gap);
                                } else {
                                    self.report(
                                        at,
                                        AuditViolationKind::PollCadenceBroken { gap, cadence },
                                    );
                                }
                            }
                        }
                    }
                }
                self.last_poll = Some(at);
            }
            TraceKind::ChaosPollDelayed { .. } => {
                self.delayed_poll_at = Some(at);
            }
            TraceKind::ChaosLocalStart { job, on } => {
                if self.job_for_event(at, job, "chaos_local_start") {
                    let a = self.jobs.get_mut(&job).expect("checked");
                    let phase = a.phase;
                    a.local_start_at = Some(at);
                    if phase != JobPhase::Queued {
                        self.illegal(at, job, phase, "chaos_local_start");
                    }
                    self.admit(at, job, on);
                }
            }
            TraceKind::ChaosCkptCorrupted { job, .. } => {
                if self.job_for_event(at, job, "chaos_ckpt_corrupted") {
                    // The retry keeps the transfer in flight: phase and
                    // `ckpt_in_flight` are both unchanged.
                    let (phase, _) = self.job_snapshot(job);
                    if phase != JobPhase::Checkpointing {
                        self.illegal(at, job, phase, "chaos_ckpt_corrupted");
                    }
                }
            }
            TraceKind::ChaosCoordDown => self.chaos_coord_depth += 1,
            TraceKind::ChaosCoordUp => {
                if self.chaos_coord_depth == 0 {
                    self.report(
                        at,
                        AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_coord_up" },
                    );
                } else {
                    self.chaos_coord_depth -= 1;
                }
            }
            TraceKind::ChaosLinkDown { station } => {
                *self.chaos_link_depth.entry(station).or_insert(0) += 1;
            }
            TraceKind::ChaosLinkUp { station } => match self.chaos_link_depth.get_mut(&station) {
                Some(depth) if *depth > 0 => *depth -= 1,
                _ => self.report(
                    at,
                    AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_link_up" },
                ),
            },
            TraceKind::JobForwarded { job, .. } => {
                // The job leaves this pool while still queued; it stays
                // tracked so a merged trace can follow it into adoption.
                if self.job_for_event(at, job, "job_forwarded") {
                    let (phase, _) = self.job_snapshot(job);
                    if phase != JobPhase::Queued {
                        self.illegal(at, job, phase, "job_forwarded");
                    }
                }
            }
            TraceKind::JobAdopted { job, on: _ } => {
                // Adoption is the destination-pool arrival of a forwarded
                // job. In a merged trace the job is already tracked (it
                // was forwarded while queued); in a per-pool trace this is
                // its first appearance and plays the role of an arrival.
                match self.jobs.entry(job) {
                    Entry::Occupied(mut slot) => {
                        let phase = slot.get().phase;
                        slot.get_mut().phase = JobPhase::Queued;
                        if phase != JobPhase::Queued {
                            self.illegal(at, job, phase, "job_adopted");
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(JobAudit {
                            phase: JobPhase::Queued,
                            ckpt_in_flight: 0,
                            fanout_at: None,
                            started_at: None,
                            resumed_at: None,
                            local_start_at: None,
                            demand: ResourceVec::WHOLE,
                        });
                    }
                }
            }
            TraceKind::ReplicaSpawned { job, on } => {
                // Replicas are phase-independent of the primary (they
                // spawn alongside its placement and outlive its evictions)
                // but still occupy real capacity on their station.
                if self.job_for_event(at, job, "replica_spawned") {
                    let list = self.live_replicas.entry(job).or_default();
                    if list.contains(&on) {
                        self.report(
                            at,
                            AuditViolationKind::DuplicateReplica { job, station: on },
                        );
                    } else {
                        list.push(on);
                    }
                    self.replicas_spawned += 1;
                    self.admit(at, job, on);
                }
            }
            TraceKind::ReplicaCancelled { job, on, wasted_ms } => {
                if self.job_for_event(at, job, "replica_cancelled") {
                    let matched = self
                        .live_replicas
                        .get_mut(&job)
                        .and_then(|list| {
                            list.iter().position(|&n| n == on).map(|p| {
                                list.swap_remove(p);
                            })
                        })
                        .is_some();
                    if !matched {
                        self.report(
                            at,
                            AuditViolationKind::UnmatchedReplicaCancel { job, station: on },
                        );
                    }
                    self.replicas_cancelled += 1;
                    self.replica_wasted_ms += wasted_ms;
                    self.release(at, job, on, "replica_cancelled");
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

    fn finish(&mut self, at: SimTime) {
        // Transfers still in flight at the horizon are legal only while
        // the job is mid-checkpoint; anything else lost a completion.
        let mut imbalanced: Vec<(JobId, u32)> = self
            .jobs
            .iter()
            .filter(|(_, a)| a.ckpt_in_flight > 0 && a.phase != JobPhase::Checkpointing)
            .map(|(&job, a)| (job, a.ckpt_in_flight))
            .collect();
        imbalanced.sort_unstable_by_key(|&(job, _)| job);
        for (job, in_flight) in imbalanced {
            self.report(at, AuditViolationKind::CheckpointImbalance { job, in_flight });
        }
        // Replica conservation: every spawned copy must have been
        // cancelled or consumed by its job's completion by the horizon
        // (the simulation cancels survivors in `finalize`).
        let mut leaked: Vec<(JobId, u32)> = self
            .live_replicas
            .iter()
            .filter(|(_, stations)| !stations.is_empty())
            .map(|(&job, stations)| (job, stations.len() as u32))
            .collect();
        leaked.sort_unstable_by_key(|&(job, _)| job);
        for (job, live) in leaked {
            self.report(at, AuditViolationKind::ReplicaLeaked { job, live });
        }
    }
}
