//! The cluster's event trace: a replayable record of everything observable.
//!
//! Experiments and the metrics crate consume this trace instead of poking
//! at simulator internals; integration tests assert protocol invariants
//! over it (e.g. *every placement is eventually matched by a checkpoint,
//! kill, or completion*).

use condor_net::NodeId;
use condor_sim::time::SimTime;

use crate::job::{JobId, PreemptReason};

/// One observable event in a cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A job entered its home station's queue.
    JobArrived {
        /// The job.
        job: JobId,
    },
    /// A job was rejected at submission (home disk full).
    JobRejected {
        /// The job.
        job: JobId,
    },
    /// The coordinator granted a machine and the image transfer began.
    PlacementStarted {
        /// The job.
        job: JobId,
        /// Destination machine.
        target: NodeId,
    },
    /// A granted placement was abandoned because the target's disk was
    /// full (paper §4).
    PlacementDiskRejected {
        /// The job.
        job: JobId,
        /// The machine that could not take the image.
        target: NodeId,
    },
    /// The image arrived and the job started (or resumed) executing.
    JobStarted {
        /// The job.
        job: JobId,
        /// Hosting machine.
        on: NodeId,
    },
    /// The owner returned; the job was stopped in place pending the grace
    /// period.
    JobSuspended {
        /// The job.
        job: JobId,
        /// Hosting machine.
        on: NodeId,
    },
    /// The owner left again within the grace period; the job resumed where
    /// it was.
    JobResumedInPlace {
        /// The job.
        job: JobId,
        /// Hosting machine.
        on: NodeId,
    },
    /// A checkpoint transfer back to the home station began.
    CheckpointStarted {
        /// The job.
        job: JobId,
        /// Machine being vacated.
        from: NodeId,
        /// Why the job is leaving.
        reason: PreemptReason,
        /// Size of the checkpoint image on the wire.
        bytes: u64,
    },
    /// The checkpoint landed at home; the job is queued again.
    CheckpointCompleted {
        /// The job.
        job: JobId,
        /// Machine vacated.
        from: NodeId,
        /// Size of the checkpoint image that just landed — mirrored from
        /// the matching [`TraceKind::CheckpointStarted`] so transfer
        /// accounting reads one event instead of joining start/complete
        /// pairs.
        bytes: u64,
    },
    /// The job was killed without an outgoing checkpoint (immediate-kill
    /// strategy); work since the last periodic checkpoint was lost.
    JobKilled {
        /// The job.
        job: JobId,
        /// Machine it was killed on.
        on: NodeId,
    },
    /// A periodic (while-running) checkpoint completed.
    PeriodicCheckpoint {
        /// The job.
        job: JobId,
        /// Hosting machine.
        on: NodeId,
    },
    /// All demand delivered.
    JobCompleted {
        /// The job.
        job: JobId,
        /// Machine it finished on.
        on: NodeId,
    },
    /// A workstation owner started using their machine.
    OwnerActive {
        /// The station.
        station: NodeId,
    },
    /// A workstation owner went idle.
    OwnerIdle {
        /// The station.
        station: NodeId,
    },
    /// A workstation crashed; any foreign image on it is lost.
    StationFailed {
        /// The station.
        station: NodeId,
    },
    /// A crashed workstation came back.
    StationRecovered {
        /// The station.
        station: NodeId,
    },
    /// A foreign job's progress was rolled back to its last checkpoint
    /// because its host crashed.
    CrashRollback {
        /// The job.
        job: JobId,
        /// The crashed host.
        on: NodeId,
    },
    /// A capacity reservation window opened; fenced machines now serve
    /// only the holder.
    ReservationStarted {
        /// Beneficiary station.
        holder: NodeId,
        /// Machines fenced.
        machines: u32,
    },
    /// A reservation window closed; its machines rejoin the general pool.
    ReservationEnded {
        /// Beneficiary station.
        holder: NodeId,
    },
    /// One coordinator poll cycle ran.
    CoordinatorPolled {
        /// Machines currently able to host.
        free_machines: u32,
        /// Jobs waiting across all queues.
        waiting_jobs: u32,
        /// Placement orders issued this cycle.
        placements: u32,
        /// Preemption orders issued this cycle.
        preemptions: u32,
    },
    /// Fault injection: a scheduled coordinator poll message was lost on
    /// the control plane; the cycle is skipped entirely.
    ChaosPollLost,
    /// Fault injection: a coordinator poll message was delayed; the poll
    /// body runs off-grid at the emission time of this marker.
    ChaosPollDelayed {
        /// How late the poll ran, in milliseconds.
        delay_ms: u64,
    },
    /// Fault injection: a duplicated control message arrived and was
    /// recognised by its sequence number and discarded — no state change.
    ChaosDupDropped,
    /// Fault injection: a checkpoint transfer arrived corrupted; the image
    /// is discarded and the transfer retried with capped backoff.
    ChaosCkptCorrupted {
        /// The job whose checkpoint was corrupted.
        job: JobId,
        /// The station the transfer left from.
        from: NodeId,
        /// Retry attempt number (1 = first corruption of this transfer).
        attempt: u32,
    },
    /// Fault injection: a station lost its link to the coordinator
    /// (transient partition); it keeps its local scheduler running.
    ChaosLinkDown {
        /// The partitioned station.
        station: NodeId,
    },
    /// Fault injection: a partitioned station's link healed.
    ChaosLinkUp {
        /// The reconnected station.
        station: NodeId,
    },
    /// Fault injection: the coordinator process went down; polls are
    /// skipped until recovery, local schedulers run autonomously.
    ChaosCoordDown,
    /// Fault injection: the coordinator recovered; polling resumes on the
    /// next grid point.
    ChaosCoordUp,
    /// A local scheduler autonomously started a home-queued job on its own
    /// idle machine while the coordinator was unreachable (the paper's
    /// hybrid-structure degradation story: stations never depend on the
    /// central coordinator to use their own capacity).
    ChaosLocalStart {
        /// The job started locally.
        job: JobId,
        /// The home station it started on.
        on: NodeId,
    },
    /// A saturated pool handed a queued job to an idle pool at a
    /// synchronisation barrier (sharded runs only); the job travels the
    /// inter-pool link and is adopted on arrival.
    JobForwarded {
        /// The job handed over.
        job: JobId,
        /// The receiving pool's index.
        to_pool: u32,
    },
    /// A forwarded job arrived at its new pool and entered a local queue
    /// there (the cross-pool counterpart of [`TraceKind::JobArrived`]).
    JobAdopted {
        /// The job.
        job: JobId,
        /// The adopting home station.
        on: NodeId,
    },
    /// A *fractional* capacity grant: the coordinator granted the job a
    /// sub-whole share of a station, emitted immediately before the
    /// matching [`TraceKind::PlacementStarted`]. Whole-machine placements
    /// (the legacy default) never emit this, keeping default traces
    /// bit-identical to the single-occupancy model.
    JobGranted {
        /// The job.
        job: JobId,
        /// The granted station.
        on: NodeId,
        /// Granted CPU share in milli-machines.
        cpu_milli: u32,
        /// Granted memory share in milli-machines.
        mem_milli: u32,
        /// Granted tag/accelerator share in milli-units.
        tag_milli: u32,
    },
    /// A speculative replica of a queued job started placement on an
    /// otherwise-idle station (see [`crate::redundancy`]). The job's own
    /// lifecycle events keep tracking the primary copy; replicas announce
    /// themselves only through this pair of events.
    ReplicaSpawned {
        /// The replicated job.
        job: JobId,
        /// The station hosting the replica.
        on: NodeId,
    },
    /// A replica was cancelled — by the primary finishing first, another
    /// replica winning, the host's owner returning, a station crash, a
    /// reservation fence, or the end of the run. Every
    /// [`TraceKind::ReplicaSpawned`] is matched by exactly one
    /// `ReplicaCancelled` or one job completion on the replica's station.
    ReplicaCancelled {
        /// The replicated job.
        job: JobId,
        /// The station that hosted the replica.
        on: NodeId,
        /// Reference-machine work the replica had accrued, in
        /// milliseconds — the cancellation's contribution to
        /// [`Totals::wasted_replica_work`](crate::cluster::Totals::wasted_replica_work).
        wasted_ms: u64,
    },
}

impl TraceKind {
    /// Number of distinct trace-event kinds.
    pub const COUNT: usize = 34;

    /// Dense index of this kind in `0..COUNT`; stable across a release,
    /// used by the telemetry layer for per-kind counter arrays.
    pub fn index(&self) -> usize {
        match self {
            TraceKind::JobArrived { .. } => 0,
            TraceKind::JobRejected { .. } => 1,
            TraceKind::PlacementStarted { .. } => 2,
            TraceKind::PlacementDiskRejected { .. } => 3,
            TraceKind::JobStarted { .. } => 4,
            TraceKind::JobSuspended { .. } => 5,
            TraceKind::JobResumedInPlace { .. } => 6,
            TraceKind::CheckpointStarted { .. } => 7,
            TraceKind::CheckpointCompleted { .. } => 8,
            TraceKind::JobKilled { .. } => 9,
            TraceKind::PeriodicCheckpoint { .. } => 10,
            TraceKind::JobCompleted { .. } => 11,
            TraceKind::OwnerActive { .. } => 12,
            TraceKind::OwnerIdle { .. } => 13,
            TraceKind::StationFailed { .. } => 14,
            TraceKind::StationRecovered { .. } => 15,
            TraceKind::CrashRollback { .. } => 16,
            TraceKind::ReservationStarted { .. } => 17,
            TraceKind::ReservationEnded { .. } => 18,
            TraceKind::CoordinatorPolled { .. } => 19,
            TraceKind::ChaosPollLost => 20,
            TraceKind::ChaosPollDelayed { .. } => 21,
            TraceKind::ChaosDupDropped => 22,
            TraceKind::ChaosCkptCorrupted { .. } => 23,
            TraceKind::ChaosLinkDown { .. } => 24,
            TraceKind::ChaosLinkUp { .. } => 25,
            TraceKind::ChaosCoordDown => 26,
            TraceKind::ChaosCoordUp => 27,
            TraceKind::ChaosLocalStart { .. } => 28,
            TraceKind::JobForwarded { .. } => 29,
            TraceKind::JobAdopted { .. } => 30,
            TraceKind::JobGranted { .. } => 31,
            TraceKind::ReplicaSpawned { .. } => 32,
            TraceKind::ReplicaCancelled { .. } => 33,
        }
    }

    /// Stable snake_case name of this kind; doubles as the `"kind"` token
    /// in the JSONL trace format.
    pub fn name(&self) -> &'static str {
        KIND_NAMES[self.index()]
    }

    /// The name for each dense index, in [`TraceKind::index`] order.
    pub fn names() -> &'static [&'static str; TraceKind::COUNT] {
        &KIND_NAMES
    }

    /// The dense index for a snake_case kind name, or `None` if the name
    /// is not a known kind. Inverse of [`TraceKind::name`]; used by the
    /// CLI's `--kind` trace filter.
    pub fn index_of_name(name: &str) -> Option<usize> {
        KIND_NAMES.iter().position(|&n| n == name)
    }

    /// The job this event concerns, if it is a job-lifecycle event.
    /// Owner, station, reservation, and poll events return `None`.
    pub fn job(&self) -> Option<JobId> {
        match self {
            TraceKind::JobArrived { job }
            | TraceKind::JobRejected { job }
            | TraceKind::PlacementStarted { job, .. }
            | TraceKind::PlacementDiskRejected { job, .. }
            | TraceKind::JobStarted { job, .. }
            | TraceKind::JobSuspended { job, .. }
            | TraceKind::JobResumedInPlace { job, .. }
            | TraceKind::CheckpointStarted { job, .. }
            | TraceKind::CheckpointCompleted { job, .. }
            | TraceKind::JobKilled { job, .. }
            | TraceKind::PeriodicCheckpoint { job, .. }
            | TraceKind::JobCompleted { job, .. }
            | TraceKind::CrashRollback { job, .. }
            | TraceKind::ChaosCkptCorrupted { job, .. }
            | TraceKind::ChaosLocalStart { job, .. }
            | TraceKind::JobForwarded { job, .. }
            | TraceKind::JobAdopted { job, .. }
            | TraceKind::JobGranted { job, .. }
            | TraceKind::ReplicaSpawned { job, .. }
            | TraceKind::ReplicaCancelled { job, .. } => Some(*job),
            TraceKind::OwnerActive { .. }
            | TraceKind::OwnerIdle { .. }
            | TraceKind::StationFailed { .. }
            | TraceKind::StationRecovered { .. }
            | TraceKind::ReservationStarted { .. }
            | TraceKind::ReservationEnded { .. }
            | TraceKind::CoordinatorPolled { .. }
            | TraceKind::ChaosPollLost
            | TraceKind::ChaosPollDelayed { .. }
            | TraceKind::ChaosDupDropped
            | TraceKind::ChaosLinkDown { .. }
            | TraceKind::ChaosLinkUp { .. }
            | TraceKind::ChaosCoordDown
            | TraceKind::ChaosCoordUp => None,
        }
    }

    /// Rewrites every job id through `job` and every station id through
    /// `node`, returning the remapped kind. Used by the sharded runner's
    /// deterministic merge to translate a pool's local numbering back into
    /// the fleet-global one; kinds without ids pass through unchanged.
    pub(crate) fn remapped(
        self,
        job: &impl Fn(JobId) -> JobId,
        node: &impl Fn(NodeId) -> NodeId,
    ) -> TraceKind {
        use TraceKind::*;
        match self {
            JobArrived { job: j } => JobArrived { job: job(j) },
            JobRejected { job: j } => JobRejected { job: job(j) },
            PlacementStarted { job: j, target } => {
                PlacementStarted { job: job(j), target: node(target) }
            }
            PlacementDiskRejected { job: j, target } => {
                PlacementDiskRejected { job: job(j), target: node(target) }
            }
            JobStarted { job: j, on } => JobStarted { job: job(j), on: node(on) },
            JobSuspended { job: j, on } => JobSuspended { job: job(j), on: node(on) },
            JobResumedInPlace { job: j, on } => JobResumedInPlace { job: job(j), on: node(on) },
            CheckpointStarted { job: j, from, reason, bytes } => {
                CheckpointStarted { job: job(j), from: node(from), reason, bytes }
            }
            CheckpointCompleted { job: j, from, bytes } => {
                CheckpointCompleted { job: job(j), from: node(from), bytes }
            }
            JobKilled { job: j, on } => JobKilled { job: job(j), on: node(on) },
            PeriodicCheckpoint { job: j, on } => PeriodicCheckpoint { job: job(j), on: node(on) },
            JobCompleted { job: j, on } => JobCompleted { job: job(j), on: node(on) },
            OwnerActive { station } => OwnerActive { station: node(station) },
            OwnerIdle { station } => OwnerIdle { station: node(station) },
            StationFailed { station } => StationFailed { station: node(station) },
            StationRecovered { station } => StationRecovered { station: node(station) },
            CrashRollback { job: j, on } => CrashRollback { job: job(j), on: node(on) },
            ReservationStarted { holder, machines } => {
                ReservationStarted { holder: node(holder), machines }
            }
            ReservationEnded { holder } => ReservationEnded { holder: node(holder) },
            CoordinatorPolled { .. }
            | ChaosPollLost
            | ChaosPollDelayed { .. }
            | ChaosDupDropped
            | ChaosCoordDown
            | ChaosCoordUp => self,
            ChaosCkptCorrupted { job: j, from, attempt } => {
                ChaosCkptCorrupted { job: job(j), from: node(from), attempt }
            }
            ChaosLinkDown { station } => ChaosLinkDown { station: node(station) },
            ChaosLinkUp { station } => ChaosLinkUp { station: node(station) },
            ChaosLocalStart { job: j, on } => ChaosLocalStart { job: job(j), on: node(on) },
            JobForwarded { job: j, to_pool } => JobForwarded { job: job(j), to_pool },
            JobAdopted { job: j, on } => JobAdopted { job: job(j), on: node(on) },
            JobGranted { job: j, on, cpu_milli, mem_milli, tag_milli } => {
                JobGranted { job: job(j), on: node(on), cpu_milli, mem_milli, tag_milli }
            }
            ReplicaSpawned { job: j, on } => ReplicaSpawned { job: job(j), on: node(on) },
            ReplicaCancelled { job: j, on, wasted_ms } => {
                ReplicaCancelled { job: job(j), on: node(on), wasted_ms }
            }
        }
    }
}

static KIND_NAMES: [&str; TraceKind::COUNT] = [
    "job_arrived",
    "job_rejected",
    "placement_started",
    "placement_disk_rejected",
    "job_started",
    "job_suspended",
    "job_resumed_in_place",
    "checkpoint_started",
    "checkpoint_completed",
    "job_killed",
    "periodic_checkpoint",
    "job_completed",
    "owner_active",
    "owner_idle",
    "station_failed",
    "station_recovered",
    "crash_rollback",
    "reservation_started",
    "reservation_ended",
    "coordinator_polled",
    "chaos_poll_lost",
    "chaos_poll_delayed",
    "chaos_dup_dropped",
    "chaos_ckpt_corrupted",
    "chaos_link_down",
    "chaos_link_up",
    "chaos_coord_down",
    "chaos_coord_up",
    "chaos_local_start",
    "job_forwarded",
    "job_adopted",
    "job_granted",
    "replica_spawned",
    "replica_cancelled",
];

/// A timestamped trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Why a JSONL trace line could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The line is not a flat `{"key":value,…}` object.
    Malformed(String),
    /// The `"kind"` token is not a known [`TraceKind`] name.
    UnknownKind(String),
    /// A field required by the kind is absent.
    MissingField(&'static str),
    /// A field value could not be decoded (bad integer, unknown reason).
    BadValue(&'static str, String),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Malformed(line) => write!(f, "malformed trace line: {line}"),
            TraceParseError::UnknownKind(k) => write!(f, "unknown trace kind: {k}"),
            TraceParseError::MissingField(name) => write!(f, "missing trace field: {name}"),
            TraceParseError::BadValue(name, v) => {
                write!(f, "bad value for trace field {name}: {v}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

fn reason_token(r: PreemptReason) -> &'static str {
    match r {
        PreemptReason::OwnerReturned => "owner_returned",
        PreemptReason::PriorityPreemption => "priority_preemption",
        PreemptReason::StationFailure => "station_failure",
    }
}

fn reason_from_token(tok: &str) -> Option<PreemptReason> {
    match tok {
        "owner_returned" => Some(PreemptReason::OwnerReturned),
        "priority_preemption" => Some(PreemptReason::PriorityPreemption),
        "station_failure" => Some(PreemptReason::StationFailure),
        _ => None,
    }
}

/// Field accessors over one parsed flat-JSON line.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(line: &'a str) -> Result<Self, TraceParseError> {
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| TraceParseError::Malformed(line.into()))?;
        let mut pairs = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            // Keys are always quoted; values are bare integers or quoted
            // tokens. None of our tokens contain commas or escapes, so a
            // flat split is exact.
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| TraceParseError::Malformed(line.into()))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| TraceParseError::Malformed(line.into()))?;
            pairs.push((key, value.trim()));
        }
        Ok(Fields { pairs })
    }

    fn str(&self, name: &'static str) -> Result<&'a str, TraceParseError> {
        let raw = self
            .pairs
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or(TraceParseError::MissingField(name))?;
        raw.strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| TraceParseError::BadValue(name, raw.into()))
    }

    fn u64(&self, name: &'static str) -> Result<u64, TraceParseError> {
        let raw = self
            .pairs
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or(TraceParseError::MissingField(name))?;
        raw.parse()
            .map_err(|_| TraceParseError::BadValue(name, raw.into()))
    }

    fn job(&self, name: &'static str) -> Result<JobId, TraceParseError> {
        self.u64(name).map(JobId)
    }

    fn node(&self, name: &'static str) -> Result<NodeId, TraceParseError> {
        let v = self.u64(name)?;
        u32::try_from(v)
            .map(NodeId::new)
            .map_err(|_| TraceParseError::BadValue(name, v.to_string()))
    }

    fn u32(&self, name: &'static str) -> Result<u32, TraceParseError> {
        let v = self.u64(name)?;
        u32::try_from(v).map_err(|_| TraceParseError::BadValue(name, v.to_string()))
    }
}

/// Appends `v` in decimal.
fn push_u64(s: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

impl TraceEvent {
    /// Renders this event as one line of flat JSON (no trailing newline),
    /// e.g. `{"t_ms":5000,"kind":"job_arrived","job":3}`.
    ///
    /// The format round-trips exactly through [`TraceEvent::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_jsonl(&mut s);
        s
    }

    /// Like [`TraceEvent::to_jsonl`], appending to a caller-supplied buffer
    /// instead of allocating — the form hot sinks use with a reused
    /// `String` (no trailing newline is written). Every value is an
    /// unsigned integer or a fixed token, so the line is literals and
    /// digits pushed straight into the buffer, with no `fmt` machinery.
    pub fn write_jsonl(&self, s: &mut String) {
        fn num(s: &mut String, key: &str, v: impl Into<u64>) {
            s.push_str(key);
            push_u64(s, v.into());
        }
        num(s, "{\"t_ms\":", self.at.as_millis());
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        match self.kind {
            TraceKind::JobArrived { job } | TraceKind::JobRejected { job } => {
                num(s, ",\"job\":", job.0);
            }
            TraceKind::PlacementStarted { job, target }
            | TraceKind::PlacementDiskRejected { job, target } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"target\":", target.index());
            }
            TraceKind::JobStarted { job, on }
            | TraceKind::JobSuspended { job, on }
            | TraceKind::JobResumedInPlace { job, on }
            | TraceKind::JobKilled { job, on }
            | TraceKind::PeriodicCheckpoint { job, on }
            | TraceKind::JobCompleted { job, on }
            | TraceKind::CrashRollback { job, on }
            | TraceKind::ChaosLocalStart { job, on }
            | TraceKind::JobAdopted { job, on }
            | TraceKind::ReplicaSpawned { job, on } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"on\":", on.index());
            }
            TraceKind::CheckpointStarted { job, from, reason, bytes } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"from\":", from.index());
                s.push_str(",\"reason\":\"");
                s.push_str(reason_token(reason));
                num(s, "\",\"bytes\":", bytes);
            }
            TraceKind::CheckpointCompleted { job, from, bytes } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"from\":", from.index());
                num(s, ",\"bytes\":", bytes);
            }
            TraceKind::OwnerActive { station }
            | TraceKind::OwnerIdle { station }
            | TraceKind::StationFailed { station }
            | TraceKind::StationRecovered { station }
            | TraceKind::ChaosLinkDown { station }
            | TraceKind::ChaosLinkUp { station } => {
                num(s, ",\"station\":", station.index());
            }
            TraceKind::ReservationStarted { holder, machines } => {
                num(s, ",\"holder\":", holder.index());
                num(s, ",\"machines\":", machines);
            }
            TraceKind::ReservationEnded { holder } => {
                num(s, ",\"holder\":", holder.index());
            }
            TraceKind::CoordinatorPolled { free_machines, waiting_jobs, placements, preemptions } => {
                num(s, ",\"free\":", free_machines);
                num(s, ",\"waiting\":", waiting_jobs);
                num(s, ",\"placements\":", placements);
                num(s, ",\"preemptions\":", preemptions);
            }
            TraceKind::ChaosPollLost
            | TraceKind::ChaosDupDropped
            | TraceKind::ChaosCoordDown
            | TraceKind::ChaosCoordUp => {}
            TraceKind::ChaosPollDelayed { delay_ms } => {
                num(s, ",\"delay_ms\":", delay_ms);
            }
            TraceKind::ChaosCkptCorrupted { job, from, attempt } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"from\":", from.index());
                num(s, ",\"attempt\":", attempt);
            }
            TraceKind::JobForwarded { job, to_pool } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"pool\":", to_pool);
            }
            TraceKind::JobGranted { job, on, cpu_milli, mem_milli, tag_milli } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"on\":", on.index());
                num(s, ",\"cpu_m\":", cpu_milli);
                num(s, ",\"mem_m\":", mem_milli);
                num(s, ",\"tag_m\":", tag_milli);
            }
            TraceKind::ReplicaCancelled { job, on, wasted_ms } => {
                num(s, ",\"job\":", job.0);
                num(s, ",\"on\":", on.index());
                num(s, ",\"wasted_ms\":", wasted_ms);
            }
        }
        s.push('}');
    }

    /// Decodes one line produced by [`TraceEvent::to_jsonl`].
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, TraceParseError> {
        let f = Fields::parse(line)?;
        let at = SimTime::from_millis(f.u64("t_ms")?);
        let kind_tok = f.str("kind")?;
        let kind = match kind_tok {
            "job_arrived" => TraceKind::JobArrived { job: f.job("job")? },
            "job_rejected" => TraceKind::JobRejected { job: f.job("job")? },
            "placement_started" => TraceKind::PlacementStarted {
                job: f.job("job")?,
                target: f.node("target")?,
            },
            "placement_disk_rejected" => TraceKind::PlacementDiskRejected {
                job: f.job("job")?,
                target: f.node("target")?,
            },
            "job_started" => TraceKind::JobStarted { job: f.job("job")?, on: f.node("on")? },
            "job_suspended" => TraceKind::JobSuspended { job: f.job("job")?, on: f.node("on")? },
            "job_resumed_in_place" => {
                TraceKind::JobResumedInPlace { job: f.job("job")?, on: f.node("on")? }
            }
            "checkpoint_started" => {
                let tok = f.str("reason")?;
                TraceKind::CheckpointStarted {
                    job: f.job("job")?,
                    from: f.node("from")?,
                    reason: reason_from_token(tok)
                        .ok_or_else(|| TraceParseError::BadValue("reason", tok.into()))?,
                    bytes: f.u64("bytes")?,
                }
            }
            "checkpoint_completed" => TraceKind::CheckpointCompleted {
                job: f.job("job")?,
                from: f.node("from")?,
                bytes: f.u64("bytes")?,
            },
            "job_killed" => TraceKind::JobKilled { job: f.job("job")?, on: f.node("on")? },
            "periodic_checkpoint" => {
                TraceKind::PeriodicCheckpoint { job: f.job("job")?, on: f.node("on")? }
            }
            "job_completed" => TraceKind::JobCompleted { job: f.job("job")?, on: f.node("on")? },
            "owner_active" => TraceKind::OwnerActive { station: f.node("station")? },
            "owner_idle" => TraceKind::OwnerIdle { station: f.node("station")? },
            "station_failed" => TraceKind::StationFailed { station: f.node("station")? },
            "station_recovered" => TraceKind::StationRecovered { station: f.node("station")? },
            "crash_rollback" => TraceKind::CrashRollback { job: f.job("job")?, on: f.node("on")? },
            "reservation_started" => TraceKind::ReservationStarted {
                holder: f.node("holder")?,
                machines: f.u32("machines")?,
            },
            "reservation_ended" => TraceKind::ReservationEnded { holder: f.node("holder")? },
            "coordinator_polled" => TraceKind::CoordinatorPolled {
                free_machines: f.u32("free")?,
                waiting_jobs: f.u32("waiting")?,
                placements: f.u32("placements")?,
                preemptions: f.u32("preemptions")?,
            },
            "chaos_poll_lost" => TraceKind::ChaosPollLost,
            "chaos_poll_delayed" => TraceKind::ChaosPollDelayed { delay_ms: f.u64("delay_ms")? },
            "chaos_dup_dropped" => TraceKind::ChaosDupDropped,
            "chaos_ckpt_corrupted" => TraceKind::ChaosCkptCorrupted {
                job: f.job("job")?,
                from: f.node("from")?,
                attempt: f.u32("attempt")?,
            },
            "chaos_link_down" => TraceKind::ChaosLinkDown { station: f.node("station")? },
            "chaos_link_up" => TraceKind::ChaosLinkUp { station: f.node("station")? },
            "chaos_coord_down" => TraceKind::ChaosCoordDown,
            "chaos_coord_up" => TraceKind::ChaosCoordUp,
            "chaos_local_start" => {
                TraceKind::ChaosLocalStart { job: f.job("job")?, on: f.node("on")? }
            }
            "job_forwarded" => {
                TraceKind::JobForwarded { job: f.job("job")?, to_pool: f.u32("pool")? }
            }
            "job_adopted" => TraceKind::JobAdopted { job: f.job("job")?, on: f.node("on")? },
            "job_granted" => TraceKind::JobGranted {
                job: f.job("job")?,
                on: f.node("on")?,
                cpu_milli: f.u32("cpu_m")?,
                mem_milli: f.u32("mem_m")?,
                tag_milli: f.u32("tag_m")?,
            },
            "replica_spawned" => {
                TraceKind::ReplicaSpawned { job: f.job("job")?, on: f.node("on")? }
            }
            "replica_cancelled" => TraceKind::ReplicaCancelled {
                job: f.job("job")?,
                on: f.node("on")?,
                wasted_ms: f.u64("wasted_ms")?,
            },
            other => return Err(TraceParseError::UnknownKind(other.into())),
        };
        Ok(TraceEvent { at, kind })
    }
}

/// An append-only trace with query helpers.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Creates an enabled trace.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled trace (events are dropped); cuts memory for very
    /// long benchmark runs.
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Appends an event (no-op when disabled).
    pub fn record(&mut self, at: SimTime, kind: TraceKind) {
        if self.enabled {
            self.events.push(TraceEvent { at, kind });
        }
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events matching a predicate.
    pub fn filtered<'a, F>(&'a self, mut pred: F) -> impl Iterator<Item = &'a TraceEvent>
    where
        F: FnMut(&TraceKind) -> bool + 'a,
    {
        self.events.iter().filter(move |e| pred(&e.kind))
    }

    /// Counts events matching a predicate.
    pub fn count<F>(&self, pred: F) -> usize
    where
        F: FnMut(&TraceKind) -> bool,
    {
        let mut pred = pred;
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        t.record(SimTime::from_secs(1), TraceKind::JobArrived { job: JobId(1) });
        t.record(
            SimTime::from_secs(2),
            TraceKind::OwnerActive { station: NodeId::new(3) },
        );
        t.record(SimTime::from_secs(3), TraceKind::JobArrived { job: JobId(2) });
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let arrivals = t.count(|k| matches!(k, TraceKind::JobArrived { .. }));
        assert_eq!(arrivals, 2);
        let first = t
            .filtered(|k| matches!(k, TraceKind::OwnerActive { .. }))
            .next()
            .unwrap();
        assert_eq!(first.at, SimTime::from_secs(2));
    }

    #[test]
    fn disabled_trace_drops_events() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, TraceKind::JobArrived { job: JobId(1) });
        assert!(t.is_empty());
        assert_eq!(t.events(), &[]);
    }

    /// One exemplar of every kind — keep in sync with `TraceKind`.
    fn one_of_each() -> Vec<TraceKind> {
        let j = JobId(7);
        let n = NodeId::new(3);
        vec![
            TraceKind::JobArrived { job: j },
            TraceKind::JobRejected { job: j },
            TraceKind::PlacementStarted { job: j, target: n },
            TraceKind::PlacementDiskRejected { job: j, target: n },
            TraceKind::JobStarted { job: j, on: n },
            TraceKind::JobSuspended { job: j, on: n },
            TraceKind::JobResumedInPlace { job: j, on: n },
            TraceKind::CheckpointStarted {
                job: j,
                from: n,
                reason: PreemptReason::PriorityPreemption,
                bytes: 123_456,
            },
            TraceKind::CheckpointCompleted { job: j, from: n, bytes: 123_456 },
            TraceKind::JobKilled { job: j, on: n },
            TraceKind::PeriodicCheckpoint { job: j, on: n },
            TraceKind::JobCompleted { job: j, on: n },
            TraceKind::OwnerActive { station: n },
            TraceKind::OwnerIdle { station: n },
            TraceKind::StationFailed { station: n },
            TraceKind::StationRecovered { station: n },
            TraceKind::CrashRollback { job: j, on: n },
            TraceKind::ReservationStarted { holder: n, machines: 4 },
            TraceKind::ReservationEnded { holder: n },
            TraceKind::CoordinatorPolled {
                free_machines: 9,
                waiting_jobs: 2,
                placements: 1,
                preemptions: 0,
            },
            TraceKind::ChaosPollLost,
            TraceKind::ChaosPollDelayed { delay_ms: 45_000 },
            TraceKind::ChaosDupDropped,
            TraceKind::ChaosCkptCorrupted { job: j, from: n, attempt: 2 },
            TraceKind::ChaosLinkDown { station: n },
            TraceKind::ChaosLinkUp { station: n },
            TraceKind::ChaosCoordDown,
            TraceKind::ChaosCoordUp,
            TraceKind::ChaosLocalStart { job: j, on: n },
            TraceKind::JobForwarded { job: j, to_pool: 1 },
            TraceKind::JobAdopted { job: j, on: n },
            TraceKind::JobGranted { job: j, on: n, cpu_milli: 500, mem_milli: 250, tag_milli: 0 },
            TraceKind::ReplicaSpawned { job: j, on: n },
            TraceKind::ReplicaCancelled { job: j, on: n, wasted_ms: 4_200 },
        ]
    }

    #[test]
    fn kind_indices_are_dense_and_names_unique() {
        let kinds = one_of_each();
        assert_eq!(kinds.len(), TraceKind::COUNT);
        let mut seen = [false; TraceKind::COUNT];
        for k in &kinds {
            assert!(!seen[k.index()], "duplicate index for {k:?}");
            seen[k.index()] = true;
            assert_eq!(TraceKind::names()[k.index()], k.name());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        for (i, kind) in one_of_each().into_iter().enumerate() {
            let ev = TraceEvent { at: SimTime::from_millis(1_000 + i as u64), kind };
            let line = ev.to_jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(&format!("\"kind\":\"{}\"", kind.name())), "{line}");
            let back = TraceEvent::from_jsonl(&line).expect("round trip");
            assert_eq!(back, ev, "line {line}");
        }
    }

    /// The writer formats by hand; these are the bytes `fmt` produced.
    #[test]
    fn jsonl_bytes_are_pinned() {
        for v in [0, 9, 10, 1_988, u64::from(u32::MAX), u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        let line = |kind| TraceEvent { at: SimTime::from_millis(120_000), kind }.to_jsonl();
        let (j, n) = (JobId(7), NodeId::new(3));
        assert_eq!(line(TraceKind::ChaosCoordUp), r#"{"t_ms":120000,"kind":"chaos_coord_up"}"#);
        assert_eq!(
            line(TraceKind::CheckpointStarted {
                job: j,
                from: n,
                reason: PreemptReason::PriorityPreemption,
                bytes: 123_456,
            }),
            r#"{"t_ms":120000,"kind":"checkpoint_started","job":7,"from":3,"reason":"priority_preemption","bytes":123456}"#
        );
        assert_eq!(
            line(TraceKind::CoordinatorPolled {
                free_machines: 9,
                waiting_jobs: 2,
                placements: 1,
                preemptions: 0,
            }),
            r#"{"t_ms":120000,"kind":"coordinator_polled","free":9,"waiting":2,"placements":1,"preemptions":0}"#
        );
        assert_eq!(
            line(TraceKind::JobGranted { job: j, on: n, cpu_milli: 500, mem_milli: 250, tag_milli: 0 }),
            r#"{"t_ms":120000,"kind":"job_granted","job":7,"on":3,"cpu_m":500,"mem_m":250,"tag_m":0}"#
        );
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(matches!(
            TraceEvent::from_jsonl("not json"),
            Err(TraceParseError::Malformed(_))
        ));
        assert!(matches!(
            TraceEvent::from_jsonl("{\"t_ms\":1,\"kind\":\"warp_drive\"}"),
            Err(TraceParseError::UnknownKind(_))
        ));
        assert!(matches!(
            TraceEvent::from_jsonl("{\"t_ms\":1,\"kind\":\"job_arrived\"}"),
            Err(TraceParseError::MissingField("job"))
        ));
        assert!(matches!(
            TraceEvent::from_jsonl("{\"t_ms\":1,\"kind\":\"job_arrived\",\"job\":\"x\"}"),
            Err(TraceParseError::BadValue("job", _))
        ));
    }
}
