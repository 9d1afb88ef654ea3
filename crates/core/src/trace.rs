//! The cluster's event trace: a replayable record of everything observable.
//!
//! Experiments and the metrics crate consume this trace instead of poking
//! at simulator internals; integration tests assert protocol invariants
//! over it (e.g. *every placement is eventually matched by a checkpoint,
//! kill, or completion*).
//!
//! Each kind is declared once, as one row of the `trace_kinds!` table
//! below; the enum, its dense index and names, the JSONL codec, the
//! sharded merge's renumbering and `StatsSink`'s marks all come from it.

use condor_net::NodeId;
use condor_sim::time::SimTime;

use crate::job::{JobId, PreemptReason};
use crate::telemetry::MarkAction;

/// Expands the per-kind table into [`TraceKind`] and everything that
/// follows from its rows. A row is its doc comment, then
/// `Variant("name"[, Mark]) { field: Type = "key", … }`: the snake_case
/// name (also the JSONL `"kind"` token), the `StatsSink` mark the kind
/// triggers, if any, and each field with its JSONL key, in line order.
/// A unit variant has no braces. What a field does by type — read, write,
/// renumber, name the job — is [`TraceField`].
macro_rules! trace_kinds {
    (@mark) => { None };
    (@mark $mark:ident) => { Some(MarkAction::$mark) };
    ($(
        $(#[$doc:meta])*
        $kind:ident($name:literal $(, $mark:ident)?) $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty = $key:literal,)*
        })?
    )*) => {
        /// One observable event in a cluster run.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceKind {
            $($(#[$doc])* $kind $({ $($(#[$field_doc])* $field: $ty,)* })?,)*
        }

        /// The variants alone: a kind's dense index is its position here.
        enum KindIndex {
            $($kind,)*
        }

        static KIND_NAMES: [&str; TraceKind::COUNT] = [$($name,)*];

        static MARKS: [Option<MarkAction>; TraceKind::COUNT] =
            [$(trace_kinds!(@mark $($mark)?),)*];

        impl TraceKind {
            /// Number of distinct trace-event kinds.
            pub const COUNT: usize = [$($name,)*].len();

            /// Dense index of this kind in `0..COUNT`; stable across a
            /// release, used by the telemetry layer for per-kind counter
            /// arrays.
            #[inline]
            pub fn index(&self) -> usize {
                match self {
                    $(TraceKind::$kind { .. } => KindIndex::$kind as usize,)*
                }
            }

            /// The job this event concerns, if it is a job-lifecycle event.
            /// Owner, station, reservation, and poll events return `None`.
            #[inline]
            pub fn job(&self) -> Option<JobId> {
                match *self {
                    $(TraceKind::$kind { $($($field,)*)? } => None $($(.or($field.as_job()))*)?,)*
                }
            }

            /// Rewrites every job id through `map_job` and every station id
            /// through `map_node`, returning the remapped kind. Used by the
            /// sharded runner's deterministic merge to translate a pool's
            /// local numbering back into the fleet-global one; kinds
            /// without ids pass through unchanged.
            pub(crate) fn remapped(
                self,
                map_job: &impl Fn(JobId) -> JobId,
                map_node: &impl Fn(NodeId) -> NodeId,
            ) -> TraceKind {
                match self {
                    $(TraceKind::$kind { $($($field,)*)? } => TraceKind::$kind {
                        $($($field: $field.remap(map_job, map_node),)*)?
                    },)*
                }
            }
        }

        impl TraceEvent {
            /// Like [`TraceEvent::to_jsonl`], appending to a caller-supplied
            /// buffer instead of allocating — the form hot sinks use with a
            /// reused `String` (no trailing newline is written). Every value
            /// is an unsigned integer or a fixed token, so the line is
            /// literals and digits pushed straight into the buffer, with no
            /// `fmt` machinery.
            pub fn write_jsonl(&self, s: &mut String) {
                s.push_str("{\"t_ms\":");
                push_u64(s, self.at.as_millis());
                s.push_str(",\"kind\":\"");
                s.push_str(self.kind.name());
                s.push('"');
                match self.kind {
                    $(TraceKind::$kind { $($($field,)*)? } => {
                        $($(
                            s.push_str(concat!(",\"", $key, "\":"));
                            $field.write_json(s);
                        )*)?
                    })*
                }
                s.push('}');
            }

            /// Decodes one line produced by [`TraceEvent::to_jsonl`].
            pub fn from_jsonl(line: &str) -> Result<TraceEvent, TraceParseError> {
                let f = Fields::parse(line)?;
                let at = SimTime::from_millis(f.u64("t_ms")?);
                let kind = match f.str("kind")? {
                    $($name => TraceKind::$kind {
                        $($($field: TraceField::read(&f, $key)?,)*)?
                    },)*
                    other => return Err(TraceParseError::UnknownKind(other.into())),
                };
                Ok(TraceEvent { at, kind })
            }
        }
    };
}

trace_kinds! {
    /// A job entered its home station's queue.
    JobArrived("job_arrived", Queue) {
        /// The job.
        job: JobId = "job",
    }
    /// A job was rejected at submission (home disk full).
    JobRejected("job_rejected") {
        /// The job.
        job: JobId = "job",
    }
    /// The coordinator granted a machine and the image transfer began.
    PlacementStarted("placement_started") {
        /// The job.
        job: JobId = "job",
        /// Destination machine.
        target: NodeId = "target",
    }
    /// A granted placement was abandoned because the target's disk was
    /// full (paper §4).
    PlacementDiskRejected("placement_disk_rejected") {
        /// The job.
        job: JobId = "job",
        /// The machine that could not take the image.
        target: NodeId = "target",
    }
    /// The image arrived and the job started (or resumed) executing.
    JobStarted("job_started", Start) {
        /// The job.
        job: JobId = "job",
        /// Hosting machine.
        on: NodeId = "on",
    }
    /// The owner returned; the job was stopped in place pending the grace
    /// period.
    JobSuspended("job_suspended", EndBurst) {
        /// The job.
        job: JobId = "job",
        /// Hosting machine.
        on: NodeId = "on",
    }
    /// The owner left again within the grace period; the job resumed where
    /// it was.
    JobResumedInPlace("job_resumed_in_place", Resume) {
        /// The job.
        job: JobId = "job",
        /// Hosting machine.
        on: NodeId = "on",
    }
    /// A checkpoint transfer back to the home station began.
    CheckpointStarted("checkpoint_started", Checkpoint) {
        /// The job.
        job: JobId = "job",
        /// Machine being vacated.
        from: NodeId = "from",
        /// Why the job is leaving.
        reason: PreemptReason = "reason",
        /// Size of the checkpoint image on the wire.
        bytes: u64 = "bytes",
    }
    /// The checkpoint landed at home; the job is queued again.
    CheckpointCompleted("checkpoint_completed", Queue) {
        /// The job.
        job: JobId = "job",
        /// Machine vacated.
        from: NodeId = "from",
        /// Size of the checkpoint image that just landed — mirrored from
        /// the matching [`TraceKind::CheckpointStarted`] so transfer
        /// accounting reads one event instead of joining start/complete
        /// pairs.
        bytes: u64 = "bytes",
    }
    /// The job was killed without an outgoing checkpoint (immediate-kill
    /// strategy); work since the last periodic checkpoint was lost.
    JobKilled("job_killed", Kill) {
        /// The job.
        job: JobId = "job",
        /// Machine it was killed on.
        on: NodeId = "on",
    }
    /// A periodic (while-running) checkpoint completed.
    PeriodicCheckpoint("periodic_checkpoint") {
        /// The job.
        job: JobId = "job",
        /// Hosting machine.
        on: NodeId = "on",
    }
    /// All demand delivered.
    JobCompleted("job_completed", EndBurst) {
        /// The job.
        job: JobId = "job",
        /// Machine it finished on.
        on: NodeId = "on",
    }
    /// A workstation owner started using their machine.
    OwnerActive("owner_active") {
        /// The station.
        station: NodeId = "station",
    }
    /// A workstation owner went idle.
    OwnerIdle("owner_idle") {
        /// The station.
        station: NodeId = "station",
    }
    /// A workstation crashed; any foreign image on it is lost.
    StationFailed("station_failed") {
        /// The station.
        station: NodeId = "station",
    }
    /// A crashed workstation came back.
    StationRecovered("station_recovered") {
        /// The station.
        station: NodeId = "station",
    }
    /// A foreign job's progress was rolled back to its last checkpoint
    /// because its host crashed.
    CrashRollback("crash_rollback", EndBurst) {
        /// The job.
        job: JobId = "job",
        /// The crashed host.
        on: NodeId = "on",
    }
    /// A capacity reservation window opened; fenced machines now serve
    /// only the holder.
    ReservationStarted("reservation_started") {
        /// Beneficiary station.
        holder: NodeId = "holder",
        /// Machines fenced.
        machines: u32 = "machines",
    }
    /// A reservation window closed; its machines rejoin the general pool.
    ReservationEnded("reservation_ended") {
        /// Beneficiary station.
        holder: NodeId = "holder",
    }
    /// One coordinator poll cycle ran.
    CoordinatorPolled("coordinator_polled") {
        /// Machines currently able to host.
        free_machines: u32 = "free",
        /// Jobs waiting across all queues.
        waiting_jobs: u32 = "waiting",
        /// Placement orders issued this cycle.
        placements: u32 = "placements",
        /// Preemption orders issued this cycle.
        preemptions: u32 = "preemptions",
    }
    /// Fault injection: a scheduled coordinator poll message was lost on
    /// the control plane; the cycle is skipped entirely.
    ChaosPollLost("chaos_poll_lost")
    /// Fault injection: a coordinator poll message was delayed; the poll
    /// body runs off-grid at the emission time of this marker.
    ChaosPollDelayed("chaos_poll_delayed") {
        /// How late the poll ran, in milliseconds.
        delay_ms: u64 = "delay_ms",
    }
    /// Fault injection: a duplicated control message arrived and was
    /// recognised by its sequence number and discarded — no state change.
    ChaosDupDropped("chaos_dup_dropped")
    /// Fault injection: a checkpoint transfer arrived corrupted; the image
    /// is discarded and the transfer retried with capped backoff.
    // No mark: the retry keeps the job checkpointing.
    ChaosCkptCorrupted("chaos_ckpt_corrupted") {
        /// The job whose checkpoint was corrupted.
        job: JobId = "job",
        /// The station the transfer left from.
        from: NodeId = "from",
        /// Retry attempt number (1 = first corruption of this transfer).
        attempt: u32 = "attempt",
    }
    /// Fault injection: a station lost its link to the coordinator
    /// (transient partition); it keeps its local scheduler running.
    ChaosLinkDown("chaos_link_down") {
        /// The partitioned station.
        station: NodeId = "station",
    }
    /// Fault injection: a partitioned station's link healed.
    ChaosLinkUp("chaos_link_up") {
        /// The reconnected station.
        station: NodeId = "station",
    }
    /// Fault injection: the coordinator process went down; polls are
    /// skipped until recovery, local schedulers run autonomously.
    ChaosCoordDown("chaos_coord_down")
    /// Fault injection: the coordinator recovered; polling resumes on the
    /// next grid point.
    ChaosCoordUp("chaos_coord_up")
    /// A local scheduler autonomously started a home-queued job on its own
    /// idle machine while the coordinator was unreachable (the paper's
    /// hybrid-structure degradation story: stations never depend on the
    /// central coordinator to use their own capacity).
    // No mark: the paired `JobStarted` marks.
    ChaosLocalStart("chaos_local_start") {
        /// The job started locally.
        job: JobId = "job",
        /// The home station it started on.
        on: NodeId = "on",
    }
    /// A saturated pool handed a queued job to an idle pool at a
    /// synchronisation barrier (sharded runs only); the job travels the
    /// inter-pool link and is adopted on arrival.
    // No mark: the wait closes in the adopting pool.
    JobForwarded("job_forwarded") {
        /// The job handed over.
        job: JobId = "job",
        /// The receiving pool's index.
        to_pool: u32 = "pool",
    }
    /// A forwarded job arrived at its new pool and entered a local queue
    /// there (the cross-pool counterpart of [`TraceKind::JobArrived`]).
    JobAdopted("job_adopted", Queue) {
        /// The job.
        job: JobId = "job",
        /// The adopting home station.
        on: NodeId = "on",
    }
    /// A *fractional* capacity grant: the coordinator granted the job a
    /// sub-whole share of a station, emitted immediately before the
    /// matching [`TraceKind::PlacementStarted`]. Whole-machine placements
    /// (the legacy default) never emit this, keeping default traces
    /// bit-identical to the single-occupancy model.
    // No mark: an annotation; the paired `JobStarted` marks.
    JobGranted("job_granted") {
        /// The job.
        job: JobId = "job",
        /// The granted station.
        on: NodeId = "on",
        /// Granted CPU share in milli-machines.
        cpu_milli: u32 = "cpu_m",
        /// Granted memory share in milli-machines.
        mem_milli: u32 = "mem_m",
        /// Granted tag/accelerator share in milli-units.
        tag_milli: u32 = "tag_m",
    }
    /// A speculative replica of a queued job started placement on an
    /// otherwise-idle station (see
    /// [`PolicyKind::Redundant`](crate::config::PolicyKind::Redundant)).
    /// The job's own lifecycle events keep tracking the primary copy;
    /// replicas announce themselves only through this pair of events.
    ReplicaSpawned("replica_spawned") {
        /// The replicated job.
        job: JobId = "job",
        /// The station hosting the replica.
        on: NodeId = "on",
    }
    /// A replica was cancelled — by the primary finishing first, another
    /// replica winning, the host's owner returning, a station crash, a
    /// reservation fence, or the end of the run. Every
    /// [`TraceKind::ReplicaSpawned`] is matched by exactly one
    /// `ReplicaCancelled` or one job completion on the replica's station.
    // No mark: wasted work is accounting, not a wait edge.
    ReplicaCancelled("replica_cancelled") {
        /// The replicated job.
        job: JobId = "job",
        /// The station that hosted the replica.
        on: NodeId = "on",
        /// Reference-machine work the replica had accrued, in
        /// milliseconds — the cancellation's contribution to
        /// [`Totals::wasted_replica_work`](crate::cluster::Totals::wasted_replica_work).
        wasted_ms: u64 = "wasted_ms",
    }
}

impl TraceKind {
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

    /// What `StatsSink` does with the per-job marks of the kind at dense
    /// `index`; `None` for most of the stream (owner flips, polls).
    pub(crate) fn mark_at(index: usize) -> Option<MarkAction> {
        MARKS[index]
    }
}

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

/// What a [`TraceKind`] field does by its type: how it is read from and
/// written to JSONL, how the sharded merge renumbers it, and whether it is
/// the job the event concerns.
trait TraceField: Copy {
    fn read(f: &Fields<'_>, key: &'static str) -> Result<Self, TraceParseError>;

    fn write_json(self, s: &mut String);

    fn remap(self, _job: &impl Fn(JobId) -> JobId, _node: &impl Fn(NodeId) -> NodeId) -> Self {
        self
    }

    fn as_job(self) -> Option<JobId> {
        None
    }
}

impl TraceField for u64 {
    fn read(f: &Fields<'_>, key: &'static str) -> Result<Self, TraceParseError> {
        f.u64(key)
    }

    fn write_json(self, s: &mut String) {
        push_u64(s, self);
    }
}

impl TraceField for u32 {
    fn read(f: &Fields<'_>, key: &'static str) -> Result<Self, TraceParseError> {
        f.u32(key)
    }

    fn write_json(self, s: &mut String) {
        push_u64(s, self.into());
    }
}

impl TraceField for JobId {
    fn read(f: &Fields<'_>, key: &'static str) -> Result<Self, TraceParseError> {
        f.u64(key).map(JobId)
    }

    fn write_json(self, s: &mut String) {
        push_u64(s, self.0);
    }

    fn remap(self, job: &impl Fn(JobId) -> JobId, _node: &impl Fn(NodeId) -> NodeId) -> Self {
        job(self)
    }

    fn as_job(self) -> Option<JobId> {
        Some(self)
    }
}

impl TraceField for NodeId {
    fn read(f: &Fields<'_>, key: &'static str) -> Result<Self, TraceParseError> {
        f.u32(key).map(NodeId::new)
    }

    fn write_json(self, s: &mut String) {
        push_u64(s, self.index().into());
    }

    fn remap(self, _job: &impl Fn(JobId) -> JobId, node: &impl Fn(NodeId) -> NodeId) -> Self {
        node(self)
    }
}

impl TraceField for PreemptReason {
    fn read(f: &Fields<'_>, key: &'static str) -> Result<Self, TraceParseError> {
        let tok = f.str(key)?;
        [Self::OwnerReturned, Self::PriorityPreemption, Self::StationFailure]
            .into_iter()
            .find(|&r| reason_token(r) == tok)
            .ok_or_else(|| TraceParseError::BadValue(key, tok.into()))
    }

    fn write_json(self, s: &mut String) {
        s.push('"');
        s.push_str(reason_token(self));
        s.push('"');
    }
}

fn reason_token(r: PreemptReason) -> &'static str {
    match r {
        PreemptReason::OwnerReturned => "owner_returned",
        PreemptReason::PriorityPreemption => "priority_preemption",
        PreemptReason::StationFailure => "station_failure",
    }
}

/// Pairs [`Fields`] holds without allocating: more than any trace kind
/// (seven) or chaos entry (five) has.
const INLINE_PAIRS: usize = 8;

/// Field accessors over one flat JSON object, `{"key":value,…}` with bare
/// unsigned integers or quoted tokens as values: a trace line, or one
/// entry of a chaos schedule. Reading one allocates nothing unless it has
/// more than [`INLINE_PAIRS`] pairs.
pub(crate) struct Fields<'a> {
    inline: [(&'a str, &'a str); INLINE_PAIRS],
    len: usize,
    spill: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    #[inline]
    pub(crate) fn parse(line: &'a str) -> Result<Self, TraceParseError> {
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| TraceParseError::Malformed(line.into()))?;
        let mut f = Fields { inline: [("", ""); INLINE_PAIRS], len: 0, spill: Vec::new() };
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
            let pair = (key, value.trim());
            match f.inline.get_mut(f.len) {
                Some(slot) => {
                    *slot = pair;
                    f.len += 1;
                }
                None => f.spill.push(pair),
            }
        }
        Ok(f)
    }

    fn raw(&self, name: &'static str) -> Result<&'a str, TraceParseError> {
        self.inline[..self.len]
            .iter()
            .chain(&self.spill)
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or(TraceParseError::MissingField(name))
    }

    /// A quoted token, without its quotes.
    pub(crate) fn str(&self, name: &'static str) -> Result<&'a str, TraceParseError> {
        let raw = self.raw(name)?;
        raw.strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| TraceParseError::BadValue(name, raw.into()))
    }

    pub(crate) fn u64(&self, name: &'static str) -> Result<u64, TraceParseError> {
        let raw = self.raw(name)?;
        raw.parse()
            .map_err(|_| TraceParseError::BadValue(name, raw.into()))
    }

    pub(crate) fn u32(&self, name: &'static str) -> Result<u32, TraceParseError> {
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
    // Always ASCII digits, so always `Ok`.
    if let Ok(digits) = std::str::from_utf8(&buf[at..]) {
        s.push_str(digits);
    }
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
            assert_eq!(TraceKind::index_of_name(k.name()), Some(k.index()), "{k:?}");
            // `StatsSink` skips a marked event that names no job.
            let marked = TraceKind::mark_at(k.index()).is_some();
            assert!(!marked || k.job().is_some(), "{k:?} is marked but has no job");
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
        // One line per kind, in `one_of_each` order: every key, every
        // field order and every token of the format.
        let pinned = [
            r#"{"t_ms":120000,"kind":"job_arrived","job":7}"#,
            r#"{"t_ms":120000,"kind":"job_rejected","job":7}"#,
            r#"{"t_ms":120000,"kind":"placement_started","job":7,"target":3}"#,
            r#"{"t_ms":120000,"kind":"placement_disk_rejected","job":7,"target":3}"#,
            r#"{"t_ms":120000,"kind":"job_started","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"job_suspended","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"job_resumed_in_place","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"checkpoint_started","job":7,"from":3,"reason":"priority_preemption","bytes":123456}"#,
            r#"{"t_ms":120000,"kind":"checkpoint_completed","job":7,"from":3,"bytes":123456}"#,
            r#"{"t_ms":120000,"kind":"job_killed","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"periodic_checkpoint","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"job_completed","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"owner_active","station":3}"#,
            r#"{"t_ms":120000,"kind":"owner_idle","station":3}"#,
            r#"{"t_ms":120000,"kind":"station_failed","station":3}"#,
            r#"{"t_ms":120000,"kind":"station_recovered","station":3}"#,
            r#"{"t_ms":120000,"kind":"crash_rollback","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"reservation_started","holder":3,"machines":4}"#,
            r#"{"t_ms":120000,"kind":"reservation_ended","holder":3}"#,
            r#"{"t_ms":120000,"kind":"coordinator_polled","free":9,"waiting":2,"placements":1,"preemptions":0}"#,
            r#"{"t_ms":120000,"kind":"chaos_poll_lost"}"#,
            r#"{"t_ms":120000,"kind":"chaos_poll_delayed","delay_ms":45000}"#,
            r#"{"t_ms":120000,"kind":"chaos_dup_dropped"}"#,
            r#"{"t_ms":120000,"kind":"chaos_ckpt_corrupted","job":7,"from":3,"attempt":2}"#,
            r#"{"t_ms":120000,"kind":"chaos_link_down","station":3}"#,
            r#"{"t_ms":120000,"kind":"chaos_link_up","station":3}"#,
            r#"{"t_ms":120000,"kind":"chaos_coord_down"}"#,
            r#"{"t_ms":120000,"kind":"chaos_coord_up"}"#,
            r#"{"t_ms":120000,"kind":"chaos_local_start","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"job_forwarded","job":7,"pool":1}"#,
            r#"{"t_ms":120000,"kind":"job_adopted","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"job_granted","job":7,"on":3,"cpu_m":500,"mem_m":250,"tag_m":0}"#,
            r#"{"t_ms":120000,"kind":"replica_spawned","job":7,"on":3}"#,
            r#"{"t_ms":120000,"kind":"replica_cancelled","job":7,"on":3,"wasted_ms":4200}"#,
        ];
        let kinds = one_of_each();
        assert_eq!(pinned.len(), kinds.len());
        for (kind, want) in kinds.into_iter().zip(pinned) {
            let got = TraceEvent { at: SimTime::from_millis(120_000), kind }.to_jsonl();
            assert_eq!(got, want);
        }
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

    /// Pairs past the inline ones are still read, and the first of two
    /// equal keys still wins.
    #[test]
    fn jsonl_reads_fields_past_the_inline_pairs() {
        let pad: String = (0..INLINE_PAIRS).map(|i| format!("\"x{i}\":0,")).collect();
        let line = format!("{{{pad}\"t_ms\":7,\"kind\":\"job_arrived\",\"job\":3,\"job\":4}}");
        let want = TraceEvent {
            at: SimTime::from_millis(7),
            kind: TraceKind::JobArrived { job: JobId(3) },
        };
        assert_eq!(TraceEvent::from_jsonl(&line), Ok(want));
    }
}
