//! Deterministic chaos: seed-driven fault injection and a shrinking
//! schedule-search harness.
//!
//! The paper's robustness story (§2.1, §4) is that failure is *contained*:
//! a crashed or unreachable machine costs only the work since the last
//! checkpoint, and the rest of the cluster keeps operating. This module
//! injects the failure modes that matter in a non-dedicated NOW —
//! control-message loss, delay and duplication, corrupted checkpoint
//! transfers (detected and retried with capped exponential backoff),
//! transient network partitions, and coordinator outage windows during
//! which local schedulers keep starting their own queued jobs — and checks
//! that the protocol invariants survive all of them.
//!
//! # Determinism and replay
//!
//! A [`ChaosSchedule`] is *data*: an explicit, time-sorted list of
//! [`ChaosEntry`] values. [`ChaosSchedule::generate`] derives one from a
//! seed, but the cluster only ever consumes the expanded list — fault
//! injection draws **no** random numbers at run time and perturbs none of
//! the model's RNG substreams. Two consequences:
//!
//! * A run with `chaos: None` and a run with an **empty** schedule are
//!   bit-identical (the golden-trace digest is unchanged).
//! * A schedule serialized with [`ChaosSchedule::to_json`] and read back
//!   with [`ChaosSchedule::from_json`] replays the exact same trace —
//!   failing schedules are portable bug reports.
//!
//! # The harness
//!
//! [`explore`] runs one seeded schedule per seed, verifying every run with
//! the online [`AuditSink`] plus the [`verify_conservation`] balance
//! checks. When a run fails, [`shrink_schedule`] greedily drops entries —
//! keeping each removal that preserves the failure — until no single
//! removal does, yielding a minimal replayable schedule.
//!
//! # Reading a shrunk schedule
//!
//! The shrunk JSON lists only the faults that are jointly *necessary* to
//! reproduce the failure. Start from the last entry (the fault closest to
//! the violation), replay with `condor chaos --replay file.json`, and read
//! the reported violations against the trace around each entry's `at_ms`.

use condor_sim::rng::SimRng;
use condor_sim::time::{SimDuration, SimTime};

use crate::audit::AuditSink;
use crate::cluster::{Run, RunOutput};
use crate::config::{ClusterConfig, ConfigError, EvictionStrategy};
use crate::job::{JobSpec, JobState};
use crate::telemetry::{SharedSink, TraceSink};
use crate::trace::{Fields, TraceKind, TraceParseError};

/// One injectable fault.
///
/// Faults with a `duration` open a window starting at the entry's time;
/// instantaneous faults arm a one-shot effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Control-message loss: coordinator polls scheduled inside the window
    /// are dropped (each emits [`TraceKind::ChaosPollLost`]). The cadence
    /// gap stays a whole multiple of the poll interval, exactly like
    /// coordinator-host downtime.
    CtrlLoss {
        /// Window length.
        duration: SimDuration,
    },
    /// Control-message delay: the next on-grid poll is skipped and its
    /// body runs `delay` later (off the grid), announced by
    /// [`TraceKind::ChaosPollDelayed`]. The poll after it is back on the
    /// grid.
    CtrlDelay {
        /// How late the delayed poll body runs. Avoid whole multiples of
        /// the poll interval, which would collide with an on-grid poll.
        delay: SimDuration,
    },
    /// Control-message duplication: the next executed poll receives a
    /// duplicate of its own request, detects it by sequence number, and
    /// discards it ([`TraceKind::ChaosDupDropped`]) — no state changes.
    CtrlDup,
    /// Checkpoint-transfer corruption: non-gang checkpoint transfers
    /// *completing* inside the window are detected as corrupt
    /// ([`TraceKind::ChaosCkptCorrupted`]) and re-sent after a capped
    /// exponential backoff (30 s doubling per attempt up to 10 minutes,
    /// see `retry_backoff`). No work is
    /// lost; the job stays mid-checkpoint until a clean transfer lands.
    CkptCorrupt {
        /// Window length.
        duration: SimDuration,
    },
    /// Transient network partition: stations `first_station ..
    /// first_station + machines` lose contact with the coordinator for the
    /// window ([`TraceKind::ChaosLinkDown`]/[`TraceKind::ChaosLinkUp`] per
    /// station). Partitioned stations take no new placements and their
    /// queues go dark to the coordinator, but local execution — and local
    /// autonomous starts — continue.
    Partition {
        /// First station in the cut-off range.
        first_station: u32,
        /// Number of consecutive stations cut off.
        machines: u32,
        /// Window length.
        duration: SimDuration,
    },
    /// Coordinator outage: polls stop for the window
    /// ([`TraceKind::ChaosCoordDown`]/[`TraceKind::ChaosCoordUp`]), local
    /// schedulers keep running autonomously (idle home stations start
    /// their own queued jobs — [`TraceKind::ChaosLocalStart`]), and polls
    /// resume on the grid at recovery.
    CoordinatorOutage {
        /// Window length.
        duration: SimDuration,
    },
}

impl Fault {
    /// Short stable name used in the JSON encoding.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::CtrlLoss { .. } => "ctrl_loss",
            Fault::CtrlDelay { .. } => "ctrl_delay",
            Fault::CtrlDup => "ctrl_dup",
            Fault::CkptCorrupt { .. } => "ckpt_corrupt",
            Fault::Partition { .. } => "partition",
            Fault::CoordinatorOutage { .. } => "coord_outage",
        }
    }
}

/// One `(time, fault)` schedule entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEntry {
    /// Injection instant.
    pub at: SimTime,
    /// The fault injected.
    pub fault: Fault,
}

/// A time-sorted list of faults to inject — the unit of replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSchedule {
    /// Entries, sorted ascending by [`ChaosEntry::at`].
    pub entries: Vec<ChaosEntry>,
}

/// Knobs for seed-driven schedule generation.
#[derive(Debug, Clone, Copy)]
pub struct ChaosGen {
    /// Injection times are drawn uniformly over `[0, horizon)`.
    pub horizon: SimDuration,
    /// Fleet size partitions are drawn against.
    pub stations: u32,
    /// Number of faults to draw.
    pub faults: usize,
}

impl ChaosSchedule {
    /// Derives a schedule from `seed`: `gen.faults` entries with uniform
    /// injection times, fault kinds drawn uniformly, and window lengths in
    /// fault-appropriate ranges. Deterministic — same seed, same schedule.
    pub fn generate(seed: u64, gen: &ChaosGen) -> ChaosSchedule {
        let mut rng = SimRng::seed_from(seed).substream(seed, "chaos-schedule");
        let span_ms = gen.horizon.as_millis().max(1);
        let secs = |lo: u64, hi: u64, rng: &mut SimRng| {
            SimDuration::from_secs(rng.uniform_range_u64(lo, hi))
        };
        let mut entries = Vec::with_capacity(gen.faults);
        for _ in 0..gen.faults {
            let at = SimTime::from_millis(rng.uniform_range_u64(0, span_ms));
            let fault = match rng.index(6) {
                0 => Fault::CtrlLoss { duration: secs(120, 900, &mut rng) },
                // 5–90 s: never a whole multiple of the (minutes-scale)
                // poll interval, so the delayed poll lands off-grid.
                1 => Fault::CtrlDelay { delay: secs(5, 90, &mut rng) },
                2 => Fault::CtrlDup,
                3 => Fault::CkptCorrupt { duration: secs(300, 1800, &mut rng) },
                4 => {
                    let first_station = rng.uniform_range_u64(0, gen.stations.max(1) as u64) as u32;
                    let span = (gen.stations - first_station).max(1);
                    let machines = 1 + rng.index(span.min(3) as usize) as u32;
                    Fault::Partition { first_station, machines, duration: secs(300, 3600, &mut rng) }
                }
                _ => Fault::CoordinatorOutage { duration: secs(300, 3600, &mut rng) },
            };
            entries.push(ChaosEntry { at, fault });
        }
        entries.sort_by_key(|e| e.at);
        ChaosSchedule { entries }
    }

    /// Checks the schedule against a fleet of `stations` machines:
    /// entries sorted, windows non-zero, partitions inside the fleet.
    pub fn check(&self, stations: usize) -> Result<(), ConfigError> {
        let mut prev = SimTime::ZERO;
        for e in &self.entries {
            if e.at < prev {
                return Err(ConfigError::ChaosScheduleUnsorted);
            }
            prev = e.at;
            match e.fault {
                Fault::CtrlLoss { duration }
                | Fault::CkptCorrupt { duration }
                | Fault::CoordinatorOutage { duration } => {
                    if duration.is_zero() {
                        return Err(ConfigError::ChaosZeroDuration);
                    }
                }
                Fault::CtrlDelay { delay } => {
                    if delay.is_zero() {
                        return Err(ConfigError::ChaosZeroDuration);
                    }
                }
                Fault::CtrlDup => {}
                Fault::Partition { first_station, machines, duration } => {
                    if duration.is_zero() {
                        return Err(ConfigError::ChaosZeroDuration);
                    }
                    if machines == 0 {
                        return Err(ConfigError::ChaosPartitionZeroMachines);
                    }
                    if first_station as usize + machines as usize > stations {
                        return Err(ConfigError::ChaosPartitionOutsideFleet {
                            first_station,
                            machines,
                            stations,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the schedule as one line of JSON.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"at_ms\":{},\"fault\":\"{}\"", e.at.as_millis(), e.fault.name());
            match e.fault {
                Fault::CtrlLoss { duration }
                | Fault::CkptCorrupt { duration }
                | Fault::CoordinatorOutage { duration } => {
                    let _ = write!(s, ",\"duration_ms\":{}", duration.as_millis());
                }
                Fault::CtrlDelay { delay } => {
                    let _ = write!(s, ",\"delay_ms\":{}", delay.as_millis());
                }
                Fault::CtrlDup => {}
                Fault::Partition { first_station, machines, duration } => {
                    let _ = write!(
                        s,
                        ",\"first_station\":{first_station},\"machines\":{machines},\"duration_ms\":{}",
                        duration.as_millis()
                    );
                }
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Parses a schedule produced by [`ChaosSchedule::to_json`].
    pub fn from_json(text: &str) -> Result<ChaosSchedule, ChaosParseError> {
        let start = text
            .find("\"entries\"")
            .ok_or_else(|| ChaosParseError::Malformed("no \"entries\" key".into()))?;
        let rest = &text[start..];
        let open = rest
            .find('[')
            .ok_or_else(|| ChaosParseError::Malformed("no entries array".into()))?;
        let close = rest
            .rfind(']')
            .ok_or_else(|| ChaosParseError::Malformed("unterminated entries array".into()))?;
        if close < open {
            return Err(ChaosParseError::Malformed("unterminated entries array".into()));
        }
        let body = &rest[open + 1..close];
        let mut entries = Vec::new();
        let mut depth = 0usize;
        let mut obj_start = 0usize;
        for (i, c) in body.char_indices() {
            match c {
                '{' => {
                    if depth == 0 {
                        obj_start = i;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| ChaosParseError::Malformed("unbalanced braces".into()))?;
                    if depth == 0 {
                        entries.push(parse_entry(&body[obj_start..=i])?);
                    }
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(ChaosParseError::Malformed("unbalanced braces".into()));
        }
        Ok(ChaosSchedule { entries })
    }
}

fn parse_entry(obj: &str) -> Result<ChaosEntry, ChaosParseError> {
    let f = Fields::parse(obj)?;
    let at = SimTime::from_millis(f.u64("at_ms")?);
    let ms = |name| f.u64(name).map(SimDuration::from_millis);
    let fault = match f.str("fault")? {
        "ctrl_loss" => Fault::CtrlLoss { duration: ms("duration_ms")? },
        "ctrl_delay" => Fault::CtrlDelay { delay: ms("delay_ms")? },
        "ctrl_dup" => Fault::CtrlDup,
        "ckpt_corrupt" => Fault::CkptCorrupt { duration: ms("duration_ms")? },
        "partition" => Fault::Partition {
            first_station: f.u32("first_station")?,
            machines: f.u32("machines")?,
            duration: ms("duration_ms")?,
        },
        "coord_outage" => Fault::CoordinatorOutage { duration: ms("duration_ms")? },
        other => return Err(ChaosParseError::UnknownFault(other.into())),
    };
    Ok(ChaosEntry { at, fault })
}

/// Why a chaos-schedule JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosParseError {
    /// Structurally broken document.
    Malformed(String),
    /// Unrecognized fault name.
    UnknownFault(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// A field value failed to parse.
    BadValue(&'static str, String),
}

impl std::fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosParseError::Malformed(why) => write!(f, "malformed chaos schedule: {why}"),
            ChaosParseError::UnknownFault(k) => write!(f, "unknown chaos fault: {k}"),
            ChaosParseError::MissingField(name) => write!(f, "missing chaos field: {name}"),
            ChaosParseError::BadValue(name, v) => {
                write!(f, "bad value for chaos field {name}: {v}")
            }
        }
    }
}

impl std::error::Error for ChaosParseError {}

/// An entry's errors, as the flat-object reader it is read with reports
/// them. That reader names no kinds, so it never reports `UnknownKind`.
impl From<TraceParseError> for ChaosParseError {
    fn from(e: TraceParseError) -> Self {
        match e {
            TraceParseError::Malformed(s) | TraceParseError::UnknownKind(s) => {
                ChaosParseError::Malformed(s)
            }
            TraceParseError::MissingField(name) => ChaosParseError::MissingField(name),
            TraceParseError::BadValue(name, v) => ChaosParseError::BadValue(name, v),
        }
    }
}

/// First checkpoint-retry backoff; it doubles per corrupted attempt.
const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_secs(30);
/// Cap on the checkpoint-retry backoff.
const RETRY_BACKOFF_MAX: SimDuration = SimDuration::from_minutes(10);

/// How long after its `attempt`-th corrupted transfer (from 1) a
/// checkpoint is re-sent: [`RETRY_BACKOFF_BASE`] doubling per attempt,
/// capped at [`RETRY_BACKOFF_MAX`].
pub(crate) fn retry_backoff(attempt: u32) -> SimDuration {
    let factor = 1u64 << (attempt - 1).min(20);
    SimDuration::from_millis(
        RETRY_BACKOFF_MAX.as_millis().min(RETRY_BACKOFF_BASE.as_millis().saturating_mul(factor)),
    )
}

/// Splits a chaos schedule across pool shards (see [`crate::shard`]).
///
/// Station-scoped faults ([`Fault::Partition`]) go to every pool whose
/// station range they intersect, with `first_station` remapped to
/// shard-local ids and the machine count clipped to the overlap.
/// Control-plane faults ([`Fault::CtrlLoss`], [`Fault::CtrlDelay`],
/// [`Fault::CtrlDup`], [`Fault::CoordinatorOutage`]) hit exactly one
/// coordinator, so they go to pool 0, whose station 0 holds the global
/// coordinator. [`Fault::CkptCorrupt`] models shared-medium corruption and
/// broadcasts to every pool. Entry order is preserved within each shard,
/// so a one-pool topology gets back a schedule identical to the input.
pub fn route_to_pools(
    schedule: &ChaosSchedule,
    ranges: &[std::ops::Range<usize>],
) -> Vec<ChaosSchedule> {
    let mut out = vec![ChaosSchedule::default(); ranges.len()];
    for entry in &schedule.entries {
        match entry.fault {
            Fault::Partition { first_station, machines, duration } => {
                let lo = first_station as usize;
                let hi = lo + machines as usize;
                for (p, range) in ranges.iter().enumerate() {
                    let s = lo.max(range.start);
                    let e = hi.min(range.end);
                    if s < e {
                        out[p].entries.push(ChaosEntry {
                            at: entry.at,
                            fault: Fault::Partition {
                                first_station: (s - range.start) as u32,
                                machines: (e - s) as u32,
                                duration,
                            },
                        });
                    }
                }
            }
            Fault::CkptCorrupt { .. } => {
                for shard in &mut out {
                    shard.entries.push(*entry);
                }
            }
            Fault::CtrlLoss { .. }
            | Fault::CtrlDelay { .. }
            | Fault::CtrlDup
            | Fault::CoordinatorOutage { .. } => {
                out[0].entries.push(*entry);
            }
        }
    }
    out
}

/// Conservation checks over a finished run: work delivered, work lost,
/// and bus/rollback accounting reconciled against the trace.
///
/// Returns one human-readable line per breach (empty = balanced). The
/// trace-based bus reconciliation needs `record_trace: true`; it is
/// skipped on trace-less runs.
pub fn verify_conservation(config: &ClusterConfig, out: &RunOutput) -> Vec<String> {
    let mut bad = Vec::new();
    for job in &out.jobs {
        if job.state == JobState::Completed && job.work_done < job.spec.demand {
            bad.push(format!(
                "job {} completed with {} of {} demand delivered",
                job.spec.id.0,
                job.work_done,
                job.spec.demand
            ));
        }
    }
    // Under grace-then-checkpoint with no station crashes, no fault in
    // this module may lose work: corrupted transfers are re-sent, not
    // dropped, and outages only defer placement.
    let lossless = matches!(config.eviction, EvictionStrategy::GraceThenCheckpoint { .. })
        && config.failures.is_none();
    if lossless {
        for job in &out.jobs {
            if !job.work_lost.is_zero() {
                bad.push(format!("job {} lost {} of work", job.spec.id.0, job.work_lost));
            }
        }
    }
    if out.trace.is_empty() {
        return bad;
    }
    // Every transfer put on the bus is announced by exactly one trace
    // event: a placement fan-out member, a checkpoint-out, or a corrupted
    // transfer's retry. A missing retry (a lost transfer) or a double
    // booking breaks these equalities.
    let mut transfers = 0u64;
    let mut bytes = 0u64;
    let mut rollbacks = 0u64;
    for ev in out.trace.events() {
        match ev.kind {
            TraceKind::PlacementStarted { job, .. } => {
                transfers += 1;
                bytes += out.jobs[job.0 as usize].spec.image_bytes;
            }
            TraceKind::CheckpointStarted { bytes: b, .. } => {
                transfers += 1;
                bytes += b;
            }
            // A corruption books its re-send one backoff later — but only
            // if that instant is still inside the run. A retry pending at
            // the horizon is patience, not loss.
            TraceKind::ChaosCkptCorrupted { job, attempt, .. }
                if ev.at + retry_backoff(attempt) < out.horizon =>
            {
                transfers += 1;
                bytes += out.jobs[job.0 as usize].spec.image_bytes;
            }
            TraceKind::PeriodicCheckpoint { job, .. } => {
                transfers += 1;
                bytes += out.jobs[job.0 as usize].spec.image_bytes;
            }
            TraceKind::CrashRollback { .. } => rollbacks += 1,
            _ => {}
        }
    }
    if transfers != out.bus_transfers {
        bad.push(format!(
            "bus booked {} transfers but the trace accounts for {transfers}",
            out.bus_transfers
        ));
    }
    if bytes != out.bus_bytes_moved {
        bad.push(format!(
            "bus moved {} bytes but the trace accounts for {bytes}",
            out.bus_bytes_moved
        ));
    }
    if rollbacks != out.totals.crash_rollbacks {
        bad.push(format!(
            "totals count {} crash rollbacks but the trace has {rollbacks}",
            out.totals.crash_rollbacks
        ));
    }
    bad
}

/// Runs `base` (+ `schedule`) over `specs`, auditing online and checking
/// conservation. Returns one line per violation; empty means clean.
pub fn verify_schedule(
    base: &ClusterConfig,
    specs: &[JobSpec],
    horizon: SimDuration,
    schedule: &ChaosSchedule,
) -> Vec<String> {
    let mut config = base.clone();
    config.chaos = Some(schedule.clone());
    config.record_trace = true;
    let audit = SharedSink::new(
        AuditSink::new()
            .with_poll_interval(config.costs.coordinator_poll_interval)
            .with_pools(config.topology.as_ref().map_or(1, |t| t.pools)),
    );
    let handle = audit.clone();
    let out = Run::new(config.clone())
        .specs(specs.to_vec())
        .horizon(horizon)
        .sink(Box::new(audit) as Box<dyn TraceSink + Send>)
        .execute();
    let mut failures: Vec<String> =
        handle.with(|a| a.violations().iter().map(|v| v.to_string()).collect());
    let total = handle.with(|a| a.total_violations());
    if total as usize > failures.len() {
        failures.push(format!("… and {} more audit violations", total as usize - failures.len()));
    }
    failures.extend(verify_conservation(&config, &out));
    failures
}

/// Greedily minimizes a failing schedule: repeatedly drop any single entry
/// whose removal preserves the failure, until no removal does.
///
/// The result still fails [`verify_schedule`] (assuming `schedule` did)
/// and is 1-minimal: dropping any one remaining entry makes the run pass.
pub fn shrink_schedule(
    base: &ClusterConfig,
    specs: &[JobSpec],
    horizon: SimDuration,
    schedule: &ChaosSchedule,
) -> ChaosSchedule {
    let mut current = schedule.clone();
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.entries.len() {
            let mut candidate = current.clone();
            candidate.entries.remove(i);
            if !verify_schedule(base, specs, horizon, &candidate).is_empty() {
                current = candidate;
                removed_any = true;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            return current;
        }
    }
}

/// A failing seed found by [`explore`], with its minimal reproduction.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The seed whose generated schedule failed.
    pub seed: u64,
    /// The schedule as generated.
    pub schedule: ChaosSchedule,
    /// The 1-minimal shrunk schedule (still failing).
    pub shrunk: ChaosSchedule,
    /// Violations from the original failing run.
    pub violations: Vec<String>,
}

/// Outcome of an [`explore`] sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Seeded schedules run.
    pub cases: usize,
    /// Failures found, each with a shrunk reproduction.
    pub failures: Vec<ChaosFailure>,
}

impl ExploreReport {
    /// Whether every seeded schedule ran clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one generated schedule per seed against `base` + `specs`,
/// verifying audit-cleanliness and conservation, and shrinking every
/// failure to a minimal replayable schedule.
pub fn explore(
    base: &ClusterConfig,
    specs: &[JobSpec],
    horizon: SimDuration,
    gen: &ChaosGen,
    seeds: impl IntoIterator<Item = u64>,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    for seed in seeds {
        report.cases += 1;
        let schedule = ChaosSchedule::generate(seed, gen);
        let violations = verify_schedule(base, specs, horizon, &schedule);
        if !violations.is_empty() {
            let shrunk = shrink_schedule(base, specs, horizon, &schedule);
            report.failures.push(ChaosFailure { seed, schedule, shrunk, violations });
        }
    }
    report
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! Intentional protocol mutations, compiled only into unit tests, so
    //! the harness can prove it catches broken recovery paths.
    use std::cell::Cell;

    thread_local! {
        /// When set, a corrupted checkpoint transfer is detected but the
        /// retry is never booked — the transfer is silently lost.
        pub static BREAK_CKPT_RETRY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with the broken-retry mutation enabled.
    pub(crate) fn with_broken_ckpt_retry<R>(f: impl FnOnce() -> R) -> R {
        BREAK_CKPT_RETRY.with(|b| b.set(true));
        let out = f();
        BREAK_CKPT_RETRY.with(|b| b.set(false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Run;
    use crate::job::{JobId, UserId};
    use condor_model::diurnal::DiurnalProfile;
    use condor_model::owner::OwnerConfig;
    use condor_net::NodeId;

    fn gen(stations: u32, faults: usize) -> ChaosGen {
        ChaosGen { horizon: SimDuration::from_days(4), stations, faults }
    }

    #[test]
    fn generation_is_deterministic_sorted_and_valid() {
        let g = gen(23, 12);
        let a = ChaosSchedule::generate(7, &g);
        let b = ChaosSchedule::generate(7, &g);
        assert_eq!(a, b);
        assert_eq!(a.entries.len(), 12);
        assert!(a.entries.windows(2).all(|w| w[0].at <= w[1].at));
        a.check(23).expect("generated schedules are valid");
        assert_ne!(a, ChaosSchedule::generate(8, &g));
    }

    #[test]
    fn json_round_trips_exactly() {
        for seed in 0..20 {
            let schedule = ChaosSchedule::generate(seed, &gen(23, 9));
            let replayed = ChaosSchedule::from_json(&schedule.to_json()).expect("parses");
            assert_eq!(schedule, replayed, "seed {seed}");
        }
        // Empty schedules round-trip too.
        let empty = ChaosSchedule::default();
        assert_eq!(ChaosSchedule::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn json_parse_errors_are_typed() {
        assert!(matches!(
            ChaosSchedule::from_json("{}"),
            Err(ChaosParseError::Malformed(_))
        ));
        assert!(matches!(
            ChaosSchedule::from_json(r#"{"entries":[{"at_ms":5,"fault":"nope"}]}"#),
            Err(ChaosParseError::UnknownFault(_))
        ));
        assert!(matches!(
            ChaosSchedule::from_json(r#"{"entries":[{"fault":"ctrl_dup"}]}"#),
            Err(ChaosParseError::MissingField("at_ms"))
        ));
        assert!(matches!(
            ChaosSchedule::from_json(r#"{"entries":[{"at_ms":5,"fault":"ctrl_loss"}]}"#),
            Err(ChaosParseError::MissingField("duration_ms"))
        ));
        assert!(matches!(
            ChaosSchedule::from_json(r#"{"entries":[{"at_ms":12abc,"fault":"ctrl_dup"}]}"#),
            Err(ChaosParseError::BadValue("at_ms", _))
        ));
    }

    #[test]
    fn schedule_check_rejects_bad_shapes() {
        let at = SimTime::from_secs(10);
        let dur = SimDuration::MINUTE;
        let unsorted = ChaosSchedule {
            entries: vec![
                ChaosEntry { at: SimTime::from_secs(20), fault: Fault::CtrlDup },
                ChaosEntry { at, fault: Fault::CtrlDup },
            ],
        };
        assert_eq!(unsorted.check(4), Err(ConfigError::ChaosScheduleUnsorted));
        let zero = ChaosSchedule {
            entries: vec![ChaosEntry { at, fault: Fault::CtrlLoss { duration: SimDuration::ZERO } }],
        };
        assert_eq!(zero.check(4), Err(ConfigError::ChaosZeroDuration));
        let outside = ChaosSchedule {
            entries: vec![ChaosEntry {
                at,
                fault: Fault::Partition { first_station: 3, machines: 2, duration: dur },
            }],
        };
        assert_eq!(
            outside.check(4),
            Err(ConfigError::ChaosPartitionOutsideFleet {
                first_station: 3,
                machines: 2,
                stations: 4
            })
        );
        ChaosSchedule::default().check(4).expect("the empty schedule is valid");
    }

    /// Busy, flappy owners so evictions — and checkpoint traffic — happen.
    fn stormy(stations: usize) -> ClusterConfig {
        ClusterConfig {
            stations,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.5),
                mean_active_period: SimDuration::from_minutes(8),
            },
            ..ClusterConfig::default()
        }
    }

    fn jobs(n: u64, stations: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                image_bytes: 400_000,
                ..JobSpec::new(
                    JobId(i),
                    UserId(0),
                    NodeId::new((i % stations) as u32),
                    SimTime::from_secs(600 * i),
                    SimDuration::from_hours(2),
                )
            })
            .collect()
    }

    /// The whole-run corruption window used by the broken-path tests.
    fn corrupt_everything() -> ChaosSchedule {
        ChaosSchedule {
            entries: vec![ChaosEntry {
                at: SimTime::ZERO,
                fault: Fault::CkptCorrupt { duration: SimDuration::from_days(30) },
            }],
        }
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_no_chaos() {
        let horizon = SimDuration::from_days(2);
        let plain = Run::new(stormy(6)).specs(jobs(8, 6)).horizon(horizon).execute();
        let chaotic = Run::new(ClusterConfig {
                chaos: Some(ChaosSchedule::default()),
                ..stormy(6)
            })
            .specs(jobs(8, 6))
            .horizon(horizon)
            .execute();
        assert_eq!(plain.trace.len(), chaotic.trace.len());
        for (a, b) in plain.trace.events().iter().zip(chaotic.trace.events()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn working_retry_path_survives_corruption_cleanly() {
        let base = stormy(6);
        let specs = jobs(10, 6);
        let horizon = SimDuration::from_days(4);
        let schedule = corrupt_everything();
        let violations = verify_schedule(&base, &specs, horizon, &schedule);
        assert!(violations.is_empty(), "{violations:?}");
        // The window must actually bite for this test to mean anything.
        let mut config = base;
        config.chaos = Some(schedule);
        let out = Run::new(config).specs(specs).horizon(horizon).execute();
        assert!(
            out.totals.ckpt_retries > 0,
            "corruption window never hit a checkpoint: {:?}",
            out.totals
        );
    }

    #[test]
    fn broken_retry_is_caught_and_shrinks_to_one_fault() {
        let base = stormy(6);
        let specs = jobs(10, 6);
        let horizon = SimDuration::from_days(4);
        // Pad the failing schedule with faults that are individually
        // harmless, so shrinking has something to strip.
        let mut schedule = corrupt_everything();
        schedule.entries.push(ChaosEntry {
            at: SimTime::from_hours(5),
            fault: Fault::CtrlDup,
        });
        schedule.entries.push(ChaosEntry {
            at: SimTime::from_hours(9),
            fault: Fault::CoordinatorOutage { duration: SimDuration::from_minutes(10) },
        });
        test_hooks::with_broken_ckpt_retry(|| {
            let violations = verify_schedule(&base, &specs, horizon, &schedule);
            assert!(!violations.is_empty(), "broken retry must be caught");
            let shrunk = shrink_schedule(&base, &specs, horizon, &schedule);
            assert_eq!(shrunk.entries.len(), 1, "shrunk: {shrunk:?}");
            assert!(matches!(shrunk.entries[0].fault, Fault::CkptCorrupt { .. }));
            // The shrunk schedule replays the failure through JSON.
            let replayed = ChaosSchedule::from_json(&shrunk.to_json()).unwrap();
            assert_eq!(replayed, shrunk);
            assert!(!verify_schedule(&base, &specs, horizon, &replayed).is_empty());
        });
        // With the mutation off, the very same schedule passes.
        assert!(verify_schedule(&base, &specs, horizon, &schedule).is_empty());
    }

    #[test]
    fn explore_runs_clean_on_healthy_protocol() {
        let base = stormy(6);
        let specs = jobs(8, 6);
        let report = explore(
            &base,
            &specs,
            SimDuration::from_days(2),
            &gen(6, 5),
            1000..1006,
        );
        assert_eq!(report.cases, 6);
        assert!(
            report.is_clean(),
            "failures: {:?}",
            report.failures.iter().map(|f| (&f.seed, &f.violations)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn route_to_pools_splits_station_faults_and_pins_control_faults() {
        let schedule = ChaosSchedule {
            entries: vec![
                ChaosEntry {
                    at: SimTime::from_hours(1),
                    fault: Fault::Partition {
                        first_station: 2,
                        machines: 4,
                        duration: SimDuration::from_minutes(5),
                    },
                },
                ChaosEntry {
                    at: SimTime::from_hours(2),
                    fault: Fault::CtrlLoss { duration: SimDuration::MINUTE },
                },
                ChaosEntry {
                    at: SimTime::from_hours(3),
                    fault: Fault::CkptCorrupt { duration: SimDuration::MINUTE },
                },
            ],
        };
        // One pool: routing is the identity, entry for entry.
        let whole = route_to_pools(&schedule, std::slice::from_ref(&(0..8)));
        assert_eq!(whole, std::slice::from_ref(&schedule));

        // Two pools of four stations each; pool 0 holds the coordinator.
        let routed = route_to_pools(&schedule, &[0..4, 4..8]);
        assert_eq!(routed.len(), 2);

        // The partition over global stations 2..6 splits into a local
        // 2..4 cut in pool 0 and a local 0..2 cut in pool 1.
        assert!(matches!(
            routed[0].entries[0].fault,
            Fault::Partition { first_station: 2, machines: 2, .. }
        ));
        assert!(matches!(
            routed[1].entries[0].fault,
            Fault::Partition { first_station: 0, machines: 2, .. }
        ));

        // The control-plane fault lands only in the coordinator's pool;
        // the checkpoint corruption broadcasts to both.
        assert_eq!(routed[0].entries.len(), 3);
        assert_eq!(routed[1].entries.len(), 2);
        assert!(matches!(routed[0].entries[1].fault, Fault::CtrlLoss { .. }));
        assert!(matches!(routed[0].entries[2].fault, Fault::CkptCorrupt { .. }));
        assert!(matches!(routed[1].entries[1].fault, Fault::CkptCorrupt { .. }));

        // Each routed shard schedule stays valid for its local fleet.
        for shard in &routed {
            shard.check(4).expect("routed shard schedules stay valid");
        }
    }
}
