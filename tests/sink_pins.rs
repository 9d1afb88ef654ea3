//! Output pins for the two lifecycle observers, [`SpanSink`] and
//! [`AuditSink`].
//!
//! `golden_trace` pins what the simulator *emits*; this file pins what the
//! two sinks *make of it*: for every golden configuration (the paper
//! month, the 1,000-station fleet, the 13 family members) and one more
//! 4-pool sharded month, a hash over
//!
//! * the [`SpanLog`] the online `SpanSink` produced (jobs, stations,
//!   markers, horizon) and its `Breakdown`, and
//! * the `AuditSink` verdict (`events_seen`, `total_violations`, the
//!   recorded `(at, kind)` list);
//!
//! and the same hash (less the `Breakdown`) over a seeded **corruption
//! corpus** of each recorded stream — one event dropped, duplicated,
//! swapped with its successor, or retargeted at another job or station —
//! so the pins also hold the sinks' behaviour on streams no simulator
//! would emit, which is where a refactor of their state machines would
//! drift first. The corpus is required to make every
//! [`AuditViolationKind`] fire at least once.
//!
//! The values were taken from the `HashMap`-backed sinks, before the
//! dense lifecycle table replaced their maps. A change to either sink
//! that moves a pin changed what a user sees in `condor spans` /
//! `condor audit`; re-pin only with that named in the commit message.
//! Every mutant's own hashes go to stderr (`--nocapture`), so two builds
//! can be diffed mutant by mutant.

mod common;

use common::{fnv1a64, FAMILY, FNV_OFFSET, GOLDEN_SEED};
use condor_core::audit::{AuditSink, AuditViolationKind};
use condor_core::cluster::Run;
use condor_core::config::{ClusterConfig, PoolTopology};
use condor_core::spans::{SpanLog, SpanSink};
use condor_core::telemetry::{SharedSink, StatsSink, TraceSink};
use condor_core::trace::{TraceEvent, TraceKind};
use condor_model::station::ResourceVec;
use condor_sim::rng::SimRng;
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::{fairness_duel, fleet_scale, paper_month, Scenario};
use proptest::prelude::*;

/// Drawn mutants per stream; 16 streams make the corpus 256 strong before
/// the aimed ones.
const MUTANTS_PER_STREAM: usize = 16;

/// One pinned stream: its name, scenario, and the pinned worker count of
/// a sharded run (`None` leaves the runner's choice alone).
struct Stream {
    name: &'static str,
    scenario: Scenario,
    threads: Option<usize>,
}

fn streams() -> Vec<Stream> {
    let mut fleet = fleet_scale(GOLDEN_SEED, 1000, 1, 2);
    fleet.config.record_trace = true;
    let mut sharded = paper_month(GOLDEN_SEED);
    sharded.config.topology = Some(PoolTopology::uniform(4, SimDuration::from_secs(60)));
    let mut all = vec![
        Stream { name: "paper-month", scenario: paper_month(GOLDEN_SEED), threads: None },
        Stream { name: "fleet-1000", scenario: fleet, threads: None },
    ];
    all.extend(FAMILY.iter().map(|(name, build)| Stream { name, scenario: build(), threads: None }));
    all.push(Stream { name: "sharded/pools-4-window-60", scenario: sharded, threads: Some(2) });
    all
}

/// The auditor a configuration calls for: its poll cadence, its pool
/// count, and its capacity profile when stations are not whole machines.
fn auditor(config: &ClusterConfig) -> AuditSink {
    let mut audit = AuditSink::new()
        .with_poll_interval(config.costs.coordinator_poll_interval)
        .with_pools(config.topology.as_ref().map_or(1, |t| t.pools));
    let profiles = &config.capacity_profiles;
    if profiles.iter().any(|&p| p != ResourceVec::WHOLE) {
        audit = audit
            .with_capacities((0..config.stations).map(|i| profiles[i % profiles.len()]).collect());
    }
    audit
}

fn hash_text(text: &str, seed: u64) -> u64 {
    fnv1a64(text.as_bytes(), seed)
}

/// The log itself and, for a stream as emitted, its `Breakdown`. A
/// corrupted stream can complete a job before it (re-)arrives, and
/// `JobSpans::wall` measures that with `SimTime::since`, which asserts in
/// debug builds — so the mutants pin the log alone.
fn span_hash(log: &SpanLog, with_breakdown: bool) -> u64 {
    let h = hash_text(&format!("{:?}\n{:?}\n", log.jobs, log.stations), FNV_OFFSET);
    let h = hash_text(&format!("{:?}\n{:?}\n", log.markers, log.finished_at), h);
    if with_breakdown {
        hash_text(&format!("{:?}\n", log.breakdown()), h)
    } else {
        h
    }
}

fn audit_hash(audit: &AuditSink) -> u64 {
    let mut h = hash_text(
        &format!("{} {}\n", audit.events_seen(), audit.total_violations()),
        FNV_OFFSET,
    );
    for v in audit.violations() {
        h = hash_text(&format!("{:?} {:?}\n", v.at, v.kind), h);
    }
    h
}

/// Replays `events` through fresh sinks, as `condor spans/audit --jsonl`
/// would, and returns `(span hash, audit hash)`; every violation kind
/// that fired is flagged in `fired`.
fn replay(
    events: &[TraceEvent],
    horizon: SimTime,
    config: &ClusterConfig,
    clean: bool,
    fired: &mut [bool; VIOLATION_KINDS],
) -> (u64, u64) {
    let mut spans = SpanSink::new();
    let mut audit = auditor(config);
    for ev in events {
        spans.record(ev);
        audit.record(ev);
    }
    spans.finish(horizon);
    audit.finish(horizon);
    for v in audit.violations() {
        fired[violation_index(&v.kind)] = true;
    }
    (span_hash(spans.log(), clean), audit_hash(&audit))
}

const VIOLATION_KINDS: usize = 16;

fn violation_index(kind: &AuditViolationKind) -> usize {
    use AuditViolationKind as K;
    match kind {
        K::DuplicateArrival { .. } => 0,
        K::EventBeforeArrival { .. } => 1,
        K::EventAfterTerminal { .. } => 2,
        K::IllegalTransition { .. } => 3,
        K::UnmatchedCheckpointCompletion { .. } => 4,
        K::CheckpointImbalance { .. } => 5,
        K::DoubleOccupancy { .. } => 6,
        K::CapacityExceeded { .. } => 7,
        K::WrongStationRelease { .. } => 8,
        K::OwnerTransitionRepeated { .. } => 9,
        K::PollCadenceBroken { .. } => 10,
        K::PlacementThrottleBroken { .. } => 11,
        K::UnmatchedChaosRecovery { .. } => 12,
        K::DuplicateReplica { .. } => 13,
        K::UnmatchedReplicaCancel { .. } => 14,
        K::ReplicaLeaked { .. } => 15,
    }
}

/// One corruption of a recorded stream.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Drop(usize),
    Duplicate(usize),
    SwapAdjacent(usize),
    /// The event at the index, pointed at another job or station.
    Retarget(usize, TraceEvent),
}

impl Edit {
    fn at(self) -> usize {
        match self {
            Edit::Drop(i) | Edit::Duplicate(i) | Edit::SwapAdjacent(i) | Edit::Retarget(i, _) => i,
        }
    }

    fn apply(self, events: &[TraceEvent]) -> Vec<TraceEvent> {
        let mut out = events.to_vec();
        match self {
            Edit::Drop(i) => {
                out.remove(i);
            }
            Edit::Duplicate(i) => out.insert(i + 1, events[i]),
            // The two events trade places but the stamps stay sorted: a
            // stream whose clock runs backwards trips `SimTime::since`'s
            // debug assertion long before it reaches a sink's own rules.
            Edit::SwapAdjacent(i) => {
                if i + 1 < out.len() {
                    out[i].kind = events[i + 1].kind;
                    out[i + 1].kind = events[i].kind;
                }
            }
            Edit::Retarget(i, ev) => out[i] = ev,
        }
        out
    }
}

/// Rewrites the first id-valued field of `ev` among `keys` through its
/// JSONL form (the one public way to rebuild an arbitrary kind).
fn with_field(ev: &TraceEvent, keys: &[&str], value: u64) -> Option<TraceEvent> {
    let line = ev.to_jsonl();
    keys.iter().find_map(|key| {
        let needle = format!("\"{key}\":");
        let start = line.find(&needle)? + needle.len();
        let end = start + line[start..].find(|c: char| !c.is_ascii_digit())?;
        let rewritten = format!("{}{value}{}", &line[..start], &line[end..]);
        TraceEvent::from_jsonl(&rewritten).ok()
    })
}

/// The JSONL keys that carry a station id.
const STATION_KEYS: [&str; 5] = ["target", "on", "from", "station", "holder"];

/// Points `ev` at another job (or, for events that carry none, or on a
/// coin flip, another station). Mostly an id the stream already uses; one
/// time in four the far end of the id space.
fn retarget(ev: &TraceEvent, jobs: u64, stations: u64, rng: &mut SimRng) -> TraceEvent {
    let wild = rng.index(4) == 0;
    let job = if wild { u64::MAX } else { rng.index(jobs.max(1) as usize) as u64 };
    let station =
        if wild { u64::from(u32::MAX) } else { rng.index(stations.max(1) as usize) as u64 };
    let by_job = with_field(ev, &["job"], job);
    let by_station = with_field(ev, &STATION_KEYS, station);
    let pick_station = rng.index(2) == 0;
    match (by_job, by_station) {
        (Some(_), Some(s)) if pick_station => s,
        (Some(e), _) | (None, Some(e)) => e,
        (None, None) => *ev,
    }
}

/// The seeded corpus of one stream. First the draw: `(kind, edit)` pairs
/// without replacement from the kinds the stream contains (so the handful
/// of chaos, replica and forwarding events are hit as often as the tens of
/// thousands of owner transitions), each applied at a random event of
/// that kind. Then the aimed edits for the three violations only one
/// specific corruption provokes: a chaos recovery whose fault was dropped,
/// a replica spawned twice, and — a gang's second same-instant placement
/// handed to a job still waiting — two fan-outs inside one poll interval.
fn corpus(events: &[TraceEvent], stations: u64, name: &str, rng: &mut SimRng) -> Vec<Edit> {
    let mut by_kind: Vec<Vec<usize>> = vec![Vec::new(); TraceKind::COUNT];
    for (i, ev) in events.iter().enumerate() {
        by_kind[ev.kind.index()].push(i);
    }
    let jobs = events.iter().filter_map(|e| e.kind.job()).map(|j| j.0 + 1).max().unwrap_or(1);
    let mut pairs: Vec<(usize, usize)> = (0..TraceKind::COUNT)
        .filter(|&k| !by_kind[k].is_empty())
        .flat_map(|k| (0..4).map(move |op| (k, op)))
        .collect();
    rng.shuffle(&mut pairs);
    assert!(pairs.len() >= MUTANTS_PER_STREAM, "{name}: too few kinds to mutate");
    let mut edits: Vec<Edit> = pairs
        .into_iter()
        .take(MUTANTS_PER_STREAM)
        .map(|(k, op)| {
            let i = *rng.pick(&by_kind[k]);
            match op {
                0 => Edit::Drop(i),
                1 => Edit::Duplicate(i),
                2 => Edit::SwapAdjacent(i),
                _ => Edit::Retarget(i, retarget(&events[i], jobs, stations, rng)),
            }
        })
        .collect();
    let first = |pred: fn(&TraceKind) -> bool| events.iter().position(|e| pred(&e.kind));
    edits.extend(first(|k| matches!(k, TraceKind::ChaosCoordDown)).map(Edit::Drop));
    edits.extend(first(|k| matches!(k, TraceKind::ChaosLinkDown { .. })).map(Edit::Drop));
    edits.extend(first(|k| matches!(k, TraceKind::ReplicaSpawned { .. })).map(Edit::Duplicate));
    edits.extend(gang_placement_handed_to_a_waiting_job(events));
    edits
}

fn gang_placement_handed_to_a_waiting_job(events: &[TraceEvent]) -> Option<Edit> {
    let mut waiting: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            TraceKind::JobArrived { job } => waiting.push(job.0),
            TraceKind::PlacementStarted { job, .. } => {
                let second = i > 0
                    && events[i - 1].at == ev.at
                    && matches!(events[i - 1].kind, TraceKind::PlacementStarted { job: j, .. } if j == job);
                waiting.retain(|&j| j != job.0);
                if let (true, Some(&other)) = (second, waiting.first()) {
                    return with_field(ev, &["job"], other).map(|e| Edit::Retarget(i, e));
                }
            }
            _ => {}
        }
    }
    None
}

/// `(name, clean spans, clean audit, corpus)`: the online sinks' hashes on
/// the stream as emitted, and one hash folded over the stream's mutants.
type Pin = (&'static str, u64, u64, u64);

const PINS: [Pin; 16] = [
    ("paper-month", 0x5BAA510FF5F67587, 0x4F12CF22DDE65643, 0xC7FD7839BDA316BF),
    ("fleet-1000", 0x2950DA3428EA34C0, 0x2B0625BFE59890BC, 0x6136C53206EC438B),
    ("policy/up-down", 0x6DBC5A626A998EEE, 0xE92D4F05BE36D070, 0x0F62322E8D4C689C),
    ("policy/fifo", 0xE262D711FB90E8A8, 0xDDBA7AC389D80B03, 0x341617437831250F),
    ("policy/round-robin", 0xD3A8054D9C7EB8EC, 0x6C5BFAD450D2825C, 0xC49D549E7A529332),
    ("policy/random", 0x1D3009AA088D5089, 0x573226C4DEC31FE6, 0x2E172476495F36C0),
    ("policy/frac", 0x20BA3A329664E6F5, 0x59A1CF415D07EC91, 0xC1E4282ED71642F6),
    ("policy/redundant-k2", 0x6D343A68AD787DA5, 0x4AA5E6DC663F1177, 0xE3C9A3C06E55EEE7),
    ("policy/history-aware", 0x5A22E380AF7C6477, 0x822F70ED58A49AD2, 0x70D8FD138F701C0A),
    ("feature/fractional", 0x48A886D299EE8256, 0x541CE41C0A27D814, 0x8867C926BD1DD0F7),
    ("feature/chaos-12", 0x1F40F7C81529D5EC, 0xC5F3E69BB3D47DA1, 0x119CBFCBB1D09847),
    ("feature/gangs-3", 0x7FCE7F200FA6F8CE, 0x71B618A1538C5043, 0x25DF317F4CA3B441),
    ("feature/reservations", 0x879AD89DE277BA35, 0xA458D134AE376F40, 0x4B3B472D5CAA91C6),
    ("feature/failures-kill", 0xFC4BE22C7B7F4443, 0x623657DF902E23EA, 0x08B36CC0B6013872),
    ("feature/pools-4-month", 0xD5B5D8D2CA35FD5F, 0x7EF2B9D1689A215E, 0xC47A912A4CF39F3D),
    ("sharded/pools-4-window-60", 0x3129C5B9EEF36E93, 0x072BD10B64E22D6B, 0x126A84DDEA0542C1),
];

#[test]
fn span_and_audit_outputs_are_pinned_on_clean_and_corrupted_streams() {
    let mut fired = [false; VIOLATION_KINDS];
    let mut got: Vec<Pin> = Vec::new();
    for Stream { name, scenario, threads } in streams() {
        let Scenario { config, jobs, horizon, .. } = scenario;
        let stations = config.stations as u64;
        // Online: both sinks attached to the run, as `condor month` does.
        let spans = SharedSink::new(SpanSink::new());
        let audit = SharedSink::new(auditor(&config));
        let mut run = Run::new(config.clone())
            .specs(jobs)
            .horizon(horizon)
            .sink(Box::new(spans.clone()))
            .sink(Box::new(audit.clone()));
        if let Some(n) = threads {
            run = run.threads(n);
        }
        let out = run.execute();
        let clean_spans = spans.with(|s| span_hash(s.log(), true));
        let clean_audit = audit.with(|a| audit_hash(a));
        // Offline replay of the recorded stream sees what the online
        // sinks saw.
        let events = out.trace.events();
        let mut unfired = [false; VIOLATION_KINDS];
        assert_eq!(
            replay(events, out.horizon, &config, true, &mut unfired),
            (clean_spans, clean_audit),
            "{name}: replaying the recorded trace disagrees with the online sinks"
        );
        // The corruption corpus.
        let mut rng = SimRng::seed_from(GOLDEN_SEED).substream(GOLDEN_SEED, name);
        let mut folded = FNV_OFFSET;
        for edit in corpus(events, stations, name, &mut rng) {
            let (s, a) = replay(&edit.apply(events), out.horizon, &config, false, &mut fired);
            eprintln!("{name} {edit:?} was {:?}: {s:#018X} {a:#018X}", events[edit.at()].kind);
            folded = fnv1a64(&s.to_le_bytes(), folded);
            folded = fnv1a64(&a.to_le_bytes(), folded);
        }
        got.push((name, clean_spans, clean_audit, folded));
    }
    let table: Vec<String> = got
        .iter()
        .map(|(n, s, a, c)| format!("    ({n:?}, {s:#018X}, {a:#018X}, {c:#018X}),"))
        .collect();
    let silent: Vec<usize> = (0..VIOLATION_KINDS).filter(|&i| !fired[i]).collect();
    assert!(
        got == PINS && silent.is_empty(),
        "sink output pins moved, or the corpus left violation kinds (by index) {silent:?} \
         unprovoked — current values:\n{}",
        table.join("\n")
    );
}

/// Records the largest single allocation the calling thread has asked for
/// since its gauge was last zeroed; everything goes straight on to the
/// system allocator.
struct PeakAlloc;

thread_local! {
    static PEAK_ALLOC: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn note_alloc(size: usize) {
    // A thread being torn down has no gauge left; nothing to record then.
    let _ = PEAK_ALLOC.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl std::alloc::GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc(layout.size());
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A dense table must not trust an id it did not create: one extra
    /// event carrying a job and a station id from the far end of the id
    /// space, anywhere in a valid stream, is folded and audited without a
    /// panic, without an allocation sized by the id, and without touching
    /// what the sinks make of the real jobs and stations.
    #[test]
    fn an_id_the_stream_did_not_introduce_sizes_no_allocation(
        copied in 0usize..1_000_000,
        inserted in 0usize..1_000_000,
        wild in prop_oneof![Just(u64::MAX), Just(1u64 << 40), Just(u64::from(u32::MAX)), Just(1u64 << 20)],
    ) {
        let Scenario { config, jobs, horizon, .. } = fairness_duel(GOLDEN_SEED, 10, 2);
        let out = Run::new(config).specs(jobs).horizon(horizon).execute();
        let events = out.trace.events();
        let fold = |events: &[TraceEvent]| {
            let (mut spans, mut audit, mut stats) = (SpanSink::new(), AuditSink::new(), StatsSink::new());
            PEAK_ALLOC.with(|peak| peak.set(0));
            for ev in events {
                spans.record(ev);
                audit.record(ev);
                stats.record(ev);
            }
            spans.finish(out.horizon);
            audit.finish(out.horizon);
            (spans.into_log(), PEAK_ALLOC.with(|peak| peak.get()))
        };
        let (clean, clean_peak) = fold(events);
        // Some event of the stream, re-addressed to the wild job and
        // station and stamped like the event it is inserted before.
        let (template, at) = (events[copied % events.len()], inserted % events.len());
        let station = wild.min(u64::from(u32::MAX));
        let by_job = with_field(&template, &["job"], wild).unwrap_or(template);
        let mut extra = with_field(&by_job, &STATION_KEYS, station).unwrap_or(by_job);
        extra.at = events[at].at;
        let mut corrupted = events.to_vec();
        corrupted.insert(at, extra);
        let (mut log, peak) = fold(&corrupted);
        prop_assert!(
            peak <= clean_peak.max(1 << 20),
            "{extra:?} made a sink allocate {peak} bytes at once ({clean_peak} without it)"
        );
        log.jobs.retain(|job, _| job.0 != wild);
        log.stations.retain(|node, _| u64::from(node.index()) != station);
        prop_assert_eq!(&log.jobs, &clean.jobs);
        prop_assert_eq!(&log.stations, &clean.stations);
    }
}
