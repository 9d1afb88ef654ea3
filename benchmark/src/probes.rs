//! Layer probes: one layer's public function called in a loop, from
//! outside, shaped to the workload's fleet size where the layer's cost
//! depends on it. They run in every traced run, on every workload, so
//! each per-layer time is a measurement everywhere.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use condor_ckpt::delta::Delta;
use condor_ckpt::image::{CheckpointBuilder, CheckpointImage, SegmentKind};
use condor_ckpt::store::CheckpointStore;
use condor_core::audit::AuditSink;
use condor_core::cluster::Run;
use condor_core::policy::{decide_from_views, StationView};
use condor_core::spans::SpanSink;
use condor_core::telemetry::{StatsSink, TraceSink, VecSink};
use condor_core::updown::{UpDown, UpDownConfig};
use condor_metrics::availability::{availability_profile, AvailabilitySink};
use condor_metrics::export::{events_from_jsonl, events_to_jsonl, spans_to_chrome_trace};
use condor_metrics::summary::summarize;
use condor_model::owner::{build_fleet, OwnerConfig, OwnerProcess};
use condor_net::{BusConfig, NodeId, SharedBus};
use condor_runtime::program::{restore, run_to_completion, JobProgram, SeriesSum};
use condor_runtime::runtime::Runtime;
use condor_sim::engine::{Engine, Model, Scheduler};
use condor_sim::event::EventQueue;
use condor_sim::rng::SimRng;
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::paper_month;

use crate::live::pool_config;
use crate::spans::Tracer;
use crate::{ms, stats, Metrics};

/// Wall each probe may spend (a twentieth of it under `--quick`).
const PROBE_BUDGET: Duration = Duration::from_millis(40);

struct Prober<'a> {
    budget: Duration,
    metrics: &'a mut Metrics,
    tracer: &'a mut Tracer,
}

impl Prober<'_> {
    /// Calls `batch` (which performs `ops` operations) once to warm up,
    /// then for the budget and at least five times; returns the median
    /// batch wall divided by `ops`, in nanoseconds, and the batch count.
    fn ns_per_op(&mut self, span: &'static str, ops: u64, mut batch: impl FnMut()) -> (f64, usize) {
        batch();
        let budget = self.budget;
        let walls = self.tracer.span(span, |_| {
            let mut walls = Vec::new();
            let begun = Instant::now();
            while walls.len() < 5 || begun.elapsed() < budget {
                let t0 = Instant::now();
                batch();
                walls.push(t0.elapsed().as_nanos() as f64);
            }
            walls
        });
        (stats::median_of(&walls) / ops as f64, walls.len())
    }

    /// Measures `batch` under a span called `name` and stores the result
    /// as metric `name`; `to_value` maps nanoseconds per operation to the
    /// metric's unit.
    fn put(
        &mut self,
        name: &'static str,
        ops: u64,
        to_value: impl Fn(f64) -> f64,
        batch: impl FnMut(),
    ) {
        let (ns, n) = self.ns_per_op(name, ops, batch);
        self.metrics.put(name, to_value(ns), n);
    }
}

const NS: fn(f64) -> f64 = |ns| ns;
const US: fn(f64) -> f64 = |ns| ns / 1e3;
const MS: fn(f64) -> f64 = |ns| ns / 1e6;

/// Runs every probe. `stations` is the workload's fleet size.
pub fn run_all(
    stations: usize,
    seed: u64,
    quick: bool,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
) {
    let budget = if quick {
        PROBE_BUDGET / 20
    } else {
        PROBE_BUDGET
    };
    tracer.span("probes", |tracer| {
        let mut p = Prober {
            budget,
            metrics,
            tracer,
        };
        policy(&mut p, stations);
        sim_kernel(&mut p, stations, seed);
        owner(&mut p, stations, seed);
        bus(&mut p, stations);
        ckpt(&mut p, seed);
        recorded_month(&mut p, seed);
        runtime(&mut p);
    });
}

/// One coordinator decision over views shaped like the fleet: a third of
/// the stations free, a third hosting, waiting jobs on every second one.
fn policy(p: &mut Prober, stations: usize) {
    let views: Vec<StationView> = (0..stations)
        .map(|i| StationView {
            node: NodeId::new(i as u32),
            can_host: i % 3 == 0,
            free_cpu_milli: if i % 3 == 0 { 1000 } else { 0 },
            hosting_for: (i % 3 == 1).then(|| NodeId::new((i % 7 % stations) as u32)),
            waiting_jobs: if i % 2 == 0 { 3 } else { 0 },
        })
        .collect();
    let free: Vec<NodeId> = views
        .iter()
        .filter(|v| v.can_host)
        .map(|v| v.node)
        .collect();
    let mut updown = UpDown::new(UpDownConfig::default());
    let mut now = SimTime::ZERO;
    const DECISIONS: u64 = 16;
    p.put("policy.decide_us", DECISIONS, US, || {
        for _ in 0..DECISIONS {
            now += SimDuration::from_minutes(2);
            black_box(decide_from_views(&mut updown, now, &views, &free, 1));
        }
    });
}

struct PingPong {
    remaining: u64,
}

impl Model for PingPong {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(SimDuration::MILLISECOND, ev.wrapping_add(1));
        }
    }
}

fn sim_kernel(p: &mut Prober, stations: usize, seed: u64) {
    // Hold model: the queue keeps one entry per station, as the owner
    // process keeps it during a run; pop the earliest, schedule a successor.
    let mut rng = SimRng::seed_from(seed).substream(seed, "probe-queue");
    let mut queue = EventQueue::new();
    for i in 0..stations as u64 {
        queue.schedule(SimTime::from_millis(rng.uniform_range_u64(0, 3_600_000)), i);
    }
    const HOLD_OPS: u64 = 10_000;
    p.put("sim.queue_hold_ns", HOLD_OPS, NS, || {
        for _ in 0..HOLD_OPS {
            let (at, ev) = queue.pop().expect("hold model never drains");
            queue.schedule(
                at + SimDuration::from_millis(1 + rng.uniform_range_u64(0, 3_600_000)),
                ev,
            );
        }
    });
    p.put("sim.queue_cancel_ns", HOLD_OPS, NS, || {
        for i in 0..HOLD_OPS {
            let token = queue.schedule(SimTime::from_millis(7_200_000 + i), i);
            black_box(queue.cancel(token));
        }
    });
    const DISPATCHES: u64 = 50_000;
    p.put("sim.engine_dispatch_ns", DISPATCHES, NS, || {
        let mut engine = Engine::new(PingPong {
            remaining: DISPATCHES - 1,
        });
        engine.scheduler().at(SimTime::ZERO, 0u32);
        engine.run_to_completion();
        black_box(engine.events_dispatched());
    });
}

fn owner(p: &mut Prober, stations: usize, seed: u64) {
    let mut rng = SimRng::seed_from(seed).substream(seed, "probe-owner");
    let mut process = OwnerProcess::new(OwnerConfig::default(), &mut rng);
    let mut now = SimTime::ZERO;
    const FLIPS: u64 = 10_000;
    p.put("owner.dwell_ns", FLIPS, NS, || {
        for _ in 0..FLIPS {
            now = now + process.dwell_and_flip(now, &mut rng);
        }
        black_box(now);
    });
    // A two-station fleet builds in microseconds: batch it up.
    let builds = (10_000 / stations as u64).max(1);
    p.put("owner.fleet_build_ms", builds, MS, || {
        for _ in 0..builds {
            black_box(build_fleet(stations, &OwnerConfig::default(), 0.4, seed));
        }
    });
}

fn bus(p: &mut Prober, stations: usize) {
    let mut bus = SharedBus::new(BusConfig::default());
    let mut now = SimTime::ZERO;
    const BOOKINGS: u64 = 10_000;
    p.put("bus.book_ns", BOOKINGS, NS, || {
        for i in 0..BOOKINGS {
            now += SimDuration::from_secs(1);
            let from = NodeId::new((i % stations as u64) as u32);
            let to = NodeId::new(((i + 1) % stations as u64) as u32);
            black_box(bus.book_transfer(now, from, to, 500_000));
        }
    });
}

/// A half-megabyte image, the paper's mean: text, data and stack filled
/// from the seed so no segment compresses to nothing by accident.
fn image(seed: u64, sequence: u32, dirty_every: Option<usize>) -> CheckpointImage {
    const PAGE: usize = 4096;
    let mut rng = SimRng::seed_from(seed).substream(seed, "probe-image");
    let mut fill = |len: usize| -> Vec<u8> {
        (0..len / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect()
    };
    let (text, mut data, stack) = (fill(96 * 1024), fill(352 * 1024), fill(64 * 1024));
    if let Some(every) = dirty_every {
        for page in (0..data.len() / PAGE).step_by(every) {
            data[page * PAGE] ^= 0xff;
        }
    }
    CheckpointBuilder::new(1, sequence)
        .segment(SegmentKind::Text, 0x1000, text)
        .segment(SegmentKind::Data, 0x10_0000, data)
        .segment(SegmentKind::Stack, 0x7f00_0000, stack)
        .registers(0x2000, 0x7f00_f000, vec![0; 16])
        .build()
        .expect("probe image is quiescent")
}

fn ckpt(p: &mut Prober, seed: u64) {
    let base = image(seed, 1, None);
    // One page in twenty dirty: 5 % of the data segment changed.
    let next = image(seed, 2, Some(20));
    let frame: Bytes = base.encode();
    let mb = frame.len() as f64 / 1e6;
    let mb_per_s = move |ns: f64| mb / (ns / 1e9);
    p.put("ckpt.encode_mb_per_s", 1, mb_per_s, || {
        black_box(base.encode());
    });
    p.put("ckpt.decode_mb_per_s", 1, mb_per_s, || {
        black_box(CheckpointImage::decode(frame.clone()).expect("own frame decodes"));
    });
    p.put("ckpt.delta_diff_mb_per_s", 1, mb_per_s, || {
        black_box(Delta::diff(&base, &next));
    });
    let delta = Delta::diff(&base, &next);
    p.put("ckpt.delta_apply_mb_per_s", 1, mb_per_s, || {
        black_box(delta.apply(&base).expect("delta applies to its base"));
    });
    p.metrics.put(
        "ckpt.delta_ratio",
        delta.encoded_size() as f64 / frame.len() as f64,
        1,
    );
    let mut store = CheckpointStore::new(64 << 20);
    p.put("store.put_us", 1, US, || {
        store.put(&base).expect("store has room for one image");
    });
    p.put("store.get_us", 1, US, || {
        black_box(store.get(1).expect("image was stored"));
    });
}

/// The sinks, exporters and estimators over one recorded paper month.
fn recorded_month(p: &mut Prober, seed: u64) {
    let s = paper_month(seed);
    let stations = s.config.stations;
    let out = Run::new(s.config)
        .specs(s.jobs)
        .horizon(s.horizon)
        .execute();
    let events = out.trace.events();
    let n = events.len() as u64;
    let replay = |sink: &mut dyn TraceSink| {
        for ev in events {
            sink.record(ev);
        }
        sink.finish(out.horizon);
    };
    p.put("sink.stats_ns", n, NS, || replay(&mut StatsSink::new()));
    p.put("sink.spans_ns", n, NS, || replay(&mut SpanSink::new()));
    p.put("sink.audit_ns", n, NS, || replay(&mut AuditSink::new()));
    p.put("sink.availability_ns", n, NS, || {
        replay(&mut AvailabilitySink::new(stations))
    });
    p.put("sink.vec_ns", n, NS, || replay(&mut VecSink::new()));

    let jsonl = events_to_jsonl(events);
    let mb = jsonl.len() as f64 / 1e6;
    p.put("export.jsonl_ms", 1, MS, || {
        black_box(events_to_jsonl(events));
    });
    let jsonl_ms = p.metrics.value("export.jsonl_ms").expect("just measured");
    p.metrics
        .put("export.jsonl_mb_per_s", mb / (jsonl_ms / 1e3), 1);
    p.put("export.jsonl_parse_ms", 1, MS, || {
        black_box(events_from_jsonl(&jsonl).expect("own JSONL parses"));
    });
    let log = out.spans();
    p.put("spans.fold_ms", 1, MS, || {
        black_box(out.spans());
    });
    p.put("export.chrome_ms", 1, MS, || {
        black_box(spans_to_chrome_trace(&log));
    });
    const SUMMARIES: u64 = 16;
    p.put("metrics.summarize_ms", SUMMARIES, MS, || {
        for _ in 0..SUMMARIES {
            black_box(summarize(&out));
        }
    });
    p.put("metrics.availability_ms", 1, MS, || {
        black_box(availability_profile(&out));
    });
}

/// A pool spawned, given one small job and shut down, a few times over;
/// and the program layer alone.
fn runtime(p: &mut Prober) {
    let small = SeriesSum::new(50_000, 1_000_003);
    let (mut spawn, mut submit, mut shutdown) = (Vec::new(), Vec::new(), Vec::new());
    let reps = if p.budget < PROBE_BUDGET { 2 } else { 7 };
    p.tracer.span("runtime.probe", |_| {
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut rt = Runtime::new(pool_config());
            spawn.push(ms(t0.elapsed()));
            let t0 = Instant::now();
            let id = rt.submit(0, &small);
            submit.push(ms(t0.elapsed()) * 1e3);
            let report = rt.run(Duration::from_secs(30));
            assert!(report.results.contains_key(&id), "probe job finished");
            let t0 = Instant::now();
            black_box(rt.shutdown());
            shutdown.push(ms(t0.elapsed()));
        }
    });
    p.metrics.put_median("runtime.spawn_ms", &spawn);
    p.metrics.put_median("runtime.submit_us", &submit);
    p.metrics.put_median("runtime.shutdown_ms", &shutdown);

    const UNITS: u64 = 2_000_000;
    let munits = UNITS as f64 / 1e6;
    p.put(
        "program.munits_per_s",
        1,
        move |ns| munits / (ns / 1e9),
        || {
            black_box(run_to_completion(&mut SeriesSum::new(UNITS, 1_000_003)));
        },
    );
    let mut half = SeriesSum::new(UNITS, 1_000_003);
    half.step(UNITS / 2);
    const CYCLES: u64 = 100;
    p.put("program.snapshot_restore_us", CYCLES, US, || {
        for _ in 0..CYCLES {
            let snapshot = half.snapshot();
            black_box(restore(half.kind(), &snapshot).expect("own snapshot restores"));
        }
    });
}
