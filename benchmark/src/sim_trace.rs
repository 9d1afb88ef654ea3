//! The traced run of a simulator workload: spans around the calls into
//! each layer's public functions, recorded by the benchmark itself.
//!
//! One traced iteration has up to three roots:
//! * `iter` — the untraced operation with `Run::execute` as one opaque
//!   span (`run.execute`) and, on `paper_month`, the post-processing calls
//!   as its siblings;
//! * `replica` — the same cluster built by hand, so build, prime and run
//!   get a span each (`Run::execute` minus these three is the finish);
//! * `stepped` — the replica again, dispatched one event at a time and
//!   folded per handler class.
//!
//! The sharded `fleet_pools` cannot be built by hand from outside; its
//! `iter` root holds the one- and two-thread executions instead.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use condor_core::cluster::{Cluster, Run, RunOutput};
use condor_core::telemetry::TraceSink;
use condor_core::trace::{TraceEvent, TraceKind};
use condor_sim::engine::Engine;
use condor_sim::time::SimTime;

use crate::run::{Options, Report};
use crate::sim::{digest_note, execute, Checker, Input, MonthSinks, SimBench, SimKind};
use crate::spans::Tracer;
use crate::{ms, stats, Metrics};

/// Handler classes of the stepped run, by what the handler emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Flip = 0,
    Poll = 1,
    Job = 2,
    /// Emitted nothing: stale timers, slice ends, barrier bookkeeping.
    Other = 3,
}

const FLIP_BIT: u8 = 1;
const POLL_BIT: u8 = 2;
const JOB_BIT: u8 = 4;

impl Class {
    /// A poll that also placed jobs is a poll; an owner flip that also
    /// suspended a job is a flip: the class names the event dispatched.
    pub fn of(bits: u8) -> Class {
        if bits & POLL_BIT != 0 {
            Class::Poll
        } else if bits & FLIP_BIT != 0 {
            Class::Flip
        } else if bits & JOB_BIT != 0 {
            Class::Job
        } else {
            Class::Other
        }
    }
}

/// The benchmark's own sink: flags which kinds the current handler emitted.
#[derive(Debug)]
struct ClassSink(Arc<AtomicU8>);

impl TraceSink for ClassSink {
    fn record(&mut self, ev: &TraceEvent) {
        let bit = match ev.kind {
            TraceKind::OwnerActive { .. } | TraceKind::OwnerIdle { .. } => FLIP_BIT,
            TraceKind::CoordinatorPolled { .. } => POLL_BIT,
            _ => JOB_BIT,
        };
        // One thread reads and writes the flags; the atomic only makes the
        // handle shareable with the boxed sink.
        self.0
            .store(self.0.load(Ordering::Relaxed) | bit, Ordering::Relaxed);
    }
}

/// Count and summed wall per handler class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fold {
    pub count: [u64; 4],
    pub sum_ns: [u64; 4],
    pub pending_max: usize,
}

impl Fold {
    fn add(&mut self, class: Class, ns: u64) {
        let c = class as usize;
        self.count[c] += 1;
        self.sum_ns[c] += ns;
    }
}

fn build(kind: SimKind, input: Input, flags: Option<&Arc<AtomicU8>>) -> (Engine<Cluster>, SimTime) {
    let Input {
        config,
        jobs,
        horizon,
        ..
    } = input;
    let sinks = (kind == SimKind::PaperMonth).then(|| MonthSinks::new(&config));
    let mut cluster = Cluster::try_new(config, jobs).expect("generated inputs are valid");
    if let Some(s) = sinks {
        cluster.attach_sink(Box::new(s.spans));
        cluster.attach_sink(Box::new(s.audit));
    }
    if let Some(f) = flags {
        cluster.attach_sink(Box::new(ClassSink(Arc::clone(f))));
    }
    (Engine::new(cluster), SimTime::ZERO + horizon)
}

/// Build, prime and run with a span each, as `Run::execute` does them.
fn replica(kind: SimKind, input: Input, t: &mut Tracer) {
    t.span("replica", |t| {
        let (mut engine, end) = t.span("cluster.build", |_| build(kind, input, None));
        t.span("cluster.prime", |_| Cluster::prime(&mut engine));
        t.span("cluster.run", |_| engine.run_until(end));
        std::hint::black_box(engine.events_dispatched());
    });
}

/// The replica dispatched one event at a time; each dispatch is timed and
/// folded into its class, not recorded as a span of its own.
fn stepped(kind: SimKind, input: Input, t: &mut Tracer) -> Fold {
    t.span("stepped", |t| {
        let flags = Arc::new(AtomicU8::new(0));
        let (mut engine, end) = t.span("cluster.build", |_| build(kind, input, Some(&flags)));
        t.span("cluster.prime", |_| Cluster::prime(&mut engine));
        flags.store(0, Ordering::Relaxed);
        t.span("cluster.run.stepped", |t| {
            let mut fold = Fold::default();
            while engine.next_event_time().is_some_and(|at| at < end) {
                let t0 = Instant::now();
                engine.step();
                let ns = t0.elapsed().as_nanos() as u64;
                fold.add(Class::of(flags.load(Ordering::Relaxed)), ns);
                flags.store(0, Ordering::Relaxed);
                if engine.events_dispatched() % 64 == 0 {
                    fold.pending_max = fold.pending_max.max(engine.scheduler().pending());
                }
            }
            let mut at = t.open_start_ns();
            for (name, ns) in [
                "dispatch.flip",
                "dispatch.poll",
                "dispatch.job",
                "dispatch.other",
            ]
            .into_iter()
            .zip(fold.sum_ns)
            {
                t.record(name, at, ns);
                at += ns;
            }
            fold
        })
    })
}

/// The paper-month run without the benchmark's sinks, trace on or off:
/// what the armed sinks and the trace buffer are priced against.
fn month_variant_ms(input: &Input, record_trace: bool) -> f64 {
    let mut config = input.config.clone();
    config.record_trace = record_trace;
    let t0 = Instant::now();
    std::hint::black_box(
        Run::new(config)
            .specs(input.jobs.clone())
            .horizon(input.horizon)
            .execute(),
    );
    ms(t0.elapsed())
}

fn put_run_counts(m: &mut Metrics, out: &RunOutput) {
    let t = &out.totals;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.put("cluster.events", out.events_dispatched as f64, 1);
    m.put("coord.polls", t.polls as f64, 1);
    m.put("coord.poll_memo_rate", ratio(t.poll_memo_hits, t.polls), 1);
    m.put("coord.placements", t.placements as f64, 1);
    m.put("coord.migrations", t.migrations as f64, 1);
    m.put(
        "coord.preemptions",
        (t.preemptions_owner + t.preemptions_priority) as f64,
        1,
    );
    m.put(
        "coord.wasted_grant_rate",
        ratio(
            t.placement_disk_rejections + t.arch_starvation,
            t.placements,
        ),
        1,
    );
    m.put("bus.transfers", out.bus_transfers as f64, 1);
    m.put("bus.bytes_moved", out.bus_bytes_moved as f64, 1);
    m.put("shard.jobs_forwarded", t.jobs_forwarded as f64, 1);
}

pub fn run_traced(kind: SimKind, opts: Options, mut tracer: Tracer) -> (Report, Tracer) {
    let mut report = Report {
        verified: true,
        ..Report::default()
    };
    let inputs = tracer.span("workload.gen", |_| kind.generate(opts.seed, opts.quick));
    let mut checker = Checker::new(kind, inputs.len());
    let threads = SimBench::pool_threads();
    let budget = Duration::from_secs_f64(opts.seconds).mul_f64(0.6);
    let min_iters = if opts.quick { 1 } else { 2 };

    // Counts, digest and the stepped fold come from iteration 0, the seed
    // itself, so they repeat exactly whatever number of iterations fits.
    let mut events = 0.0;
    let mut fold = Fold::default();
    let (mut bare_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let begun = Instant::now();
    let mut i = 0;
    while i < min_iters || begun.elapsed() < budget {
        let variant = i % inputs.len();
        let input = &inputs[variant];
        tracer.set_iteration(i as u32);
        let outcome = tracer.span("iter", |t| match kind {
            SimKind::FleetPools => {
                let one = t.span("shard.t1", |t| execute(kind, input.clone(), Some(1), t));
                if threads < 2 {
                    return one;
                }
                let many = t.span("shard.t2", |t| {
                    execute(kind, input.clone(), Some(threads), t)
                });
                if many.out.totals != one.out.totals
                    || many.out.events_dispatched != one.out.events_dispatched
                {
                    report.verified = false;
                    eprintln!(
                        "FAILED fleet_pools seed {}: 1 and {threads} threads disagree",
                        input.seed
                    );
                }
                many
            }
            _ => execute(kind, input.clone(), None, t),
        });
        report.count(
            &format!("{kind:?} seed {} traced iteration {i}", input.seed),
            checker.check(variant, input, &outcome),
        );
        if i == 0 {
            events = outcome.out.events_dispatched as f64;
            put_run_counts(&mut report.metrics, &outcome.out);
            if let Some(post) = &outcome.post {
                report
                    .metrics
                    .put("sink.audit_violations", post.audit_violations as f64, 1);
            }
            report.notes.push(digest_note(&outcome.out, input.seed));
        }
        // The output is dropped before the replica runs, as it would be
        // before the next untraced iteration.
        drop(outcome);
        if kind != SimKind::FleetPools {
            replica(kind, input.clone(), &mut tracer);
            let stepped_fold = stepped(kind, input.clone(), &mut tracer);
            if i == 0 {
                fold = stepped_fold;
            }
        }
        if kind == SimKind::PaperMonth {
            bare_ms.push(month_variant_ms(input, false));
            traced_ms.push(month_variant_ms(input, true));
        }
        i += 1;
    }

    let med = |t: &Tracer, name: &str| stats::median_of(&t.durations_ms(name));
    let m = &mut report.metrics;
    m.put(
        "workload.gen_ms",
        med(&tracer, "workload.gen") / inputs.len() as f64,
        inputs.len(),
    );
    m.put("workload.jobs", inputs[0].jobs.len() as f64, 1);
    let iter_ms = med(&tracer, "iter");
    m.put("trace.iter_ms", iter_ms, i);

    if kind == SimKind::FleetPools {
        let t1 = med(&tracer, "shard.t1");
        m.put("shard.mev_per_s_t1", events / t1 / 1e3, i);
        m.put("trace.coverage", tracer.coverage("iter"), i);
        // The spans wrap whole executions: nothing is added inside them.
        m.put("trace.overhead_pct", 0.0, i);
        if threads >= 2 {
            let t2 = med(&tracer, "shard.t2");
            m.put("shard.mev_per_s_t2", events / t2 / 1e3, i);
            m.put("shard.par_speedup", t1 / t2, i);
            m.put("shard.efficiency", t1 / t2 / threads as f64, i);
            m.put("cluster.mev_per_s", events / t2 / 1e3, i);
        } else {
            report.notes.push("shard.par_speedup, shard.efficiency, shard.mev_per_s_t2 omitted (read 0): the host has one core".into());
            m.put("cluster.mev_per_s", events / t1 / 1e3, i);
        }
        return (report, tracer);
    }

    let exec = med(&tracer, "run.execute");
    let (b, p, r) = (
        med(&tracer, "cluster.build"),
        med(&tracer, "cluster.prime"),
        med(&tracer, "cluster.run"),
    );
    let stepped_run = med(&tracer, "cluster.run.stepped");
    m.put("cluster.build_share", b / exec, i);
    m.put("cluster.prime_share", p / exec, i);
    m.put("cluster.run_share", r / exec, i);
    // Derived: what Run::execute spends beyond build, prime and run.
    m.put(
        "cluster.finish_share",
        (1.0 - (b + p + r) / exec).max(0.0),
        i,
    );
    m.put("cluster.mev_per_s", events / exec / 1e3, i);
    m.put("sim.queue_pending_max", fold.pending_max as f64, 1);
    let handled: u64 = fold.sum_ns.iter().sum();
    for (c, [count, share, rate]) in DISPATCH_NAMES.into_iter().enumerate() {
        m.put(count, fold.count[c] as f64, 1);
        m.put(share, fold.sum_ns[c] as f64 / handled.max(1) as f64, 1);
        let us = fold.sum_ns[c] as f64 / 1e3;
        m.put(
            rate,
            if us > 0.0 {
                fold.count[c] as f64 / us
            } else {
                0.0
            },
            1,
        );
    }
    m.put("trace.overhead_pct", (stepped_run / r - 1.0) * 100.0, i);
    // Spans measured apart from Run::execute that explain the iteration.
    let post: f64 = ["metrics.summarize", "metrics.availability", "export.jsonl"]
        .iter()
        .map(|n| med(&tracer, n))
        .sum();
    m.put(
        "trace.coverage",
        ((b + p + r).min(exec) + post) / (exec + post),
        i,
    );
    if kind == SimKind::PaperMonth {
        let (bare, traced) = (stats::median_of(&bare_ms), stats::median_of(&traced_ms));
        m.put("sinks.trace_overhead_pct", (traced / bare - 1.0) * 100.0, i);
        m.put("sinks.armed_overhead_pct", (exec / traced - 1.0) * 100.0, i);
        m.put("sinks.share", ((exec - bare) / iter_ms).max(0.0), i);
        m.put("export.share", med(&tracer, "export.jsonl") / iter_ms, i);
        m.put(
            "metrics.share",
            (med(&tracer, "metrics.summarize") + med(&tracer, "metrics.availability")) / iter_ms,
            i,
        );
    }
    (report, tracer)
}

/// Metric names per handler class, indexed by `Class as usize`.
const DISPATCH_NAMES: [[&str; 3]; 4] = [
    [
        "dispatch.flip_count",
        "dispatch.flip_share",
        "dispatch.flip_ev_per_us",
    ],
    [
        "dispatch.poll_count",
        "dispatch.poll_share",
        "dispatch.poll_ev_per_us",
    ],
    [
        "dispatch.job_count",
        "dispatch.job_share",
        "dispatch.job_ev_per_us",
    ],
    [
        "dispatch.other_count",
        "dispatch.other_share",
        "dispatch.other_ev_per_us",
    ],
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_the_event_dispatched() {
        assert_eq!(Class::of(0), Class::Other);
        assert_eq!(Class::of(JOB_BIT), Class::Job);
        assert_eq!(Class::of(FLIP_BIT | JOB_BIT), Class::Flip);
        assert_eq!(Class::of(POLL_BIT | JOB_BIT | FLIP_BIT), Class::Poll);
    }

    /// The stepped replica dispatches exactly the events `Run::execute`
    /// does, and every one lands in a class.
    #[test]
    fn stepped_replica_matches_execute() {
        let kind = SimKind::FleetLoaded;
        let input = kind.generate(3, true).remove(0);
        let out = execute(kind, input.clone(), None, &mut Tracer::off()).out;
        let fold = stepped(kind, input, &mut Tracer::recording());
        assert_eq!(fold.count.iter().sum::<u64>(), out.events_dispatched);
        assert_eq!(fold.count[Class::Poll as usize], out.totals.polls);
        assert!(fold.count[Class::Flip as usize] > 0 && fold.count[Class::Job as usize] > 0);
    }
}
