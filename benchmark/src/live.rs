//! The two live workloads: the threaded `condor-runtime` pool driven from
//! the benchmark thread (no generator thread; the pool's two workers are
//! the only other busy threads).

use std::time::{Duration, Instant};

use condor_runtime::program::{run_to_completion, SeriesSum};
use condor_runtime::runtime::{Runtime, RuntimeConfig, RuntimeReport};
use condor_sim::rng::SimRng;

use crate::run::{Bench, Iteration, Options, Report};
use crate::spans::Tracer;
use crate::{ms, stats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveKind {
    /// Submit one small job, wait for its result.
    Turnaround,
    /// Two long jobs, both evicted past grace by returning owners,
    /// checkpointed home, re-placed and run to completion.
    Churn,
}

pub const WORKERS: usize = 2;
const MODULUS: u64 = 1_000_003;
/// No round comes near this; a round that does is reported unfinished.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);
/// Churn: run, owners return, wait past the 12 ms grace, owners leave.
const CHURN_HEAD: Duration = Duration::from_millis(15);
const CHURN_OWNERS_ACTIVE: Duration = Duration::from_millis(25);
const CHURN_STALL_STEP: Duration = Duration::from_millis(5);

pub fn pool_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: WORKERS,
        slice_units: 1_000,
        poll_interval: Duration::from_millis(5),
        grace: Duration::from_millis(12),
        ..RuntimeConfig::default()
    }
}

impl LiveKind {
    /// (programs generated, work units of the middle one, rounds a pool
    /// serves before it is replaced). A pool keeps every job it ever ran
    /// and scans them each loop, so it is replaced — outside the timed
    /// region — before that scan shows in a round. The small program runs
    /// for about half the coordinator's 1 ms sleep: at 200 000 units it
    /// finishes right at the wake-up and the median flips between one
    /// sleep and two from run to run.
    fn sizes(self) -> (usize, u64, usize) {
        match self {
            LiveKind::Turnaround => (64, 100_000, 256),
            LiveKind::Churn => (4, 20_000_000, 32),
        }
    }

    pub fn jobs_per_round(self) -> usize {
        match self {
            LiveKind::Turnaround => 1,
            LiveKind::Churn => 2,
        }
    }
}

/// A generated program with the result an uninterrupted run gives.
#[derive(Debug, Clone)]
pub struct Program {
    pub program: SeriesSum,
    pub units: u64,
    pub expect: Vec<u8>,
}

/// Programs within ±2 % of the workload's size, drawn from the seed, each
/// with its solo reference result; also the median solo wall in ms.
pub fn generate(kind: LiveKind, seed: u64) -> (Vec<Program>, f64) {
    let (count, units, _) = kind.sizes();
    let mut rng = SimRng::seed_from(seed).substream(seed, "live-programs");
    let mut solo_ms = Vec::with_capacity(count);
    let programs = (0..count)
        .map(|_| {
            let units = rng.uniform_range_u64(units - units / 50, units + units / 50);
            let program = SeriesSum::new(units, MODULUS);
            let t0 = Instant::now();
            let expect = run_to_completion(&mut program.clone());
            solo_ms.push(ms(t0.elapsed()));
            Program {
                program,
                units,
                expect,
            }
        })
        .collect();
    (programs, stats::median_of(&solo_ms))
}

/// Pool counters summed over every pool a run has shut down.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub rounds: u64,
    pub polls: u64,
    pub migrations: u64,
    pub interruptions: u64,
    pub resumes_in_place: u64,
    pub units_required: u64,
    pub units_executed: u64,
}

#[derive(Debug)]
pub struct LiveBench {
    pub kind: LiveKind,
    pub programs: Vec<Program>,
    pub solo_ms: f64,
    /// Off in the untraced run; the traced run records the same calls.
    pub tracer: Tracer,
    rt: Option<Runtime>,
    /// The running pool's latest (cumulative) report.
    last: Option<RuntimeReport>,
    rounds_on_pool: usize,
    pub retired: Counters,
}

impl LiveBench {
    pub fn new(kind: LiveKind, seed: u64, mut tracer: Tracer) -> Self {
        let (programs, solo_ms) = tracer.span("workload.gen", |_| generate(kind, seed));
        let rt = tracer.span("runtime.new", |_| Runtime::new(pool_config()));
        LiveBench {
            kind,
            programs,
            solo_ms,
            tracer,
            rt: Some(rt),
            last: None,
            rounds_on_pool: 0,
            retired: Counters::default(),
        }
    }

    /// Shuts the running pool down and folds its counters into `retired`.
    pub fn retire(&mut self) {
        if let Some(r) = self.last.take() {
            self.retired.polls += r.polls;
            self.retired.migrations += r.migrations;
            self.retired.interruptions += r.interruptions;
            self.retired.resumes_in_place += r.resumes_in_place;
        }
        if let Some(rt) = self.rt.take() {
            self.retired.units_executed += self.tracer.span("runtime.shutdown", |_| rt.shutdown());
        }
        self.rounds_on_pool = 0;
    }

    /// One round of the closed loop, with its output check.
    pub fn round(&mut self, i: usize) -> Iteration {
        if self.rounds_on_pool >= self.kind.sizes().2 {
            self.retire();
        }
        let kind = self.kind;
        let per_round = kind.jobs_per_round();
        let picked: Vec<Program> = (0..per_round)
            .map(|k| self.programs[(i * per_round + k) % self.programs.len()].clone())
            .collect();
        let tracer = &mut self.tracer;
        let rt = self
            .rt
            .get_or_insert_with(|| tracer.span("runtime.new", |_| Runtime::new(pool_config())));
        let migrations_before = self.last.as_ref().map_or(0, |r| r.migrations);

        tracer.set_iteration(i as u32);
        let t0 = Instant::now();
        let (ids, report) = tracer.span("round", |t| {
            let ids: Vec<u64> = picked
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    t.span("runtime.submit", |_| {
                        rt.submit((i + k) % WORKERS, &p.program)
                    })
                })
                .collect();
            if kind == LiveKind::Churn {
                t.span("runtime.run", |_| rt.run(CHURN_HEAD));
                t.span("owner.set", |_| {
                    (0..WORKERS).for_each(|w| rt.set_owner_active(w, true))
                });
                let mut evicting = t.span("runtime.run", |_| rt.run(CHURN_OWNERS_ACTIVE));
                // 25 ms is twice the grace, but a stalled host can eat it:
                // the owners stay until an eviction has been seen, so the
                // stall lengthens the round instead of failing it.
                let began = Instant::now();
                while evicting.migrations == migrations_before && began.elapsed() < ROUND_DEADLINE
                {
                    evicting = t.span("runtime.run", |_| rt.run(CHURN_STALL_STEP));
                }
                t.span("owner.set", |_| {
                    (0..WORKERS).for_each(|w| rt.set_owner_active(w, false))
                });
            }
            let report = t.span("runtime.run", |_| rt.run(ROUND_DEADLINE));
            (ids, report)
        });
        let wall = t0.elapsed();

        let mut check = Ok(());
        for (id, p) in ids.iter().zip(&picked) {
            if report.results.get(id) != Some(&p.expect) {
                check = Err(format!(
                    "job {id} ({} units) did not return the solo result",
                    p.units
                ));
            }
        }
        if !report.unfinished.is_empty() {
            check = Err(format!("jobs {:?} unfinished", report.unfinished));
        }
        if kind == LiveKind::Churn && report.migrations == migrations_before {
            check = Err("a churn round passed without a migration".into());
        }
        let units: u64 = picked.iter().map(|p| p.units).sum();
        self.retired.rounds += 1;
        self.retired.units_required += units;
        self.rounds_on_pool += 1;
        self.last = Some(report);
        Iteration {
            wall,
            work: units as f64 / 1e6,
            check,
        }
    }
}

impl Bench for LiveBench {
    type Kind = LiveKind;

    fn set_up(kind: LiveKind, seed: u64, _quick: bool) -> (Self, Result<(), String>) {
        let mut bench = LiveBench::new(kind, seed, Tracer::off());
        let check = bench.round(0).check;
        (bench, check)
    }

    /// Every round already compares each result with the solo run.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn iterate(&mut self, i: usize) -> Iteration {
        self.round(i)
    }

    fn tear_down(mut self) {
        self.retire();
    }
}

/// The traced run of a live workload: untraced rounds for a quarter of the
/// budget (the reference for `trace.overhead_pct`), then traced rounds.
pub fn run_traced(kind: LiveKind, opts: Options, tracer: Tracer) -> (Report, Tracer) {
    let mut report = Report {
        verified: true,
        ..Report::default()
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_rounds = if opts.quick { 1 } else { 3 };

    let (mut plain, check) = LiveBench::set_up(kind, opts.seed, opts.quick);
    report.count("untraced warm-up", check);
    let mut plain_ms = Vec::new();
    let begun = Instant::now();
    while plain_ms.len() < min_rounds || begun.elapsed() < budget / 4 {
        let it = plain.round(plain_ms.len() + 1);
        report.count("untraced round", it.check);
        plain_ms.push(ms(it.wall));
    }
    plain.tear_down();

    let mut bench = LiveBench::new(kind, opts.seed, tracer);
    let gen_ms = bench.tracer.durations_ms("workload.gen");
    let mut walls = Vec::new();
    let begun = Instant::now();
    while walls.len() < min_rounds || begun.elapsed() < budget / 2 {
        let it = bench.round(walls.len());
        report.count(&format!("traced round {}", walls.len()), it.check);
        walls.push(ms(it.wall));
    }
    bench.retire();

    let c = bench.retired;
    let rounds = c.rounds as f64;
    let sorted = stats::sorted(walls);
    let p50 = stats::median(&sorted);
    let plain_p50 = stats::median_of(&plain_ms);
    let m = &mut report.metrics;
    m.put_median("workload.gen_ms", &gen_ms);
    m.put("workload.jobs", kind.jobs_per_round() as f64, 1);
    m.put("trace.iter_ms", p50, sorted.len());
    m.put(
        "trace.coverage",
        bench.tracer.coverage("round"),
        sorted.len(),
    );
    m.put(
        "trace.overhead_pct",
        (p50 / plain_p50 - 1.0) * 100.0,
        sorted.len(),
    );
    // A round's critical path is one program run alone on a worker.
    m.put(
        "runtime.sched_overhead_share",
        (p50 - bench.solo_ms) / p50,
        sorted.len(),
    );
    if let Some(p) = stats::tail_percentile(sorted.len()) {
        m.put(
            "runtime.tail_ratio",
            stats::percentile(&sorted, p) / p50,
            sorted.len(),
        );
    }
    m.put(
        "runtime.polls_per_round",
        c.polls as f64 / rounds,
        c.rounds as usize,
    );
    m.put(
        "runtime.migrations",
        c.migrations as f64 / rounds,
        c.rounds as usize,
    );
    m.put(
        "runtime.interruptions",
        c.interruptions as f64 / rounds,
        c.rounds as usize,
    );
    m.put(
        "runtime.resumes_in_place",
        c.resumes_in_place as f64 / rounds,
        c.rounds as usize,
    );
    m.put(
        "runtime.work_redo_ratio",
        c.units_executed as f64 / c.units_required as f64,
        1,
    );
    let LiveBench { tracer, .. } = bench;
    (report, tracer)
}
