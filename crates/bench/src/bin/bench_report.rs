//! Machine-readable benchmark snapshot: `BENCH_cluster.json`.
//!
//! The workspace's one timing harness (`benchmark/` owns the end-to-end
//! claims): times the `cluster/*`, `engine/*` and `updown_decide/*`
//! scenarios with plain wall-clock measurement and writes one JSON file
//! so regressions are diffable in review. The engine and cluster rows
//! also report events/sec — the discrete-event kernel's throughput.
//! `engine/schedule_cancel_10k` is synthetic; `engine/loaded_churn` gives
//! the event queue the shape the repo benchmark's `fleet_loaded` run gives
//! it (see `loaded_churn`). Raw dispatch, the paper's month with and
//! without its sinks, and the live turnaround are the repo benchmark's own
//! (`sim.engine_dispatch_ns`, `paper_month`, `live_turnaround`), so no row
//! here repeats them.
//!
//! The `cluster/attrib/*` rows decompose where cluster time goes (see
//! DESIGN.md § Performance): `emit_only` is the trace/stats sink path in
//! isolation, `flips_only` is a job-free fleet with polling effectively
//! disabled (owner-transition cost), `poll_only` is a job-free, flip-free
//! fleet (pure coordinator-poll cost — all memoized after the first
//! poll), `fold_at_poll` is a job-free fleet with default owners and the
//! default poll (the owner transitions again, but folded poll-major as in
//! a real run, so it prices the fold's walk over the fleet's state, which
//! `flips_only` does not), and `queue_only` reserves almost the whole
//! fleet so arrivals queue without being placed. The `_200`/`_10k`
//! variants rerun the station-bound scenarios at larger fleets to expose
//! per-poll scaling.
//!
//! The `cluster/extra_sinks/*` and `cluster/span_audit_sinks` rows price
//! the sink fan-out: a small cluster with no, four buffering, or the two
//! lifecycle observers attached. Writing the report gates their ratio
//! (`SINK_GATE`).
//!
//! The `runtime/grant` row times the live coordinator's grant path: one
//! single-slice job submitted to a two-worker `condor-runtime` pool and
//! run until its result is back (see `live_pool`).
//!
//! The `cluster/stations/{1000,10k,100k}` rows run the fleet-scale
//! scenario serially; the `cluster/par/{1,2,4,8}` rows run the same
//! 10k-station fleet split into eight pools through the space-parallel
//! sharded runner, recording the pinned worker count per row (see
//! DESIGN.md § Parallel simulation for how to read a regression there).
//!
//! Every row reports the *fastest* of its measured iterations along with
//! `iters_measured`: fast scenarios iterate for `BENCH_REPORT_MS`, slow
//! ones (over 500 ms/iter) get up to three iterations bounded by
//! [`SLOW_CAP`], so a single descheduling spike cannot read as a
//! regression.
//!
//! Run with: `cargo run --release -p condor-bench --bin bench_report`
//! Writes `BENCH_cluster.json` in the working directory (override with
//! `BENCH_REPORT_PATH`). With `--quick`, times every scenario once,
//! checks that each event scenario reports nonzero throughput, and writes
//! nothing — the CI smoke mode.

use std::time::{Duration, Instant, SystemTime};

use condor_core::chaos::{ChaosGen, ChaosSchedule};
use condor_core::cluster::Run;
use condor_core::config::{ClusterConfig, Reservation};
use condor_core::job::{JobId, JobSpec, UserId};
use condor_core::policy::{decide_from_views, AllocationPolicy, PollInput, StationView};
use condor_core::audit::AuditSink;
use condor_core::spans::SpanSink;
use condor_core::telemetry::{RingSink, StatsSink, TraceSink, VecSink};
use condor_core::trace::{TraceEvent, TraceKind};
use condor_core::updown::{UpDown, UpDownConfig};
use condor_model::owner::OwnerConfig;
use condor_net::NodeId;
use condor_runtime::program::SeriesSum;
use condor_runtime::runtime::{Runtime, RuntimeConfig};
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::fleet_scale;

/// Bumped whenever the report's JSON shape changes incompatibly.
/// `/3`: `iters` became `iters_measured`, `wall_ms_per_iter` reports the
/// *fastest* measured iteration (min-of-N), and poll-heavy rows carry
/// `polls`/`poll_memo_hits`.
const SCHEMA: &str = "condor-bench-report/3";

/// One measured scenario: wall-clock of the best iteration, plus event
/// throughput where the scenario dispatches simulation events.
struct Row {
    name: String,
    /// Timed iterations behind `wall_ms_per_iter` (the warm-up iteration
    /// is not counted). A slow scenario that hit the time cap before its
    /// third iteration reports how many it actually got.
    iters_measured: u64,
    /// Fastest measured iteration, milliseconds.
    wall_ms_per_iter: f64,
    events_per_iter: Option<u64>,
    /// Worker threads the scenario ran with. `None` for single-threaded
    /// scenarios; the `cluster/par/*` rows record their pinned count so a
    /// regression diff can tell "slower" from "ran with fewer workers".
    threads: Option<usize>,
    /// Coordinator polls executed and how many of them were answered from
    /// the memo fast path, for the rows where that ratio is the point.
    memo: Option<(u64, u64)>,
}

impl Row {
    fn events_per_sec(&self) -> Option<f64> {
        self.events_per_iter
            .map(|e| e as f64 / (self.wall_ms_per_iter / 1_000.0))
    }
}

/// Report provenance, captured once at startup so a long run doesn't
/// straddle a timestamp.
struct Meta {
    git_rev: String,
    created_utc: String,
}

impl Meta {
    fn capture() -> Meta {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let created_utc = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| utc_string(d.as_secs()))
            .unwrap_or_else(|_| "unknown".to_string());
        Meta { git_rev, created_utc }
    }
}

/// Renders seconds-since-epoch as `YYYY-MM-DDTHH:MM:SSZ` without pulling
/// in a date crate (civil-from-days per Howard Hinnant's algorithm).
fn utc_string(epoch_secs: u64) -> String {
    let days = (epoch_secs / 86_400) as i64;
    let secs = epoch_secs % 86_400;
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe as i64 + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        secs / 3_600,
        (secs % 3_600) / 60,
        secs % 60
    )
}

/// A single iteration longer than this is a "slow" scenario: it cannot
/// amortize noise across many iterations inside the budget, so it gets
/// the min-of-3 treatment instead.
const SLOW_ITER: Duration = Duration::from_millis(500);

/// Total measured time a slow scenario may consume chasing its three
/// iterations. A scenario whose single iteration blows even this cap
/// stands on one measurement — and says so via `iters_measured`.
const SLOW_CAP: Duration = Duration::from_secs(20);

/// CI perf gate for `--quick` mode: the fleet-scale 1,000-station row must
/// clear this floor, set ~3x below the recorded quick-mode baseline
/// (~3.2M events/sec on the reference host; the full-budget numbers live
/// in BENCH_cluster.json). Generous enough that shared-runner noise never
/// trips it; tight enough that an accidental O(stations) term creeping
/// back into the poll path (the regression class this report exists to
/// catch) fails CI instead of landing silently.
const QUICK_FLOOR_1000_EPS: f64 = 1_000_000.0;

/// Gate on what watching a run costs: `cluster/span_audit_sinks` over
/// `cluster/extra_sinks/0`, checked when the report is written (`--quick`
/// times each row once, which cannot resolve it, and only prints it).
/// ROADMAP 2b's target is +25 %. Attaching *any* sink costs about +15 % on
/// this scenario — it takes idle stations' owner transitions out of the
/// poll's fold and back into the event queue (ROADMAP 2c) — and the two
/// sinks' own work about +15 % more (+55 % in all before they shared the
/// dense lifecycle table), so the gate sits where a sink regression trips
/// it and moves to the target with 2c.
const SINK_GATE: f64 = 1.45;

fn sink_overhead_check(rows: &[Row], enforce: bool) {
    let wall = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.wall_ms_per_iter)
            .unwrap_or_else(|| panic!("{name} row missing from report"))
    };
    let ratio = wall("cluster/span_audit_sinks") / wall("cluster/extra_sinks/0");
    println!(
        "sink overhead: span_audit_sinks at {:+.0}% of extra_sinks/0 (gate {:+.0}%, target +25%)",
        (ratio - 1.0) * 100.0,
        (SINK_GATE - 1.0) * 100.0
    );
    if enforce && ratio > SINK_GATE {
        eprintln!("sink gate FAILED");
        std::process::exit(1);
    }
}

fn perf_floor_check(rows: &[Row]) {
    let floor = QUICK_FLOOR_1000_EPS;
    let row = rows
        .iter()
        .find(|r| r.name == "cluster/stations/1000")
        .expect("fleet-scale 1000-station row missing from report");
    let eps = row.events_per_sec().unwrap_or(0.0);
    if eps < floor {
        eprintln!(
            "perf smoke FAILED: cluster/stations/1000 ran at {eps:.0} events/sec, floor is {floor:.0}"
        );
        std::process::exit(1);
    }
    println!("perf smoke ok: cluster/stations/1000 at {eps:.0} events/sec (floor {floor:.0})");
}

/// Times `f` repeatedly and keeps the *fastest* iteration as the row
/// `name`. Minima are the robust estimator on a shared host — outside
/// interference only ever adds time. Fast scenarios iterate until
/// `budget` is spent; slow scenarios (single iteration over [`SLOW_ITER`])
/// still get up to three measured iterations so one descheduling spike
/// cannot masquerade as a regression, bounded by [`SLOW_CAP`]. `f` returns
/// the number of simulation events it dispatched (callers timing something
/// that is not a simulation overwrite `events_per_iter`). A warm-up
/// iteration always precedes timing and at least one iteration is always
/// timed, so a zero budget (the `--quick` smoke mode) times each scenario
/// exactly once.
fn measure(name: impl Into<String>, budget: Duration, mut f: impl FnMut() -> u64) -> Row {
    let events = f(); // warm-up iteration, also records the event count
    let start = Instant::now();
    let mut iters = 0u64;
    let mut best = Duration::MAX;
    loop {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
        iters += 1;
        let total = start.elapsed();
        let done = if budget.is_zero() {
            true // --quick: one timed iteration regardless of speed
        } else if best > SLOW_ITER {
            iters >= 3 || total >= SLOW_CAP
        } else {
            total >= budget
        };
        if done {
            break;
        }
    }
    Row {
        name: name.into(),
        iters_measured: iters,
        wall_ms_per_iter: best.as_secs_f64() * 1_000.0,
        events_per_iter: Some(events),
        threads: None,
        memo: None,
    }
}

/// One simulation of `specs` over `days` on `cfg`: the events dispatched,
/// and the polls executed with how many the memo answered.
fn simulate(cfg: ClusterConfig, specs: Vec<JobSpec>, days: u64) -> (u64, (u64, u64)) {
    let out = Run::new(cfg).specs(specs).horizon(SimDuration::from_days(days)).execute();
    (out.events_dispatched, (out.totals.polls, out.totals.poll_memo_hits))
}

/// The standard burst on `cfg` for `days`: 40 jobs with 0.5 MB images.
fn burst(cfg: ClusterConfig, days: u64) -> u64 {
    simulate(cfg, jobs(40, 500_000), days).0
}

/// A trace-free fleet of `stations` with default everything else.
fn fleet(stations: usize) -> ClusterConfig {
    ClusterConfig { stations, record_trace: false, ..ClusterConfig::default() }
}

fn jobs(n: u64, image_bytes: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            image_bytes,
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(i),
                UserId((i % 3) as u32),
                NodeId::new((i % 5) as u32),
                SimTime::from_secs(i * 13 * 60),
                SimDuration::from_hours(1 + i % 4),
            )
        })
        .collect()
}

/// An owner model that (after the activity clamp) almost never becomes
/// active: with a flat zero profile the effective activity floors at
/// 0.005, and a decade-long mean active period stretches idle dwells past
/// any simulated horizon. Stations therefore stay idle for the whole run.
fn owners_never_flip() -> OwnerConfig {
    OwnerConfig {
        profile: condor_model::diurnal::DiurnalProfile::flat(0.0),
        mean_active_period: SimDuration::from_days(3_650),
    }
}

/// A live pool shaped like the repo benchmark's `live_turnaround` one: two
/// workers, 1,000-unit slices, a 5 ms poll and a 12 ms grace.
fn live_pool() -> Runtime {
    Runtime::new(RuntimeConfig {
        workers: 2,
        slice_units: 1_000,
        poll_interval: Duration::from_millis(5),
        grace: Duration::from_millis(12),
    })
}

/// The event queue in the shape the repo benchmark's traced `fleet_loaded`
/// run gives it: 21,000 arrivals over a week under one block of reserved
/// sequence numbers, planted one at a time as `Cluster::prime` plants them
/// (each arrival schedules the next); about 1,400 live entries besides
/// them (1,000 short timers re-armed up to ten minutes ahead, as owner
/// checks and polls are; 400 finishes hours ahead); and one pop in six
/// cancelling a finish and planting a new one, as an owner's return does
/// to a running job. Returns the pops; every sixth one adds a cancel.
fn loaded_churn() -> u64 {
    #[derive(Clone, Copy)]
    enum Churn {
        Arrival(u64),
        Timer,
        Finish(usize),
    }
    const POPS: u64 = 60_000;
    // Delays drawn uniformly from [lo, hi) seconds.
    const TIMER: (u64, u64) = (1, 600);
    const FINISH: (u64, u64) = (3_600, 43_200);
    let mut rng = condor_sim::rng::SimRng::seed_from(1988);
    let mut ahead = |(lo, hi): (u64, u64)| {
        SimDuration::from_millis(rng.uniform_range_u64(lo * 1_000, hi * 1_000))
    };
    let mut q = condor_sim::event::EventQueue::new();
    const ARRIVALS: u64 = 21_000;
    let arrival_at = |j: u64| SimTime::from_millis(j * SimDuration::WEEK.as_millis() / ARRIVALS);
    let arrival_seq = q.reserve_seqs(ARRIVALS);
    q.schedule_reserved(arrival_at(0), arrival_seq, Churn::Arrival(0));
    for _ in 0..1_000 {
        q.schedule(SimTime::ZERO + ahead(TIMER), Churn::Timer);
    }
    let mut finish: Vec<_> = (0..400)
        .map(|i| q.schedule(SimTime::ZERO + ahead(FINISH), Churn::Finish(i)))
        .collect();
    for n in 0..POPS {
        let Some((now, ev)) = q.pop() else { break };
        match ev {
            Churn::Arrival(j) => {
                if j + 1 < ARRIVALS {
                    q.schedule_reserved(arrival_at(j + 1), arrival_seq + j + 1, Churn::Arrival(j + 1));
                }
            }
            Churn::Timer => {
                q.schedule(now + ahead(TIMER), ev);
            }
            Churn::Finish(i) => finish[i] = q.schedule(now + ahead(FINISH), ev),
        }
        if n % 6 == 5 {
            // A fixed stride picks the victim; every held token is live.
            let i = (n / 6 * 7_919) as usize % finish.len();
            q.cancel(finish[i]);
            finish[i] = q.schedule(now + ahead(FINISH), Churn::Finish(i));
        }
    }
    POPS
}

fn make_views(n: usize) -> (Vec<StationView>, Vec<NodeId>) {
    let views: Vec<StationView> = (0..n)
        .map(|i| StationView {
            node: NodeId::new(i as u32),
            can_host: i % 3 == 0,
            free_cpu_milli: if i % 3 == 0 { 1000 } else { 0 },
            hosting_for: (i % 3 == 1).then(|| NodeId::new((i % 7) as u32)),
            waiting_jobs: if i % 5 == 0 { 4 } else { 0 },
        })
        .collect();
    let free = views.iter().filter(|v| v.can_host).map(|v| v.node).collect();
    (views, free)
}

/// A poll as the coordinator hands it over — the active sets already
/// extracted — for the two shapes `make_views` cannot make, because it
/// puts every host on one of seven homes: what a `fleet_loaded` and a
/// `fleet_idle` poll of the repo benchmark look like from inside `decide`.
struct FleetPoll {
    views: Vec<StationView>,
    requesters: Vec<NodeId>,
    hosts: Vec<NodeId>,
    consumers: Vec<(NodeId, u32)>,
    /// The budget-sized head of the free set, and the size of all of it.
    free: Vec<NodeId>,
    free_total: usize,
    budget: usize,
}

impl FleetPoll {
    /// `per_mille` = (hosting, requesting, free) shares of the fleet, the
    /// roles dealt by a hash of the station id and `deal`; a host works
    /// for one of `homes` even-numbered stations (the benchmark's users sit
    /// on every second station), again by hash.
    fn new(
        stations: usize,
        per_mille: (u64, u64, u64),
        homes: u64,
        budget: usize,
        deal: u64,
    ) -> FleetPoll {
        let mix = |i: usize, salt: u64| {
            let mut z = (i as u64 ^ ((salt + 8 * deal) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let views: Vec<StationView> = (0..stations)
            .map(|i| {
                let role = mix(i, 1) % 1000;
                let hosting = role < per_mille.0;
                let can_host = !hosting && role < per_mille.0 + per_mille.2;
                StationView {
                    node: NodeId::new(i as u32),
                    can_host,
                    free_cpu_milli: if can_host { 1000 } else { 0 },
                    hosting_for: hosting.then(|| NodeId::new(2 * (mix(i, 2) % homes) as u32)),
                    waiting_jobs: if i % 2 == 0 && mix(i, 3) % 1000 < 2 * per_mille.1 {
                        1 + (mix(i, 4) % 2) as usize
                    } else {
                        0
                    },
                }
            })
            .collect();
        let mut used = vec![0u32; stations];
        for home in views.iter().filter_map(|v| v.hosting_for) {
            used[home.as_usize()] += 1;
        }
        let all_free: Vec<NodeId> = views.iter().filter(|v| v.can_host).map(|v| v.node).collect();
        FleetPoll {
            requesters: views.iter().filter(|v| v.waiting_jobs > 0).map(|v| v.node).collect(),
            hosts: views.iter().filter(|v| v.hosting_for.is_some()).map(|v| v.node).collect(),
            consumers: (0..stations)
                .filter(|&h| used[h] > 0)
                .map(|h| (NodeId::new(h as u32), used[h]))
                .collect(),
            free: all_free[..budget.min(all_free.len())].to_vec(),
            free_total: all_free.len(),
            budget,
            views,
        }
    }

    fn input(&self) -> PollInput<'_> {
        PollInput {
            views: &self.views,
            requesters: &self.requesters,
            hosts: &self.hosts,
            consumers: &self.consumers,
            free: &self.free,
            free_total: self.free_total,
            capacity: None,
            max_placements: self.budget,
        }
    }
}

/// A representative mix of trace events for the emit-path scenario: the
/// two hot classes (owner flips, polls) plus the job-lifecycle kinds the
/// stats sink actually has to act on.
fn emit_sample_events() -> Vec<TraceEvent> {
    let at = SimTime::from_secs(60);
    let on = NodeId::new(3);
    vec![
        TraceEvent { at, kind: TraceKind::OwnerActive { station: on } },
        TraceEvent { at, kind: TraceKind::OwnerIdle { station: on } },
        TraceEvent { at, kind: TraceKind::JobArrived { job: JobId(1) } },
        TraceEvent { at, kind: TraceKind::JobStarted { job: JobId(1), on } },
        TraceEvent { at, kind: TraceKind::OwnerActive { station: on } },
        TraceEvent { at, kind: TraceKind::JobSuspended { job: JobId(1), on } },
        TraceEvent { at, kind: TraceKind::JobResumedInPlace { job: JobId(1), on } },
        TraceEvent { at, kind: TraceKind::OwnerIdle { station: on } },
        TraceEvent { at, kind: TraceKind::JobCompleted { job: JobId(1), on } },
        TraceEvent {
            at,
            kind: TraceKind::CoordinatorPolled {
                free_machines: 10,
                waiting_jobs: 2,
                placements: 1,
                preemptions: 0,
            },
        },
    ]
}

/// Worker threads available to the parallel rows. `available_parallelism`
/// alone can report 1 on multi-core hosts (restrictive affinity masks,
/// containers with no cgroup CPU metadata), so cross-check against the
/// `/proc/cpuinfo` processor count and take the larger answer.
fn detect_threads() -> usize {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    avail.max(cpuinfo).max(1)
}

fn json_escape_free(name: &str) -> &str {
    // Scenario names are ASCII identifiers with slashes — assert rather
    // than implement escaping nobody needs.
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || "/_-.:".contains(c)),
        "scenario name {name:?} would need JSON escaping"
    );
    name
}

/// Milliseconds with three decimals where that says something (≥ 1 ms)
/// and four significant digits below, so a microsecond-scale row does not
/// read `0.000`.
fn wall_ms(ms: f64) -> String {
    if ms >= 1.0 || ms <= 0.0 {
        return format!("{ms:.3}");
    }
    let leading_zeros = (-ms.log10()).floor() as usize;
    format!("{ms:.prec$}", prec = leading_zeros + 4)
}

fn render_json(meta: &Meta, rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"suite\": \"condor-bench\",\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"git_rev\": \"{}\",\n", json_escape_free(&meta.git_rev)));
    s.push_str(&format!("  \"created_utc\": \"{}\",\n", json_escape_free(&meta.created_utc)));
    s.push_str(&format!("  \"threads_available\": {},\n", detect_threads()));
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"name\": \"{}\", ", json_escape_free(&r.name)));
        s.push_str(&format!("\"iters_measured\": {}, ", r.iters_measured));
        s.push_str(&format!("\"wall_ms_per_iter\": {}", wall_ms(r.wall_ms_per_iter)));
        if let Some(e) = r.events_per_iter {
            s.push_str(&format!(", \"events_per_iter\": {e}"));
            s.push_str(&format!(", \"events_per_sec\": {:.0}", r.events_per_sec().unwrap()));
        }
        if let Some(t) = r.threads {
            s.push_str(&format!(", \"threads\": {t}"));
        }
        if let Some((polls, hits)) = r.memo {
            s.push_str(&format!(", \"polls\": {polls}, \"poll_memo_hits\": {hits}"));
        }
        s.push('}');
        if i + 1 < rows.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let meta = Meta::capture();
    let quick = std::env::args().any(|a| a == "--quick");
    let budget = if quick {
        Duration::ZERO
    } else {
        Duration::from_millis(
            std::env::var("BENCH_REPORT_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(300),
        )
    };
    let mut rows = Vec::new();

    // cluster: full-model simulation speed.
    for days in [1u64, 7] {
        rows.push(measure(format!("cluster/simulate_days/{days}"), budget, || {
            burst(fleet(23), days)
        }));
    }
    for mb in [1u64, 4] {
        rows.push(measure(format!("cluster/image_mb/{mb}"), budget, || {
            simulate(fleet(23), jobs(20, mb * 1_000_000), 1).0
        }));
    }

    // frac: the fractional-capacity path. `off` is the simulate_days/7
    // scenario under its canonical name (whole-machine demands through the
    // legacy exclusivity fast path — must track simulate_days/7 within
    // noise); `on` reruns the same burst with half-CPU demands packed by
    // FracPolicy, pricing the capacity-vector bookkeeping and the
    // JobGranted emissions.
    rows.push(measure("cluster/frac/off", budget, || burst(fleet(23), 7)));
    rows.push(measure("cluster/frac/on", budget, || {
        let cfg = ClusterConfig {
            policy: condor_core::config::PolicyKind::Frac,
            ..fleet(23)
        };
        let specs: Vec<JobSpec> = jobs(40, 500_000)
            .into_iter()
            .map(|mut j| {
                j.resources = condor_model::station::ResourceVec::share(500);
                j
            })
            .collect();
        simulate(cfg, specs, 7).0
    }));

    // chaos: the same week with fault injection armed. `empty` prices the
    // standing cost of an armed-but-silent schedule (must track
    // simulate_days/7 — chaos is schedule data, not a hot-path branch tax);
    // `faults_12` adds a seeded 12-fault schedule's recovery work.
    {
        let gen = ChaosGen { horizon: SimDuration::from_days(7), stations: 23, faults: 12 };
        for (label, schedule) in
            [("empty", ChaosSchedule::default()), ("faults_12", ChaosSchedule::generate(7, &gen))]
        {
            rows.push(measure(format!("cluster/chaos/{label}"), budget, || {
                let chaos = Some(schedule.clone());
                burst(ClusterConfig { chaos, ..fleet(23) }, 7)
            }));
        }
    }

    // redundancy: the simulate_days/7 week under PolicyKind::Redundant,
    // two replicas per job; prices the full machinery against
    // simulate_days/7: spawn scans, demand reclaim, replica events.
    rows.push(measure("cluster/redundancy/k2", budget, || {
        let policy = condor_core::config::PolicyKind::Redundant;
        burst(ClusterConfig { policy, ..fleet(23) }, 7)
    }));

    // cluster at paper-future scale: the coordinator poll is the station-
    // bound phase, so this row is the scaling check for the incremental
    // poll path (compare per-event cost against simulate_days/7 at 23).
    rows.push(measure("cluster/stations/200", budget, || {
        burst(fleet(200), 7)
    }));

    // cluster at fleet scale: the fleet-scale scenario at 1k and 10k
    // stations, run serially — the baselines the cluster/par rows are
    // read against. In --quick mode the horizon drops from seven days to
    // one so the CI smoke stays fast.
    let fleet_days = if quick { 1 } else { 7 };
    for (stations, label) in [(1_000usize, "1000"), (10_000, "10k"), (100_000, "100k")] {
        let mut memo = (0u64, 0u64);
        let row = measure(format!("cluster/stations/{label}"), budget, || {
            let s = fleet_scale(1988, stations, 1, fleet_days);
            let out = Run::new(s.config).specs(s.jobs).horizon(s.horizon).execute();
            memo = (out.totals.polls, out.totals.poll_memo_hits);
            out.events_dispatched
        });
        rows.push(Row { memo: Some(memo), ..row });
    }

    // cluster/par: the same 10k-station scenario split into eight pools
    // and run through the space-parallel sharded runner at pinned worker
    // counts. CONDOR_THREADS, when set, caps the sweep so a small CI host
    // can skip the oversubscribed points.
    {
        let cap = std::env::var("CONDOR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        for threads in [1usize, 2, 4, 8] {
            if cap.is_some_and(|c| threads > c) {
                continue;
            }
            let row = measure(format!("cluster/par/{threads}"), budget, || {
                let s = fleet_scale(1988, 10_000, 8, fleet_days);
                Run::new(s.config).specs(s.jobs).horizon(s.horizon).threads(threads).execute()
                    .events_dispatched
            });
            rows.push(Row { threads: Some(threads), ..row });
        }
    }

    // Attribution: each row isolates one phase of the cluster loop.
    // emit_only — the per-event sink path (stats classification) alone.
    {
        let events = emit_sample_events();
        let reps = 10_000usize;
        rows.push(measure("cluster/attrib/emit_only", budget, || {
            let mut sink = StatsSink::new();
            for _ in 0..reps {
                for ev in &events {
                    sink.record(std::hint::black_box(ev));
                }
            }
            (reps * events.len()) as u64
        }));
    }
    // flips_only — no jobs, polling pushed past the horizon: owner flips.
    // poll_only — no jobs, owners pinned idle: coordinator polls. With no
    // station ever changing, every poll after the first hits the memo fast
    // path, so poll_only prices the memoized poll; its `poll_memo_hits`
    // field proves it. fold_at_poll — no jobs, default owners, default
    // poll: the same transitions as flips_only, but brought up to date the
    // way a run does it — poll-major, a few hundred stations picked by the
    // owner process at each of 5,039 polls — not station-major in one pass
    // at `finalize`, which is what flips_only's 30-day poll interval turns
    // the fold into. Repeated at 200 and 10k stations to expose per-poll
    // scaling.
    for (stations, suffix) in [(23usize, ""), (200, "_200"), (10_000, "_10k")] {
        rows.push(measure(format!("cluster/attrib/flips_only{suffix}"), budget, || {
            let costs = condor_model::costs::CostModel {
                coordinator_poll_interval: SimDuration::from_days(30),
            };
            let cfg = ClusterConfig { costs, ..fleet(stations) };
            simulate(cfg, Vec::new(), 7).0
        }));
        for (name, owner) in [("poll_only", owners_never_flip()), ("fold_at_poll", OwnerConfig::default())] {
            let mut memo = (0u64, 0u64);
            let row = measure(format!("cluster/attrib/{name}{suffix}"), budget, || {
                let cfg = ClusterConfig { owner: owner.clone(), ..fleet(stations) };
                let (events, polls) = simulate(cfg, Vec::new(), 7);
                memo = polls;
                events
            });
            rows.push(Row { memo: Some(memo), ..row });
        }
    }
    // queue_only — all but one machine fenced by a standing reservation
    // (a whole-fleet reservation is rejected by config validation), owners
    // pinned idle, jobs homed away from the holder: arrivals accumulate in
    // queues with almost no placements, so queue bookkeeping dominates.
    rows.push(measure("cluster/attrib/queue_only", budget, || {
        let cfg = ClusterConfig {
            owner: owners_never_flip(),
            reservations: vec![Reservation {
                holder: NodeId::new(0),
                machines: 22,
                from: SimTime::ZERO,
                until: SimTime::from_secs(365 * 86_400),
            }],
            ..fleet(23)
        };
        let mut specs = jobs(40, 500_000);
        for s in &mut specs {
            s.home = NodeId::new(1 + (s.id.0 % 5) as u32);
        }
        simulate(cfg, specs, 7).0
    }));

    // telemetry: per-event cost of the sink fan-out. 0 extra sinks is the
    // baseline (StatsSink alone); 4 adds buffering observers; the last row
    // attaches the span folder and the online invariant auditor — the
    // overhead `condor spans`/`condor audit` pay relative to that baseline.
    type Sinks = fn() -> Vec<Box<dyn TraceSink + Send>>;
    let observers: [(&str, Sinks); 3] = [
        ("cluster/extra_sinks/0", Vec::new),
        ("cluster/extra_sinks/4", || {
            vec![
                Box::new(VecSink::new()),
                Box::new(RingSink::new(256)),
                Box::new(VecSink::new()),
                Box::new(RingSink::new(256)),
            ]
        }),
        ("cluster/span_audit_sinks", || {
            vec![Box::new(SpanSink::new()), Box::new(AuditSink::new())]
        }),
    ];
    for (name, sinks) in observers {
        rows.push(measure(name, budget, || {
            let run = Run::new(fleet(23)).specs(jobs(40, 500_000)).horizon(SimDuration::from_days(1));
            sinks().into_iter().fold(run, Run::sink).execute().events_dispatched
        }));
    }

    // engine: the event queue under synthetic and run-shaped churn.
    let row = measure("engine/schedule_cancel_10k", budget, || {
        let mut q = condor_sim::event::EventQueue::new();
        let tokens: Vec<_> = (0..10_000u64)
            .map(|i| q.schedule(SimTime::from_millis(i % 977), i))
            .collect();
        for t in tokens.iter().step_by(2) {
            q.cancel(*t);
        }
        let mut n = 0u64;
        while q.pop().is_some() {
            n += 1;
        }
        n
    });
    rows.push(Row { events_per_iter: Some(10_000), ..row });
    rows.push(measure("engine/loaded_churn", budget, loaded_churn));

    // runtime: one job per iteration, submitted and run until its result is
    // back. The job is a single slice, so the row is the coordinator's
    // poll, the placement, the worker's restore and the report of the
    // finish. A pool keeps every job it ran and reports them all at the end
    // of each `run`, so it is replaced every 64 jobs; min-of-N leaves the
    // iteration that replaces it out of the row.
    {
        let program = SeriesSum::new(1_000, 1_000_003);
        let mut pool: Option<(Runtime, u32)> = None;
        let row = measure("runtime/grant", budget, || {
            if let Some((rt, _)) = pool.take_if(|(_, jobs)| *jobs >= 64) {
                rt.shutdown();
            }
            let (rt, jobs) = pool.get_or_insert_with(|| (live_pool(), 0));
            *jobs += 1;
            let job = rt.submit(0, &program);
            let report = rt.run(Duration::from_secs(30));
            assert!(report.results.contains_key(&job), "live job finished");
            report.polls
        });
        if let Some((rt, _)) = pool {
            rt.shutdown();
        }
        rows.push(Row { events_per_iter: None, ..row });
    }

    // updown: one poll decision at three fleet sizes.
    for n in [23usize, 100, 1_000] {
        let (views, free) = make_views(n);
        let mut policy = UpDown::new(UpDownConfig::default());
        let row = measure(format!("updown_decide/{n}"), budget, || {
            let orders = decide_from_views(&mut policy, SimTime::ZERO, &views, &free, 1);
            orders.len() as u64
        });
        rows.push(Row { events_per_iter: None, ..row });
    }

    // updown, in-situ shapes: `decide` alone on the active sets of a poll
    // of the repo benchmark's `fleet_loaded` (1,000 stations: ≈460 hosts
    // over ≈210 homes, ≈10 requesters, budget 32) and `fleet_idle`
    // (10,000 stations: ≈1,340 denied requesters, ≈27 hosts, budget 1).
    // The loaded fleet alternates two deals of the roles, as its homes
    // come and go: the index then carries ≈400 entries, most of them
    // drifting, as it does in the run (≈430). The backlog is one deal: the
    // same stations wait poll after poll. 500 polls come first, so the
    // index holds what a run's index holds.
    for (name, polls) in [
        (
            "loaded_1000",
            vec![
                FleetPoll::new(1_000, (460, 10, 280), 250, 32, 0),
                FleetPoll::new(1_000, (460, 10, 280), 250, 32, 1),
            ],
        ),
        ("backlog_10k", vec![FleetPoll::new(10_000, (3, 134, 740), 5_000, 1, 0)]),
    ] {
        let mut policy = UpDown::new(UpDownConfig::default());
        let mut turn = 0usize;
        let mut poll = || {
            turn += 1;
            policy.decide(SimTime::ZERO, &polls[turn % polls.len()].input()).len() as u64
        };
        for _ in 0..500 {
            poll();
        }
        let row = measure(format!("updown_decide/{name}"), budget, poll);
        rows.push(Row { events_per_iter: None, ..row });
    }

    let json = render_json(&meta, &rows);
    if quick {
        // Smoke mode: validate, print, write nothing.
        let mut bad = Vec::new();
        for r in &rows {
            if r.events_per_iter == Some(0) || r.events_per_sec().is_some_and(|e| !e.is_finite() || e <= 0.0) {
                bad.push(r.name.clone());
            }
        }
        println!("{json}");
        if bad.is_empty() {
            println!("quick check ok: {} scenarios, all event rows nonzero", rows.len());
        } else {
            eprintln!("quick check FAILED: zero events/sec in {bad:?}");
            std::process::exit(1);
        }
        perf_floor_check(&rows);
        sink_overhead_check(&rows, false);
        return;
    }
    let path = std::env::var("BENCH_REPORT_PATH").unwrap_or_else(|_| "BENCH_cluster.json".into());
    std::fs::write(&path, &json).expect("write benchmark report");
    println!("{json}");
    println!("wrote {path}");
    sink_overhead_check(&rows, true);
}
