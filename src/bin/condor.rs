//! The `condor` command-line tool: run the paper's scenarios, custom
//! traces, and the live pool from a terminal.
//!
//! ```text
//! condor month   [--seed N] [--policy P] [--stations N] [--history]
//!                [--ckpt-server] [--failures MTBFH:MTTRH] [--perfetto FILE.json]
//! condor week    [--seed N]
//! condor spans   [--seed N] [--days N] [--top N]
//! condor audit   [--jsonl FILE.jsonl] [--seed N] [--days N]
//! condor chaos   [--seeds N] [--quick] [--schedule OUT.json] [--replay FILE.json]
//! condor export-trace <file.csv> [--seed N]
//! condor simulate <file.csv> [--stations N] [--days N] [--seed N]
//! condor live    [--workers N]
//! condor exp     [<name>... | all] [--quick] [DIR]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use condor::core::trace::TraceParseError;
use condor::metrics::summary::summarize;
use condor::metrics::table::{num, Table};
use condor::prelude::*;
use condor::workload::scenarios::{one_week, paper_month};
use condor::workload::trace::{from_csv, to_csv};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "month" => cmd_month(rest),
        "week" => cmd_week(rest),
        "report" => cmd_report(rest),
        "spans" => cmd_spans(rest),
        "audit" => cmd_audit(rest),
        "chaos" => cmd_chaos(rest),
        "trace" => cmd_trace(rest),
        "export-trace" => cmd_export_trace(rest),
        "simulate" => cmd_simulate(rest),
        "live" => cmd_live(rest),
        "exp" => condor_bench::exp::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "condor — a hunter of idle workstations

USAGE:
  condor month    [--seed N] [--policy up-down|fifo|round-robin|random]
                  [--stations N] [--history] [--ckpt-server]
                  [--failures MTBFH:MTTRH] [--perfetto FILE.json]
                  simulate the paper's one-month evaluation; --perfetto
                  writes the job/station timelines as a Chrome trace
                  loadable at ui.perfetto.dev
  condor week     [--seed N]
                  simulate the one-week close-up (Figs. 6-7)
  condor report   [--seed N] [--stations N] [--days N]
                  run the paper month trace-free and print the
                  streaming telemetry summary
  condor spans    [--seed N] [--stations N] [--days N] [--top N]
                  fold a run into per-job lifecycle spans and print
                  the where-time-went breakdown
  condor audit    [--jsonl FILE.jsonl] [--seed N] [--stations N] [--days N]
                  check protocol invariants over a saved JSONL trace
                  (or a fresh seeded run); exits nonzero on violations
  condor chaos    [--seeds N] [--start-seed N] [--faults N] [--quick]
                  [--schedule OUT.json] [--replay FILE.json]
                  run seeded fault-injection schedules over the one-week
                  scenario, asserting every run stays audit-clean with
                  balanced transfer accounting; failures are shrunk to a
                  minimal schedule (--schedule saves it as JSON) and
                  --replay re-runs a saved schedule; exits nonzero on
                  any failure
  condor trace    [--seed N] [--days N] [--last N] [--jsonl FILE.jsonl]
                  [--kind name,name,...]
                  tail the last events of a run; optionally stream
                  the full trace to a JSONL file; --kind keeps only
                  the named event kinds (snake_case)
  condor export-trace FILE.csv [--seed N]
                  write the paper-month job trace as CSV
  condor simulate FILE.csv [--stations N] [--days N] [--seed N]
                  run a cluster over a CSV job trace
  condor live     [--workers N]
                  run the live threaded mini-Condor demo
  condor exp      [NAME... | all] [--quick] [DIR]
                  print the reports that reproduce the paper's tables and
                  figures, the ablations and the extensions, each asserting
                  its claim; no NAME lists them; `export` writes the figure
                  data as CSV into DIR (default figures/); --quick shrinks
                  `redundancy` to one week";

/// Pulls `--flag value` out of an argument list.
fn opt_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value"))
    } else {
        Ok(None)
    }
}

fn opt_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match opt_value(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v:?}")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    Ok(match name {
        "up-down" | "updown" => PolicyKind::UpDown,
        "fifo" => PolicyKind::Fifo,
        "round-robin" | "rr" => PolicyKind::RoundRobin,
        "random" => PolicyKind::Random,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

fn print_summary(out: &condor::core::cluster::RunOutput) {
    let s = summarize(out);
    let mut t = Table::labelled(&["Metric", "Value"]);
    t.row(vec!["policy".into(), out.policy_name.clone()]);
    t.row(vec!["stations".into(), s.stations.to_string()]);
    t.row(vec!["horizon".into(), format!("{:.0} h", s.horizon_hours)]);
    t.row(vec![
        "jobs done".into(),
        format!("{}/{}", s.jobs_completed, s.jobs_submitted),
    ]);
    t.row(vec!["available station-hours".into(), num(s.available_hours, 0)]);
    t.row(vec!["consumed CPU-hours".into(), num(s.consumed_hours, 0)]);
    t.row(vec![
        "availability".into(),
        format!("{:.0}%", s.availability * 100.0),
    ]);
    t.row(vec![
        "local utilization".into(),
        format!("{:.0}%", s.local_utilization * 100.0),
    ]);
    t.row(vec![
        "system utilization".into(),
        format!("{:.0}%", s.system_utilization * 100.0),
    ]);
    t.row(vec!["mean wait ratio".into(), num(s.mean_wait_ratio, 2)]);
    t.row(vec!["mean leverage".into(), num(s.mean_leverage, 0)]);
    t.row(vec!["placements".into(), s.placements.to_string()]);
    t.row(vec!["migrations".into(), s.migrations.to_string()]);
    t.row(vec![
        "owner preemptions".into(),
        out.totals.preemptions_owner.to_string(),
    ]);
    t.row(vec![
        "priority preemptions".into(),
        out.totals.preemptions_priority.to_string(),
    ]);
    if out.totals.local_starts > 0 || out.totals.ckpt_retries > 0 {
        t.row(vec![
            "chaos local starts".into(),
            out.totals.local_starts.to_string(),
        ]);
        t.row(vec![
            "chaos ckpt retries".into(),
            out.totals.ckpt_retries.to_string(),
        ]);
    }
    if out.totals.station_failures > 0 {
        t.row(vec![
            "station crashes".into(),
            out.totals.station_failures.to_string(),
        ]);
        t.row(vec![
            "crash rollbacks".into(),
            out.totals.crash_rollbacks.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn cmd_month(args: &[String]) -> Result<(), String> {
    let seed = opt_parse(args, "--seed", 1988u64)?;
    let stations = opt_parse(args, "--stations", 23usize)?;
    let mut scenario = paper_month(seed);
    scenario.config.stations = stations.max(5); // homes 0..5 must exist
    if let Some(p) = opt_value(args, "--policy")? {
        scenario.config.policy = parse_policy(&p)?;
    }
    scenario.config.history_aware_placement = has_flag(args, "--history");
    scenario.config.checkpoint_server = has_flag(args, "--ckpt-server");
    if let Some(f) = opt_value(args, "--failures")? {
        let (mtbf, mttr) = f
            .split_once(':')
            .ok_or_else(|| format!("--failures wants MTBFH:MTTRH, got {f:?}"))?;
        scenario.config.failures = Some(condor::core::config::FailureConfig {
            mtbf: SimDuration::from_hours(
                mtbf.parse().map_err(|_| format!("bad MTBF {mtbf:?}"))?,
            ),
            mttr: SimDuration::from_hours(
                mttr.parse().map_err(|_| format!("bad MTTR {mttr:?}"))?,
            ),
        });
    }
    let perfetto = opt_value(args, "--perfetto")?;
    let spans = SharedSink::new(SpanSink::new());
    let sinks: Vec<Box<dyn TraceSink + Send>> = if perfetto.is_some() {
        vec![Box::new(spans.clone())]
    } else {
        Vec::new()
    };
    let started = std::time::Instant::now();
    let out = sinks.into_iter().fold(Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon), Run::sink).execute();
    println!(
        "simulated one month of {} stations in {:.0?}\n",
        out.stations,
        started.elapsed()
    );
    print_summary(&out);
    if let Some(path) = perfetto {
        let json = spans.with(|s| spans_to_chrome_trace(s.log()));
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nwrote Perfetto trace to {path} ({} bytes) — open at ui.perfetto.dev", json.len());
    }
    Ok(())
}

fn cmd_spans(args: &[String]) -> Result<(), String> {
    let seed = opt_parse(args, "--seed", 1988u64)?;
    let stations = opt_parse(args, "--stations", 23usize)?;
    let days = opt_parse(args, "--days", 30u64)?;
    let top = opt_parse(args, "--top", 20usize)?;
    let mut scenario = paper_month(seed);
    scenario.config.stations = stations.max(5); // homes 0..5 must exist
    scenario.config.record_trace = false; // spans fold online; no buffer needed
    let spans = SharedSink::new(SpanSink::new());
    let _ = Run::new(scenario.config)
        .specs(scenario.jobs)
        .horizon(SimDuration::from_days(days))
        .sink(Box::new(spans.clone()))
        .execute();
    let log = spans.with(|s| s.log().clone());
    println!("{}", render_spans(&log, top));
    Ok(())
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let audit = match opt_value(args, "--jsonl")? {
        Some(path) => {
            use condor::metrics::export::events_from_jsonl;
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            let events = events_from_jsonl(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            let mut audit = AuditSink::new();
            for ev in &events {
                audit.record(ev);
            }
            audit.finish(events.last().map_or(SimTime::ZERO, |e| e.at));
            audit
        }
        None => {
            let seed = opt_parse(args, "--seed", 1988u64)?;
            let stations = opt_parse(args, "--stations", 23usize)?;
            let days = opt_parse(args, "--days", 30u64)?;
            let mut scenario = paper_month(seed);
            scenario.config.stations = stations.max(5); // homes 0..5 must exist
            scenario.config.record_trace = false;
            let shared = SharedSink::new(AuditSink::new());
            let _ = Run::new(scenario.config)
                .specs(scenario.jobs)
                .horizon(SimDuration::from_days(days))
                .sink(Box::new(shared.clone()))
                .execute();
            shared
                .try_into_inner()
                .ok_or("audit sink still shared after the run")?
        }
    };
    if audit.is_clean() {
        println!("audit clean: {} events, 0 violations", audit.events_seen());
        Ok(())
    } else {
        println!(
            "audit FAILED: {} violation(s) over {} events",
            audit.total_violations(),
            audit.events_seen()
        );
        for v in audit.violations() {
            println!("  {v}");
        }
        let shown = audit.violations().len() as u64;
        if audit.total_violations() > shown {
            println!("  … and {} more", audit.total_violations() - shown);
        }
        Err("trace violates protocol invariants".into())
    }
}

fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let scenario_seed = opt_parse(args, "--seed", 1988u64)?;
    let quick = has_flag(args, "--quick");
    let scenario = one_week(scenario_seed);
    let stations = scenario.config.stations;
    let horizon = if quick { SimDuration::from_days(2) } else { scenario.horizon };

    if let Some(path) = opt_value(args, "--replay")? {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let schedule =
            ChaosSchedule::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        schedule
            .check(stations)
            .map_err(|e| format!("schedule in {path} is invalid: {e}"))?;
        let violations = verify_schedule(&scenario.config, &scenario.jobs, horizon, &schedule);
        return if violations.is_empty() {
            println!(
                "replay clean: {} fault(s) from {path}, audit clean, accounting balanced",
                schedule.entries.len()
            );
            Ok(())
        } else {
            println!("replay of {path} FAILED with {} violation(s):", violations.len());
            for v in &violations {
                println!("  {v}");
            }
            Err("replayed chaos schedule violates protocol invariants".into())
        };
    }

    let seeds = opt_parse(args, "--seeds", 50u64)?;
    let start = opt_parse(args, "--start-seed", 0u64)?;
    let faults = opt_parse(args, "--faults", if quick { 6usize } else { 12 })?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let gen = ChaosGen { horizon, stations: stations as u32, faults };
    let started = std::time::Instant::now();
    let report = explore(
        &scenario.config,
        &scenario.jobs,
        horizon,
        &gen,
        start..start + seeds,
    );
    println!(
        "chaos: ran {} seeded schedule(s) of {faults} fault(s) over {stations} stations in {:.0?}",
        report.cases,
        started.elapsed()
    );
    if report.is_clean() {
        println!("all schedules audit-clean with balanced transfer accounting");
        return Ok(());
    }
    for f in &report.failures {
        println!(
            "seed {}: {} violation(s); shrunk {} fault(s) → {} fault(s)",
            f.seed,
            f.violations.len(),
            f.schedule.entries.len(),
            f.shrunk.entries.len()
        );
        for v in f.violations.iter().take(5) {
            println!("  {v}");
        }
        if f.violations.len() > 5 {
            println!("  … and {} more", f.violations.len() - 5);
        }
    }
    if let Some(path) = opt_value(args, "--schedule")? {
        let json = report.failures[0].shrunk.to_json();
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote minimal failing schedule (seed {}) to {path} — \
             re-run it with `condor chaos --replay {path}`",
            report.failures[0].seed
        );
    }
    Err(format!(
        "{} of {} chaos schedule(s) failed",
        report.failures.len(),
        report.cases
    ))
}

fn cmd_week(args: &[String]) -> Result<(), String> {
    let seed = opt_parse(args, "--seed", 1988u64)?;
    let scenario = one_week(seed);
    let out = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute();
    print_summary(&out);
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let seed = opt_parse(args, "--seed", 1988u64)?;
    let stations = opt_parse(args, "--stations", 23usize)?;
    let days = opt_parse(args, "--days", 30u64)?;
    let mut scenario = paper_month(seed);
    scenario.config.stations = stations.max(5); // homes 0..5 must exist
    scenario.config.record_trace = false; // telemetry streams; no buffer needed
    let out = Run::new(scenario.config)
        .specs(scenario.jobs)
        .horizon(SimDuration::from_days(days))
        .execute();
    print_summary(&out);
    println!();
    println!("{}", render_telemetry(&out.telemetry));
    Ok(())
}

/// Parses `--kind a,b,c` into a kind mask; without `--kind`, every kind.
fn parse_kind_mask(args: &[String]) -> Result<KindMask, String> {
    let Some(list) = opt_value(args, "--kind")? else { return Ok(KindMask::ALL) };
    let names = list.split(',').map(str::trim).filter(|s| !s.is_empty());
    let mask = KindMask::from_names(names).map_err(|e| match e {
        TraceParseError::UnknownKind(name) => format!(
            "unknown trace kind {name:?}; known kinds: {}",
            TraceKind::names().join(", ")
        ),
        e => e.to_string(),
    })?;
    if mask == KindMask::NONE {
        return Err("--kind selected no event kinds".into());
    }
    Ok(mask)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let seed = opt_parse(args, "--seed", 1988u64)?;
    let days = opt_parse(args, "--days", 2u64)?;
    let last = opt_parse(args, "--last", 20usize)?;
    if last == 0 {
        return Err("--last must be at least 1".into());
    }
    let mask = parse_kind_mask(args)?;
    let filtered = has_flag(args, "--kind");
    let mut scenario = paper_month(seed);
    scenario.config.record_trace = false;
    let tail = SharedSink::new(KindFilterSink::new(RingSink::new(last), mask));
    let mut sinks: Vec<Box<dyn TraceSink + Send>> = vec![Box::new(tail.clone())];
    let jsonl = match opt_value(args, "--jsonl")? {
        Some(path) => {
            let file =
                std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
            let sink = SharedSink::new(KindFilterSink::new(
                JsonlSink::new(std::io::BufWriter::new(file)),
                mask,
            ));
            sinks.push(Box::new(sink.clone()));
            Some((path, sink))
        }
        None => None,
    };
    let out = sinks.into_iter().fold(Run::new(scenario.config).specs(scenario.jobs).horizon(SimDuration::from_days(days)), Run::sink).execute();
    let (total, matched) = (out.telemetry.events_total, out.telemetry.events_in(mask));
    tail.with(|f| {
        if filtered {
            println!(
                "{total} events over {days} days ({matched} matched --kind, {} filtered out); \
                 showing the last {}:",
                total - matched,
                f.inner().len()
            );
        } else {
            println!("{total} events over {days} days; showing the last {}:", f.inner().len());
        }
        for ev in f.inner().events() {
            println!("{}", ev.to_jsonl());
        }
    });
    if let Some((path, sink)) = jsonl {
        sink.with(|s| match s.inner().error() {
            Some(e) => Err(format!("writing {path}: {e}")),
            None => {
                println!("wrote {} events to {path}", s.inner().written());
                Ok(())
            }
        })?;
    }
    Ok(())
}

fn cmd_export_trace(args: &[String]) -> Result<(), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && a.ends_with(".csv"))
        .ok_or("export-trace needs a FILE.csv argument")?;
    let seed = opt_parse(args, "--seed", 1988u64)?;
    let scenario = paper_month(seed);
    let csv = to_csv(&scenario.jobs);
    std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {} jobs to {path}", scenario.jobs.len());
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && a.ends_with(".csv"))
        .ok_or("simulate needs a FILE.csv argument")?;
    let seed = opt_parse(args, "--seed", 1988u64)?;
    let stations = opt_parse(args, "--stations", 23usize)?;
    let days = opt_parse(args, "--days", 30u64)?;
    let csv = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let jobs = from_csv(&csv).map_err(|e| format!("parsing {path}: {e}"))?;
    let max_home = jobs.iter().map(|j| j.home.as_usize()).max().unwrap_or(0);
    if max_home >= stations {
        return Err(format!(
            "trace homes jobs at station {max_home}, but only {stations} stations configured"
        ));
    }
    let config = ClusterConfig {
        stations,
        seed,
        ..ClusterConfig::default()
    };
    let out = Run::new(config).specs(jobs).horizon(SimDuration::from_days(days)).execute();
    print_summary(&out);
    Ok(())
}

fn cmd_live(args: &[String]) -> Result<(), String> {
    use condor::runtime::owners::OwnerSimulator;
    use condor::runtime::program::{MonteCarloPi, PrimeCounter};
    use condor::runtime::runtime::{Runtime, RuntimeConfig};

    let workers = opt_parse(args, "--workers", 4usize)?;
    let mut rt = Runtime::new(RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    });
    println!("live pool: {workers} workers, owners driven by the paper's activity model");
    let j1 = rt.submit(0, &PrimeCounter::new(200_000));
    let j2 = rt.submit(1 % workers, &MonteCarloPi::new(7, 60_000_000));
    let owners = OwnerSimulator::start(
        rt.owner_flags(),
        condor::model::owner::OwnerConfig::default(),
        Duration::from_millis(10),
        42,
    );
    let report = rt.run(Duration::from_secs(120));
    let transitions = owners.stop();
    println!("owner transitions  : {transitions}");
    println!("interruptions      : {}", report.interruptions);
    println!("in-place resumes   : {}", report.resumes_in_place);
    println!("eviction migrations: {}", report.migrations);
    if report.unfinished.is_empty() {
        let primes = u64::from_le_bytes(report.results[&j1].clone().try_into().unwrap());
        let pi = &report.results[&j2];
        let inside = u64::from_le_bytes(pi[..8].try_into().unwrap());
        let total = u64::from_le_bytes(pi[8..].try_into().unwrap());
        println!("primes below 200000: {primes}");
        println!("π estimate         : {:.5}", 4.0 * inside as f64 / total as f64);
    } else {
        println!("unfinished (deadline): {:?}", report.unfinished);
    }
    rt.shutdown();
    Ok(())
}
