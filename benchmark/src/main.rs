//! Command line of the repo benchmark. See `README.md`.
//!
//! ```text
//! condor-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--quick] [--out FILE]
//! condor-benchmark compare <base.jsonl> <candidate.jsonl>
//! ```

use std::io::Write as _;
use std::process::{Command, ExitCode};

use condor_benchmark::json::{write_num, write_str};
use condor_benchmark::live::{self, LiveBench};
use condor_benchmark::run::{result_line, run_untraced, Options, Report};
use condor_benchmark::sim::SimBench;
use condor_benchmark::spans::Tracer;
use condor_benchmark::{compare, nproc, probes, sim_trace, Workload};

/// The paper's year; also `EXPERIMENT_SEED` of the `exp_*` binaries.
const DEFAULT_SEED: u64 = 1988;
const TRACE_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    opts: Options,
    traced: bool,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: condor-benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]\n       condor-benchmark compare <base.jsonl> <candidate.jsonl>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        opts: Options {
            seed: DEFAULT_SEED,
            seconds: 15.0,
            quick: false,
        },
        traced: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.opts.seconds = s;
                seconds_given = true;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => parsed.opts.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.opts.quick && !seconds_given {
        parsed.opts.seconds = 0.2;
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run_workload(w: Workload, args: &Args) -> Report {
    let opts = args.opts;
    if !args.traced {
        return match w {
            Workload::Sim(k) => run_untraced::<SimBench>(k, w.name(), opts),
            Workload::Live(k) => run_untraced::<LiveBench>(k, w.name(), opts),
        };
    }
    let (mut report, mut tracer) = match w {
        Workload::Sim(k) => sim_trace::run_traced(k, opts, Tracer::recording()),
        Workload::Live(k) => live::run_traced(k, opts, Tracer::recording()),
    };
    probes::run_all(
        w.stations(opts.quick),
        opts.seed,
        opts.quick,
        &mut report.metrics,
        &mut tracer,
    );

    println!(
        "{:<26} {:>8} {:>14} {:>14}",
        "span", "count", "busy ms", "self ms"
    );
    for (name, row) in tracer.layer_table() {
        println!(
            "{name:<26} {:>8} {:>14.3} {:>14.3}",
            row.count,
            row.busy_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    let path = format!("{TRACE_DIR}/trace-{}.json", w.name());
    match std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_trace()))
    {
        Ok(()) => println!("{} spans written to {path}", tracer.spans().len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    report
}

/// The record `--out` appends: the result line plus what it was measured
/// on and how many samples stand behind each metric.
fn record(w: Workload, args: &Args, report: &Report, provenance: &[(&str, String)]) -> String {
    let mut out = String::from("{\"workload\": ");
    write_str(&mut out, w.name());
    out.push_str(&format!(
        ", \"seed\": {}, \"trace\": {}, \"seconds\": ",
        args.opts.seed,
        u8::from(args.traced)
    ));
    write_num(&mut out, args.opts.seconds);
    out.push_str(&format!(", \"quick\": {}", args.opts.quick));
    for (key, value) in provenance {
        out.push_str(&format!(", \"{key}\": "));
        write_str(&mut out, value);
    }
    out.push_str(", \"samples\": {");
    for (i, m) in report.metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, m.name);
        out.push_str(&format!(": {}", m.samples));
    }
    out.push_str("}, \"notes\": [");
    for (i, note) in report.notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, note);
    }
    out.push_str("], \"result\": ");
    out.push_str(&result_line(report, args.traced));
    out.push('}');
    out
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let provenance = [
        ("nproc", nproc().to_string()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["--version"])),
    ];
    println!(
        "workload {} seed {} seconds {} trace {} quick {} | nproc {} git {} {}",
        w.name(),
        args.opts.seed,
        args.opts.seconds,
        u8::from(args.traced),
        args.opts.quick,
        provenance[0].1,
        provenance[1].1,
        provenance[2].1
    );
    let report = run_workload(w, args);
    for m in &report.metrics.0 {
        println!(
            "  {:<32} {:>18.6}  ({} samples)",
            m.name, m.value, m.samples
        );
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    if let Some(path) = &args.out {
        let line = record(w, args, &report, &provenance);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("could not append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result_line(&report, args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one child process per workload, so `peak_rss_mb` is
/// each workload's own; every child is waited for.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for w in Workload::ALL {
        let child_args: Vec<String> = raw
            .iter()
            .map(|a| {
                if a == "all" {
                    w.name().to_string()
                } else {
                    a.clone()
                }
            })
            .collect();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{} exited with {status}", w.name());
                failed = true;
            }
            Err(e) => {
                eprintln!("could not run {}: {e}", w.name());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        let [_, base, cand] = raw.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        let load = |path: &String| {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| compare::parse_records(&text))
                .map_err(|e| format!("{path}: {e}"))
        };
        return match (load(base), load(cand)) {
            (Ok(b), Ok(c)) => ExitCode::from(compare::report(&b, &c) as u8),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    match Workload::from_name(&args.workload) {
        Some(w) => run_one(w, &args),
        None => {
            eprintln!("unknown workload {:?}\n{}", args.workload, usage());
            ExitCode::from(2)
        }
    }
}
