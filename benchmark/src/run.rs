//! The untraced run: set-up (several times, for a steady `setup_s`), the
//! one-off output checks, then a closed loop of timed operations for
//! `--seconds`; and the result line both kinds of run print.

use std::time::{Duration, Instant};

use crate::json::{write_num, write_str};
use crate::registry::{END_TO_END, PER_LAYER};
use crate::{ms, peak_rss_mb, stats, Metrics};

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// One timed operation.
#[derive(Debug)]
pub struct Iteration {
    /// Wall of the operation alone.
    pub wall: Duration,
    /// Work it completed, in the workload's unit (see `work_per_s`).
    pub work: f64,
    /// The output check; `Err` counts the operation as failed.
    pub check: Result<(), String>,
}

/// A workload as the untraced run drives it.
pub trait Bench: Sized {
    type Kind: Copy;

    /// Generates the inputs from `seed` and runs one untimed warm-up
    /// operation, returning its output check.
    fn set_up(kind: Self::Kind, seed: u64, quick: bool) -> (Self, Result<(), String>);

    /// Checks made once, outside any timed region.
    fn verify(&mut self) -> Result<(), String>;

    /// Iteration `i` of the closed loop: one client, the next operation
    /// starts when the previous one has completed.
    fn iterate(&mut self, i: usize) -> Iteration;

    /// Stops whatever `set_up` started.
    fn tear_down(self) {}

    /// Informational lines for the report (never compared as metrics).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// What a run hands to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `false` when a one-off check failed, whatever the per-operation count.
    pub verified: bool,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.verified && self.failed == 0
    }

    /// Counts one checked operation; a failure says which one on stderr.
    pub fn count(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }
}

/// Set-up repeats until it has run three times and for 1.5 s in total
/// (25 times at most), so a 40 ms set-up is not judged on three samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(1500);

pub fn run_untraced<B: Bench>(kind: B::Kind, label: &str, opts: Options) -> Report {
    let mut report = Report {
        verified: true,
        ..Report::default()
    };
    let what = |phase: &str| format!("{label} seed {} {phase}", opts.seed);

    let (min_reps, min_total) = if opts.quick {
        (1, Duration::ZERO)
    } else {
        (SETUP_MIN_REPS, SETUP_MIN_TOTAL)
    };
    let mut setups = Vec::new();
    let mut peak_rss = None;
    let mut bench: Option<B> = None;
    let begun = Instant::now();
    while setups.len() < min_reps || (begun.elapsed() < min_total && setups.len() < SETUP_MAX_REPS)
    {
        if let Some(old) = bench.take() {
            old.tear_down();
        }
        let t0 = Instant::now();
        let (b, check) = B::set_up(kind, opts.seed, opts.quick);
        setups.push(t0.elapsed().as_secs_f64());
        report.count(&what(&format!("warm-up {}", setups.len())), check);
        bench = Some(b);
        // Memory to set the workload up and run its operation once. Read
        // here, not at exit: the allocations up to this point are the same
        // in every run of a seed, while the high-water mark of a thousand
        // iterations moves by 10 % with how the allocator reuses the heap.
        peak_rss.get_or_insert_with(|| peak_rss_mb().unwrap_or(f64::NAN));
    }
    let mut bench = bench.expect("set-up ran at least once");

    if let Err(e) = bench.verify() {
        report.verified = false;
        eprintln!("FAILED {}: {e}", what("verify"));
    }

    let mut walls = Vec::new();
    let mut work = 0.0;
    let budget = Duration::from_secs_f64(opts.seconds);
    let begun = Instant::now();
    let min_iters = if opts.quick { 1 } else { 3 };
    while walls.len() < min_iters || begun.elapsed() < budget {
        // Iteration 0 was the warm-up.
        let i = walls.len() + 1;
        let it = bench.iterate(i);
        report.count(&what(&format!("iteration {i}")), it.check);
        walls.push(ms(it.wall));
        work += it.work;
    }
    report.notes = bench.notes();
    bench.tear_down();

    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let sorted = stats::sorted(walls);
    let m = &mut report.metrics;
    m.put("iter_ms_p50", stats::median(&sorted), sorted.len());
    m.put("work_per_s", work / total_s, sorted.len());
    m.put(
        "peak_rss_mb",
        peak_rss.expect("set-up ran at least once"),
        1,
    );
    m.put_median("setup_s", &setups);
    if let Some(p) = stats::tail_percentile(sorted.len()) {
        report.notes.push(format!(
            "iter_ms_p{p} = {:.4} ms (highest percentile with ten of the {} samples beyond it)",
            stats::percentile(&sorted, p),
            sorted.len()
        ));
    }
    report
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`; the metrics are every end-to-end metric for an
/// untraced run and every per-layer metric for a traced one, in registry
/// order. A per-layer metric the run did not measure belongs to a layer
/// the workload does not pass through and reads 0; a missing end-to-end
/// metric is a bug, reported as `null` so no reader mistakes it for data.
pub fn result_line(report: &Report, traced: bool) -> String {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, name);
        out.push_str(": {\"value\": ");
        let value = report
            .metrics
            .value(name)
            .unwrap_or(if traced { 0.0 } else { f64::NAN });
        write_num(&mut out, value);
        out.push_str(", \"unit\": ");
        write_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn result_line_parses_back_with_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 12,
            failed: 0,
            verified: true,
            ..Report::default()
        };
        report.metrics.put("iter_ms_p50", 1.2034, 12);
        report.metrics.put("work_per_s", 6543.21, 12);
        report.metrics.put("peak_rss_mb", 31.5, 1);
        report.metrics.put("setup_s", 0.8127, 3);
        let doc = json::parse(&result_line(&report, false)).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(12.0));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        let first = &metrics[0].1;
        assert_eq!(first.get("value").unwrap().as_f64(), Some(1.2034));
        assert_eq!(first.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn traced_line_lists_every_per_layer_metric_and_zero_for_absent_layers() {
        let mut report = Report {
            attempted: 1,
            verified: true,
            ..Report::default()
        };
        report.metrics.put("trace.coverage", 0.97, 1);
        let doc = json::parse(&result_line(&report, true)).unwrap();
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| {
            doc.get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(get("trace.coverage"), Some(0.97));
        assert_eq!(get("shard.par_speedup"), Some(0.0));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut report = Report {
            verified: true,
            ..Report::default()
        };
        report.count("x", Ok(()));
        assert!(report.correct());
        report.count("x", Err("boom".into()));
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert!(!report.correct());
        let unverified = Report {
            verified: false,
            attempted: 1,
            ..Report::default()
        };
        assert!(!unverified.correct());
    }
}
