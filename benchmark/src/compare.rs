//! `compare A B`: judges result set B against result set A, one row per
//! (end-to-end metric, workload), by the bound the benchmark fixed.
//!
//! A result file holds one record per line, as `--out` appends them. Set A
//! is the base (the parent commit, or the first of two sets of one
//! commit), set B the candidate.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::registry::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::quartiles;

/// One line of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(n, line)| parse_record(line).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

fn parse_record(line: &str) -> Result<Record, String> {
    let doc = json::parse(line)?;
    let field = |k: &str| doc.get(k).ok_or(format!("missing \"{k}\""));
    let result = field("result")?;
    let mut metrics = BTreeMap::new();
    for (name, m) in result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("missing result.metrics")?
    {
        // A `null` value is a measurement that failed; it is left out so
        // the row reports it missing instead of comparing a made-up number.
        if let Some(v) = m.get("value").and_then(Value::as_f64) {
            metrics.insert(name.clone(), v);
        }
    }
    Ok(Record {
        workload: field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        seed: field("seed")?.as_f64().ok_or("seed is not a number")? as u64,
        traced: field("trace")?.as_f64().ok_or("trace is not a number")? != 0.0,
        correct: result
            .get("correct")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        metrics,
        notes: doc
            .get("notes")
            .and_then(Value::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|n| n.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Spread wider than the bound on either side: neither "unchanged"
    /// nor "worse" can be said.
    Unresolved,
    Regression,
    /// Fewer than two runs on a side.
    TooFew,
}

/// One (metric, workload) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Option<[f64; 3]>,
    pub cand: Option<[f64; 3]>,
    pub runs: (usize, usize),
    /// Share of the base median by which the candidate median is worse
    /// (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Inter-quartile distance as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]).abs() / q[1].abs().max(f64::MIN_POSITIVE)
}

pub fn judge(metric: &EndToEnd, base: &[f64], cand: &[f64]) -> (f64, f64, Verdict) {
    let (Some(qb), Some(qc)) = (quartiles(base), quartiles(cand)) else {
        return (0.0, 0.0, Verdict::TooFew);
    };
    let lower_is_better = metric.better == "lower";
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (qc[1] - qb[1]) / qb[1].abs().max(f64::MIN_POSITIVE);
    let spread = spread(qb).max(spread(qc));
    let worse = |c: f64, b: f64| if lower_is_better { c > b } else { c < b };
    let every_cand_worse = cand.iter().all(|&c| base.iter().all(|&b| worse(c, b)));
    let every_cand_better = cand.iter().all(|&c| base.iter().all(|&b| worse(b, c)));
    let verdict = if spread > metric.bound
        && !every_cand_better
        && !(every_cand_worse && worse_by > metric.bound)
    {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

pub fn rows(base: &[Record], cand: &[Record]) -> Vec<Row> {
    let values = |set: &[Record], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| !r.traced && r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    let mut workloads: Vec<&str> = base
        .iter()
        .chain(cand)
        .filter(|r| !r.traced)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = Vec::new();
    for w in workloads {
        for metric in &END_TO_END {
            let (b, c) = (values(base, w, metric.name), values(cand, w, metric.name));
            let (worse_by, spread, verdict) = judge(metric, &b, &c);
            out.push(Row {
                workload: w.to_string(),
                metric: metric.name,
                base: quartiles(&b),
                cand: quartiles(&c),
                runs: (b.len(), c.len()),
                worse_by,
                spread,
                verdict,
            });
        }
    }
    out
}

/// Counts and digests that must repeat exactly for one (workload, seed):
/// returns a line per difference between the two sets.
pub fn exact_differences(base: &[Record], cand: &[Record]) -> Vec<String> {
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "B")
        .map(|m| m.name)
        .collect();
    let digest = |r: &Record| {
        r.notes
            .iter()
            .find(|n| n.starts_with("sim_digest"))
            .cloned()
    };
    let mut out = Vec::new();
    for b in base {
        for c in cand.iter().filter(|c| {
            (c.workload.as_str(), c.seed, c.traced) == (b.workload.as_str(), b.seed, b.traced)
        }) {
            if digest(b) != digest(c) {
                out.push(format!(
                    "{} seed {}: {:?} vs {:?}",
                    b.workload,
                    b.seed,
                    digest(b),
                    digest(c)
                ));
            }
            for name in exact.iter().filter(|_| b.traced) {
                let (vb, vc) = (b.metrics.get(*name), c.metrics.get(*name));
                if vb != vc {
                    out.push(format!(
                        "{} seed {}: {name} {vb:?} vs {vc:?}",
                        b.workload, b.seed
                    ));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn q(q: Option<[f64; 3]>) -> String {
    q.map_or("-".into(), |[a, m, b]| format!("{m:.4} [{a:.4}, {b:.4}]"))
}

/// Prints the table; returns the process exit code (1 on a regression or
/// an incorrect run, 0 otherwise).
pub fn report(base: &[Record], cand: &[Record]) -> i32 {
    let rows = rows(base, cand);
    println!(
        "{:<16} {:<12} {:>34} {:>34} {:>9} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "base median [q1, q3] (runs)",
        "candidate median [q1, q3] (runs)",
        "worse by",
        "spread",
        "bound"
    );
    for r in &rows {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == r.metric)
            .map_or(0.0, |m| m.bound);
        println!(
            "{:<16} {:<12} {:>29} ({:>2}) {:>29} ({:>2}) {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            q(r.base),
            r.runs.0,
            q(r.cand),
            r.runs.1,
            r.worse_by * 100.0,
            r.spread * 100.0,
            bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "UNRESOLVED (spread exceeds the bound)",
                Verdict::Regression => "REGRESSION",
                Verdict::TooFew => "too few runs",
            }
        );
    }
    let differences = exact_differences(base, cand);
    for d in &differences {
        println!("exact value differs: {d}");
    }
    let incorrect = base.iter().chain(cand).filter(|r| !r.correct).count();
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} unresolved, {} regressions, {} with too few runs; {} exact values differ; {} incorrect runs",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regression),
        count(Verdict::TooFew),
        differences.len(),
        incorrect
    );
    i32::from(count(Verdict::Regression) > 0 || incorrect > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "iter_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    };

    #[test]
    fn a_steady_pair_is_ok_and_a_slower_one_regresses() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&LOWER, &base, &[101.0, 102.0, 100.0, 101.5, 100.5]).2,
            Verdict::Ok
        );
        let (worse_by, _, verdict) = judge(&LOWER, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert!((worse_by - 0.2).abs() < 0.01);
        assert_eq!(verdict, Verdict::Regression);
        // A faster candidate is never a regression.
        assert_eq!(
            judge(&LOWER, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]).2,
            Verdict::Ok
        );
    }

    #[test]
    fn direction_follows_better() {
        let base = [1000.0, 1010.0, 990.0, 1005.0];
        assert_eq!(
            judge(&HIGHER, &base, &[800.0, 805.0, 795.0, 802.0]).2,
            Verdict::Regression
        );
        assert_eq!(
            judge(&HIGHER, &base, &[1200.0, 1205.0, 1195.0, 1202.0]).2,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_disjoint() {
        let noisy = [100.0, 140.0, 80.0, 120.0, 90.0];
        assert_eq!(
            judge(&LOWER, &noisy, &[101.0, 139.0, 81.0, 119.0, 91.0]).2,
            Verdict::Unresolved
        );
        // Every candidate run better than every base run: resolved, ok.
        assert_eq!(
            judge(&LOWER, &noisy, &[50.0, 70.0, 40.0, 60.0, 45.0]).2,
            Verdict::Ok
        );
        // Every candidate run worse than every base run: resolved, regression.
        assert_eq!(
            judge(&LOWER, &noisy, &[200.0, 280.0, 160.0, 240.0, 180.0]).2,
            Verdict::Regression
        );
        assert_eq!(judge(&LOWER, &[1.0], &[1.0, 2.0]).2, Verdict::TooFew);
    }

    fn record(
        workload: &str,
        seed: u64,
        traced: bool,
        metrics: &[(&str, f64)],
        note: &str,
    ) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"notes\": [\"{note}\"], \"result\": {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}}}",
            u8::from(traced),
            body.join(", ")
        )
    }

    #[test]
    fn result_files_parse_and_compare_row_by_row() {
        let set = |ms: [f64; 3]| -> Vec<Record> {
            let text: Vec<String> = ms
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    record(
                        "fleet_idle",
                        i as u64,
                        false,
                        &[("iter_ms_p50", *v), ("setup_s", 1.0 + 0.01 * i as f64)],
                        "sim_digest = 00ff",
                    )
                })
                .collect();
            parse_records(&text.join("\n")).unwrap()
        };
        let (a, b) = (set([900.0, 905.0, 895.0]), set([1200.0, 1205.0, 1195.0]));
        assert_eq!((a[1].seed, a[1].traced, a[1].correct), (1, false, true));
        let rows = rows(&a, &b);
        assert_eq!(rows.len(), END_TO_END.len());
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("iter_ms_p50"), Verdict::Regression);
        assert_eq!(verdict("setup_s"), Verdict::Ok);
        assert_eq!(verdict("work_per_s"), Verdict::TooFew);
        assert!(parse_records("{\"workload\": 3}").is_err());
    }

    #[test]
    fn counts_and_digests_must_repeat_exactly() {
        let a = parse_records(&record(
            "fleet_idle",
            7,
            true,
            &[("coord.polls", 5039.0), ("sink.stats_ns", 3.1)],
            "sim_digest = 00ff",
        ))
        .unwrap();
        let same = parse_records(&record(
            "fleet_idle",
            7,
            true,
            &[("coord.polls", 5039.0), ("sink.stats_ns", 9.9)],
            "sim_digest = 00ff",
        ))
        .unwrap();
        let other = parse_records(&record(
            "fleet_idle",
            7,
            true,
            &[("coord.polls", 5040.0), ("sink.stats_ns", 3.1)],
            "sim_digest = 0100",
        ))
        .unwrap();
        assert!(exact_differences(&a, &same).is_empty());
        let d = exact_differences(&a, &other);
        assert_eq!(d.len(), 2, "{d:?}");
        // Another seed is another input: nothing to compare.
        let elsewhere = parse_records(&record(
            "fleet_idle",
            8,
            true,
            &[("coord.polls", 1.0)],
            "sim_digest = 0100",
        ))
        .unwrap();
        assert!(exact_differences(&a, &elsewhere).is_empty());
    }
}
