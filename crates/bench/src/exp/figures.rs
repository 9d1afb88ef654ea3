//! The paper's own evaluation: Table 1, Figs. 2–9, the §3 headline
//! numbers, and the CSV export of every figure's data.
//!
//! Each figure's data has one definition here ([`demand_cdf`],
//! [`queue_lengths`], [`utilization_pct`], and the three `*_points` bucket
//! sets) that the printing experiment and [`export`] both read, over the
//! run context's shared month and week.

use condor_core::cluster::RunOutput;
use condor_core::job::UserId;
use condor_core::trace::TraceKind;
use condor_metrics::buckets::{
    checkpoint_rate_by_demand, leverage_by_demand, wait_ratio_by_demand, BucketPoint,
};
use condor_metrics::export::CsvSeries;
use condor_metrics::plot::{chart, points_block, Series};
use condor_metrics::summary::{mean_leverage, mean_wait_ratio, summarize};
use condor_metrics::table::{num, Table};
use condor_sim::stats::Cdf;
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::paper_month;
use condor_workload::trace::table1_rows;

use super::Ctx;
use crate::{is_light, EXPERIMENT_SEED};

/// Table 1 — profile of user service requests.
///
/// Paper rows (jobs, % jobs, mean demand h, total h, % demand):
/// A 690/75/6.2/4278/90 · B 138/15/2.5/345/7 · C 39/4/2.6/101/2 ·
/// D 40/4/0.7/28/0.6 · E 11/1/1.7/19/0.4 · Total 918/100/5.2/4771/100.
pub(super) fn table1(_: &Ctx) {
    let scenario = paper_month(EXPERIMENT_SEED);
    let rows = table1_rows(&scenario.jobs);

    println!("== Table 1: Profile of User Service Requests ==");
    let mut t = Table::labelled(&[
        "User",
        "Number of Jobs",
        "% of Total Jobs",
        "Avg Demand/Job (h)",
        "Total Demand (h)",
        "% of Total Demand",
    ]);
    let mut total_jobs = 0usize;
    let mut total_demand = 0.0f64;
    for r in &rows {
        t.row(vec![
            r.user.to_string(),
            r.jobs.to_string(),
            num(r.pct_jobs, 0),
            num(r.mean_demand_hours, 1),
            num(r.total_demand_hours, 0),
            num(r.pct_demand, 1),
        ]);
        total_jobs += r.jobs;
        total_demand += r.total_demand_hours;
    }
    t.rule();
    t.row(vec![
        "Total".into(),
        total_jobs.to_string(),
        "100".into(),
        num(total_demand / total_jobs as f64, 1),
        num(total_demand, 0),
        "100".into(),
    ]);
    println!("{}", t.render());
    println!(
        "paper: A 690/6.2h, B 138/2.5h, C 39/2.6h, D 40/0.7h, E 11/1.7h; total 918 jobs, 4771 h"
    );
}

/// Fig. 2 data: the CDF of job service demand in hours, and its value at
/// each whole hour 0..=24.
fn demand_cdf(out: &RunOutput) -> (Cdf, Vec<(f64, f64)>) {
    let cdf = Cdf::from_values(out.jobs.iter().map(|j| j.spec.demand.as_hours_f64()).collect());
    let grid: Vec<f64> = (0..=24).map(f64::from).collect();
    let pts = cdf.evaluate_on(&grid);
    (cdf, pts)
}

/// Figure 2 — cumulative frequency distribution of job service demand.
///
/// Paper shape: for each hour *i*, the fraction of jobs whose demand is
/// below *i*; mean ≈ 5 h, median < 3 h (short jobs are more frequent).
pub(super) fn fig2(ctx: &Ctx) {
    let jobs = &ctx.month().jobs;
    let mean = jobs.iter().map(|j| j.spec.demand.as_hours_f64()).sum::<f64>() / jobs.len() as f64;
    let (cdf, pts) = demand_cdf(ctx.month());

    println!("== Fig. 2: Profile of Service Demand (CDF) ==");
    println!("{}", points_block("percentage of jobs with demand < i hours", &pts));
    let series: Vec<f64> = pts.iter().map(|(_, f)| f * 100.0).collect();
    println!(
        "{}",
        chart(
            &[Series { label: "% of jobs below demand (x = hours 0..24)", glyph: '*', values: &series }],
            64,
            14,
        )
    );
    println!("mean demand     : {mean:.1} h   (paper ≈ 5 h)");
    println!(
        "median demand   : {:.1} h   (paper < 3 h)",
        cdf.percentile(50.0).unwrap()
    );
    println!(
        "share below 3 h : {:.0}%  — short jobs dominate counts",
        cdf.fraction_below(3.0) * 100.0
    );
}

/// Figs. 3 and 7 data: hourly mean queue length, `(total, light users)`.
/// Light users are everyone but A (user 0); jobs in service count as
/// queued.
fn queue_lengths(out: &RunOutput) -> (Vec<f64>, Vec<f64>) {
    let step = SimDuration::HOUR;
    let total = out.queue_total.resample_mean(SimTime::ZERO, out.horizon, step);
    let mut light = vec![0.0; total.len()];
    for (user, series) in &out.queue_by_user {
        if *user == UserId(0) {
            continue;
        }
        for (i, v) in series
            .resample_mean(SimTime::ZERO, out.horizon, step)
            .into_iter()
            .enumerate()
        {
            light[i] += v;
        }
    }
    (total, light)
}

/// The opening both queue figures share: title, then the two series
/// charted `width` columns wide. Hands the series back for the closing
/// lines, which differ.
fn queue_chart(out: &RunOutput, title: &str, width: usize) -> (Vec<f64>, Vec<f64>) {
    let (total, light) = queue_lengths(out);
    println!("{title}");
    println!(
        "{}",
        chart(
            &[
                Series { label: "total", glyph: '*', values: &total },
                Series { label: "light users", glyph: '.', values: &light },
            ],
            width,
            16,
        )
    );
    (total, light)
}

/// The closing listing of Figs. 3, 6 and 7: every `every`-th hour of two
/// series, the hour `pad` wide.
fn list_hours(header: &str, a: &[f64], b: &[f64], every: usize, pad: usize) {
    println!("\n{header}");
    for (h, (a, b)) in a.iter().zip(b).enumerate().step_by(every) {
        println!("{h:pad$}, {a:6.1}, {b:6.1}");
    }
}

/// Figure 3 — hourly queue length over the month, total vs light users.
///
/// Paper shape: the heavy user keeps > 30 jobs in the system for long
/// periods; light users appear as small batches of ≈ 5; jobs in service
/// count as queued.
pub(super) fn fig3(ctx: &Ctx) {
    let (total, light) =
        queue_chart(ctx.month(), "== Fig. 3: Queue Length (hourly, one month) ==", 100);
    let peak_total = total.iter().cloned().fold(0.0, f64::max);
    let peak_light = light.iter().cloned().fold(0.0, f64::max);
    let above30 = total.iter().filter(|&&v| v > 30.0).count();
    println!("peak total queue  : {peak_total:.0} jobs (paper: >40 at peaks)");
    println!("peak light queue  : {peak_light:.0} jobs (paper: batches of ~5)");
    println!(
        "hours with total > 30 jobs: {above30} of {} — the heavy user's standing backlog",
        total.len()
    );
    list_hours("hour, total, light", &total, &light, 6, 5);
}

/// Figure 7 — queue lengths for one week, total vs light users.
///
/// Paper shape: sharp rises from batch arrivals; the heavy user's queue
/// often exceeds the number of machines; light users' contribution stays
/// small.
pub(super) fn fig7(ctx: &Ctx) {
    let out = ctx.week();
    // One column per hour of the week.
    let (total, light) = queue_chart(out, "== Fig. 7: Queue Lengths for One Week ==", 168);
    let stations = out.stations as f64;
    let above_fleet = total.iter().filter(|&&v| v > stations).count();
    println!(
        "hours where the backlog exceeded the {} machines: {above_fleet} (paper: 'much of the time')",
        out.stations
    );
    // Batch arrivals show as jumps.
    let mut max_jump = 0.0f64;
    for w in total.windows(2) {
        max_jump = max_jump.max(w[1] - w[0]);
    }
    println!("largest hourly queue jump: {max_jump:.0} jobs — batch arrivals");
    list_hours("hour-of-week, total, light", &total, &light, 4, 4);
}

/// Fig. 4 data: mean wait ratio per demand bucket, `(all jobs, light
/// users)`.
fn wait_ratio_points(out: &RunOutput) -> (Vec<BucketPoint>, Vec<BucketPoint>) {
    (wait_ratio_by_demand(&out.jobs, |_| true), wait_ratio_by_demand(&out.jobs, is_light))
}

fn mids(pts: &[BucketPoint]) -> Vec<(f64, f64)> {
    pts.iter().map(|p| (p.mid(), p.mean)).collect()
}

/// Figure 4 — average wait ratio vs service demand, all jobs vs light
/// users.
///
/// Paper shape: light users barely wait at all (the Up-Down algorithm
/// shields them); the all-jobs curve is dominated by the heavy user, who
/// waits substantially.
pub(super) fn fig4(ctx: &Ctx) {
    let out = ctx.month();
    let (all, light) = wait_ratio_points(out);

    println!("== Fig. 4: Average Wait Ratio vs Service Demand ==");
    println!(
        "{}",
        points_block("all jobs: (demand bucket midpoint h, mean wait ratio)", &mids(&all))
    );
    println!(
        "{}",
        points_block("light users: (demand bucket midpoint h, mean wait ratio)", &mids(&light))
    );
    let mean_all = mean_wait_ratio(&out.jobs, |_| true).unwrap_or(0.0);
    let mean_light = mean_wait_ratio(&out.jobs, is_light).unwrap_or(0.0);
    let mean_heavy = mean_wait_ratio(&out.jobs, |j| !is_light(j)).unwrap_or(0.0);
    println!("mean wait ratio, all jobs    : {mean_all:.2}");
    println!("mean wait ratio, light users : {mean_light:.2}   (paper: 'in most cases light users did not wait at all')");
    println!("mean wait ratio, heavy user  : {mean_heavy:.2}   (paper: 'waited significantly more')");
    assert!(
        mean_light < mean_heavy,
        "Up-Down must favour light users (light {mean_light} vs heavy {mean_heavy})"
    );
    let zero_wait_light = out
        .jobs
        .iter()
        .filter(|j| is_light(j))
        .filter_map(|j| j.wait_ratio())
        .filter(|w| *w < 0.05)
        .count();
    let light_total = out.jobs.iter().filter(|j| is_light(j)).count();
    println!(
        "light jobs with (near-)zero wait: {zero_wait_light}/{light_total}"
    );
}

/// Figs. 5 and 6 as printed: hourly `(system, local)` utilization in
/// percent of the fleet. (The fractions themselves are
/// `RunOutput::{system,local}_utilization_hourly`, which [`export`]
/// writes unscaled.)
fn utilization_pct(out: &RunOutput) -> (Vec<f64>, Vec<f64>) {
    let pct = |hourly: Vec<f64>| hourly.iter().map(|u| u * 100.0).collect();
    (pct(out.system_utilization_hourly()), pct(out.local_utilization_hourly()))
}

/// The opening both utilization figures share: title, then system and
/// local utilization charted `width` columns wide under the given labels.
fn utilization_chart(
    out: &RunOutput,
    title: &str,
    labels: [&str; 2],
    width: usize,
) -> (Vec<f64>, Vec<f64>) {
    let (system, local) = utilization_pct(out);
    println!("{title}");
    println!(
        "{}",
        chart(
            &[
                Series { label: labels[0], glyph: '*', values: &system },
                Series { label: labels[1], glyph: '.', values: &local },
            ],
            width,
            16,
        )
    );
    (system, local)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Figure 5 — utilization of remote resources over the month.
///
/// Paper shape: local activity stays low (~25% average) while system
/// utilization (local + Condor) is far higher, often saturating the fleet.
pub(super) fn fig5(ctx: &Ctx) {
    let (system, local) = utilization_chart(
        ctx.month(),
        "== Fig. 5: Utilization of Remote Resources (one month, % of 23 stations) ==",
        ["system (local + remote)", "local only"],
        100,
    );
    let saturated = system.iter().filter(|&&u| u > 90.0).count();
    println!("mean local utilization : {:.0}%  (paper: 25%)", mean(&local));
    println!("mean system utilization: {:.0}%", mean(&system));
    println!(
        "hours with system > 90%: {saturated} — 'often all workstations were utilized'"
    );
    println!("\nday, mean system %, mean local %");
    for d in 0..(system.len() / 24) {
        let s = mean(&system[d * 24..(d + 1) * 24]);
        let l = mean(&local[d * 24..(d + 1) * 24]);
        println!("{d:3}, {s:6.1}, {l:6.1}");
    }
}

/// Figure 6 — utilization close-up over one working week.
///
/// Paper shape: local activity peaks in weekday afternoons (~50%) and
/// drops to ~20% in evenings and nights; the whole fleet is saturated by
/// Condor for long stretches.
pub(super) fn fig6(ctx: &Ctx) {
    let (system, local) = utilization_chart(
        ctx.week(),
        "== Fig. 6: Utilization for One Week (Mon..Sun, % of 23 stations) ==",
        ["system", "local"],
        // One column per hour of the week.
        168,
    );
    // Day/night local split on weekdays.
    let mut afternoon = Vec::new();
    let mut night = Vec::new();
    for (h, &l) in local.iter().enumerate() {
        let day = h / 24;
        let hour = h % 24;
        if day < 5 {
            if (12..=16).contains(&hour) {
                afternoon.push(l);
            } else if !(8..=21).contains(&hour) {
                night.push(l);
            }
        }
    }
    println!(
        "weekday afternoon local utilization: {:.0}%  (paper: ~50% short peaks)",
        mean(&afternoon)
    );
    println!(
        "weekday night/evening local utilization: {:.0}%  (paper: ~20%)",
        mean(&night)
    );
    list_hours("hour-of-week, system %, local %", &system, &local, 4, 4);
}

/// Fig. 8 data: checkpoints per demand-hour, by demand bucket.
fn checkpoint_rate_points(out: &RunOutput) -> Vec<BucketPoint> {
    checkpoint_rate_by_demand(&out.jobs, |_| true)
}

/// Fig. 9 data: mean leverage, by demand bucket.
fn leverage_points(out: &RunOutput) -> Vec<BucketPoint> {
    leverage_by_demand(&out.jobs, |_| true)
}

/// Figure 8 — rate of checkpointing vs service demand.
///
/// Paper shape: moves per hour are relatively steady across demands except
/// for short jobs, which move more per hour; long jobs settle onto
/// stations with long available intervals and move less.
pub(super) fn fig8(ctx: &Ctx) {
    let out = ctx.month();
    let pts = checkpoint_rate_points(out);

    println!("== Fig. 8: Rate of Checkpointing (moves per demand-hour) ==");
    println!(
        "{}",
        points_block("(demand bucket midpoint h, checkpoints per hour, jobs in bucket)", &mids(&pts))
    );
    for p in &pts {
        println!(
            "bucket {:>5.1}h: {:>6.3} moves/h over {} jobs",
            p.mid(),
            p.mean,
            p.jobs
        );
    }
    // Shape check: short jobs move more per hour than long ones.
    let short: Vec<f64> = pts.iter().filter(|p| p.mid() < 2.0).map(|p| p.mean).collect();
    let long: Vec<f64> = pts.iter().filter(|p| p.mid() >= 6.0).map(|p| p.mean).collect();
    let (s, l) = (mean(&short), mean(&long));
    println!("\nshort jobs (<2 h): {s:.2} moves/h;  long jobs (≥6 h): {l:.2} moves/h");
    println!("paper: short jobs checkpoint at a higher hourly rate; long jobs settle down");
    assert!(
        s > l,
        "short jobs must move more per hour than long jobs ({s:.2} vs {l:.2})"
    );
    // Context: per-move cost.
    let mean_image = out.jobs.iter().map(|j| j.spec.image_bytes as f64).sum::<f64>()
        / out.jobs.len() as f64;
    println!(
        "mean image {:.2} MB → {:.1} s of local CPU per move at 5 s/MB (paper: ~2.5 s)",
        mean_image / 1e6,
        5.0 * mean_image / 1e6
    );
}

/// Figure 9 — remote-execution leverage vs service demand.
///
/// Paper shape: average leverage ≈ 1300 (a minute of local CPU buys ~22
/// hours of remote CPU); longer jobs have higher leverage; jobs under two
/// hours still average ≈ 600.
pub(super) fn fig9(ctx: &Ctx) {
    let out = ctx.month();
    let pts = leverage_points(out);

    println!("== Fig. 9: Remote Execution Leverage ==");
    println!(
        "{}",
        points_block("(demand bucket midpoint h, mean leverage)", &mids(&pts))
    );
    for p in &pts {
        println!(
            "bucket {:>5.1}h: leverage {:>8.0} over {} jobs",
            p.mid(),
            p.mean,
            p.jobs
        );
    }
    let overall = mean_leverage(&out.jobs, |_| true).unwrap();
    let short = mean_leverage(&out.jobs, |j| j.spec.demand.as_hours_f64() < 2.0).unwrap();
    let long = mean_leverage(&out.jobs, |j| j.spec.demand.as_hours_f64() >= 6.0).unwrap();
    println!("\noverall mean leverage     : {overall:>6.0}   (paper ≈ 1300)");
    println!("jobs under 2 h            : {short:>6.0}   (paper ≈ 600)");
    println!("jobs of 6 h and more      : {long:>6.0}   (longer jobs leverage higher)");
    println!(
        "interpretation: 1 minute of local capacity buys {:.1} hours of remote capacity",
        overall / 60.0
    );
    assert!(long > short, "leverage must grow with demand ({long:.0} vs {short:.0})");
}

/// §3 headline numbers: available vs consumed capacity, utilizations,
/// leverage, and control-plane overheads.
///
/// Paper values (23 stations, one month): 12438 station-hours available,
/// 4771 consumed (~200 CPU-days), availability ≈ 75%, local utilization
/// ≈ 25%, average leverage ≈ 1300, coordinator and local scheduler < 1%.
pub(super) fn summary(ctx: &Ctx) {
    let started = std::time::Instant::now();
    // The whole report reads the streaming telemetry summary and the run
    // totals — nothing below looks at the month's buffered trace.
    let out = ctx.month();
    let s = summarize(out);

    println!("== §3 summary: one month, {} stations ==", s.stations);
    let mut t = Table::labelled(&["Metric", "Paper", "Measured"]);
    let pct = |fraction: f64| format!("{:.0}%", fraction * 100.0);
    for (metric, paper, measured) in [
        ("Jobs submitted", "918", s.jobs_submitted.to_string()),
        ("Jobs completed", "(most)", s.jobs_completed.to_string()),
        ("Available station-hours", "12438", num(s.available_hours, 0)),
        ("Consumed CPU-hours", "4771", num(s.consumed_hours, 0)),
        ("Consumed CPU-days", "~200", num(s.consumed_hours / 24.0, 0)),
        ("Availability", "~75%", pct(s.availability)),
        ("Local utilization", "~25%", pct(s.local_utilization)),
        ("System utilization", "(fig 5)", pct(s.system_utilization)),
        ("Mean leverage", "~1300", num(s.mean_leverage, 0)),
        ("Mean wait ratio", "(fig 4)", num(s.mean_wait_ratio, 2)),
        ("Mean moves per job", "(fig 8)", num(s.mean_checkpoints, 2)),
        ("Placements", "-", s.placements.to_string()),
        ("Migrations", "-", s.migrations.to_string()),
    ] {
        t.row(vec![metric.into(), paper.into(), measured]);
    }
    println!("{}", t.render());

    println!(
        "control plane: {} polls, coordinator overhead (configured) {:.1}%, local scheduler {:.1}%",
        out.totals.polls,
        100.0 * condor_model::costs::COORDINATOR_OVERHEAD,
        100.0 * condor_model::costs::LOCAL_SCHEDULER_OVERHEAD,
    );
    println!(
        "owner interference from detection latency: {:.1} min total across {} owner preemptions",
        out.totals.interference_ms as f64 / 60_000.0,
        out.totals.preemptions_owner,
    );
    println!(
        "network: {} transfers, {:.1} MB moved",
        out.bus_transfers,
        out.bus_bytes_moved as f64 / 1e6
    );

    // Event-level counts from the O(1)-memory telemetry stream.
    let tel = &out.telemetry;
    let count = |name: &str| TraceKind::index_of_name(name).map_or(0, |i| tel.counts[i]);
    println!(
        "telemetry ({} events): {} suspensions, {} checkpoints, {} kills, {} in-place resumes",
        tel.events_total,
        count("job_suspended"),
        count("checkpoint_completed"),
        count("job_killed"),
        count("job_resumed_in_place"),
    );
    println!(
        "queue wait: mean {:.1} min, ~p99 {:.0} min; remote bursts: mean {:.1} min",
        tel.queue_wait_ms.mean() / 60_000.0,
        tel.queue_wait_ms.quantile(0.99).unwrap_or(0) as f64 / 60_000.0,
        tel.remote_burst_ms.mean() / 60_000.0,
    );
    eprintln!("[exp summary ran in {:.2?}]", started.elapsed());
}

/// Exports every figure's data series as CSV for external plotting, into
/// the directory given after `export` (default: `figures/`).
pub(super) fn export(ctx: &Ctx) {
    let dir = &ctx.export_dir;
    write_figures(ctx)
        .unwrap_or_else(|e| panic!("writing figure CSVs to {}: {e}", dir.display()));
    println!("wrote 8 figure CSVs to {}", dir.display());
}

fn write_figures(ctx: &Ctx) -> std::io::Result<()> {
    let (month, week) = (ctx.month(), ctx.week());
    let dir = &ctx.export_dir;

    // Fig. 2 — demand CDF.
    let mut s = CsvSeries::new(&["demand_hours", "fraction_below"]);
    for (x, f) in demand_cdf(month).1 {
        s.row(&[x, f]);
    }
    s.write_to(&dir.join("fig2_demand_cdf.csv"))?;

    // Figs. 3 & 7 — queue lengths (month hourly, week hourly).
    for (name, out) in [("fig3_month_queue.csv", month), ("fig7_week_queue.csv", week)] {
        let (total, light) = queue_lengths(out);
        let mut s = CsvSeries::new(&["hour", "total_queue", "light_queue"]);
        for (h, (t, l)) in total.iter().zip(&light).enumerate() {
            s.row(&[h as f64, *t, *l]);
        }
        s.write_to(&dir.join(name))?;
    }

    // Fig. 4 — wait ratio vs demand (all + light).
    let mut s = CsvSeries::new(&["demand_mid_hours", "wait_ratio_all", "wait_ratio_light"]);
    let (all, light) = wait_ratio_points(month);
    for p in &all {
        let l = light
            .iter()
            .find(|q| (q.mid() - p.mid()).abs() < 1e-9)
            .map(|q| q.mean)
            .unwrap_or(f64::NAN);
        s.row(&[p.mid(), p.mean, l]);
    }
    s.write_to(&dir.join("fig4_wait_ratio.csv"))?;

    // Figs. 5 & 6 — utilization (month, week), as fractions.
    for (name, out) in [
        ("fig5_month_utilization.csv", month),
        ("fig6_week_utilization.csv", week),
    ] {
        let system = out.system_utilization_hourly();
        let local = out.local_utilization_hourly();
        let mut s = CsvSeries::new(&["hour", "system_utilization", "local_utilization"]);
        for (h, (sys, loc)) in system.iter().zip(&local).enumerate() {
            s.row(&[h as f64, *sys, *loc]);
        }
        s.write_to(&dir.join(name))?;
    }

    // Figs. 8 & 9 — checkpoint rate and leverage vs demand.
    for (name, column, points) in [
        ("fig8_checkpoint_rate.csv", "checkpoints_per_hour", checkpoint_rate_points(month)),
        ("fig9_leverage.csv", "mean_leverage", leverage_points(month)),
    ] {
        let mut s = CsvSeries::new(&["demand_mid_hours", column, "jobs"]);
        for p in points {
            s.row(&[p.mid(), p.mean, p.jobs as f64]);
        }
        s.write_to(&dir.join(name))?;
    }
    Ok(())
}
