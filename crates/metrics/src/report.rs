//! Terminal rendering of the [`Telemetry`] summary and [`SpanLog`]
//! breakdowns.
//!
//! [`render_telemetry`] turns the O(1)-memory summary every run produces
//! into the tables the `condor report` subcommand prints: per-kind event
//! counts, histogram digests (count / mean / p50 / p99 / max), and
//! gauge-series digests. [`render_spans`] turns a folded [`SpanLog`] into
//! the where-time-went tables behind `condor spans`.

use condor_core::spans::{SpanLog, SpanPhase};
use condor_core::telemetry::Telemetry;
use condor_sim::stats::LogHistogram;
use condor_sim::time::SimDuration;

use crate::table::{num, Align, Table};

fn histogram_row(name: &str, h: &LogHistogram, unit: &str) -> Vec<String> {
    if h.is_empty() {
        return vec![name.into(), "0".into(), "-".into(), "-".into(), "-".into(), "-".into()];
    }
    vec![
        name.into(),
        h.count().to_string(),
        format!("{} {unit}", num(h.mean(), 1)),
        format!("{} {unit}", h.quantile(0.5).expect("non-empty")),
        format!("{} {unit}", h.quantile(0.99).expect("non-empty")),
        format!("{} {unit}", h.max().expect("non-empty")),
    ]
}

/// Renders a [`Telemetry`] summary as monospace tables.
///
/// Histogram quantiles are log₂-bucket approximations (within a factor of
/// two); counts, means, and extrema are exact.
pub fn render_telemetry(t: &Telemetry) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "telemetry: {} events over {}\n\n",
        t.events_total, t.finished_at
    ));

    let mut counts = Table::labelled(&["event", "count"]);
    for (name, c) in t.nonzero_counts() {
        counts.row(vec![name.into(), c.to_string()]);
    }
    out.push_str(&counts.render());
    out.push('\n');

    let mut hist = Table::labelled(&["histogram", "count", "mean", "~p50", "~p99", "max"]);
    hist.row(histogram_row("queue wait", &t.queue_wait_ms, "ms"));
    hist.row(histogram_row("remote burst", &t.remote_burst_ms, "ms"));
    hist.row(histogram_row("checkpoint size", &t.checkpoint_bytes, "B"));
    out.push_str(&hist.render());
    out.push('\n');

    let mut gauges = Table::labelled(&["gauge", "samples", "mean", "max", "points"]);
    gauges.row(vec![
        "bus backlog (ms)".into(),
        t.bus_backlog_ms.samples().to_string(),
        num(t.bus_backlog_ms.mean(), 1),
        num(t.bus_backlog_ms.max().unwrap_or(0.0), 1),
        t.bus_backlog_ms.len().to_string(),
    ]);
    gauges.row(vec![
        "up-down index".into(),
        t.updown_index.samples().to_string(),
        num(t.updown_index.mean(), 2),
        num(t.updown_index.max().unwrap_or(0.0), 2),
        t.updown_index.len().to_string(),
    ]);
    out.push_str(&gauges.render());
    out
}

/// Renders the where-time-went breakdown of a [`SpanLog`]: the aggregate
/// per-phase split, the critical-path job's own split, and the `limit`
/// jobs with the largest wall clocks.
///
/// Because spans are gapless, every row's phase columns sum exactly to its
/// wall-clock column.
pub fn render_spans(log: &SpanLog, limit: usize) -> String {
    let b = log.breakdown();
    let mut out = String::new();
    out.push_str(&format!(
        "spans: {} jobs, {} stations hosted work, horizon {}\n",
        b.per_job.len(),
        log.stations.len(),
        log.finished_at
    ));
    out.push_str(&format!("makespan {} (first arrival to last completion)\n\n", b.makespan));

    let share = |d: SimDuration, total: SimDuration| -> String {
        if total.is_zero() {
            "-".into()
        } else {
            format!("{}%", num(100.0 * d.as_millis() as f64 / total.as_millis() as f64, 1))
        }
    };

    let mut agg = Table::labelled(&["phase", "total", "share"]);
    for phase in SpanPhase::ALL {
        let d = b.aggregate[phase.index()];
        agg.row(vec![phase.name().into(), d.to_string(), share(d, b.total_wall)]);
    }
    agg.row(vec!["all phases".into(), b.total_wall.to_string(), share(b.total_wall, b.total_wall)]);
    out.push_str(&agg.render());
    out.push('\n');

    if let Some(c) = &b.critical {
        out.push_str(&format!(
            "critical path: job {} ({}) — wall {}\n",
            c.job.0,
            if c.completed { "closes the makespan" } else { "still unfinished at the horizon" },
            c.wall
        ));
        let parts: Vec<String> = SpanPhase::ALL
            .iter()
            .filter(|p| !c.by_phase[p.index()].is_zero())
            .map(|p| format!("{} {}", p.name(), c.by_phase[p.index()]))
            .collect();
        out.push_str(&format!("  {}\n\n", parts.join(", ")));
    }

    let mut rows: Vec<_> = b.per_job.iter().collect();
    rows.sort_by(|a, b| b.wall.cmp(&a.wall).then(a.job.cmp(&b.job)));
    let shown = rows.len().min(limit);
    out.push_str(&format!("top {shown} of {} jobs by wall clock:\n", rows.len()));
    let mut table = Table::new(
        vec!["job", "wall", "queued", "transfer", "running", "suspended", "checkpointing", "done"],
        vec![
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Left,
        ],
    );
    for jb in rows.into_iter().take(limit) {
        let mut row = vec![jb.job.0.to_string(), jb.wall.to_string()];
        for phase in SpanPhase::ALL {
            row.push(jb.by_phase[phase.index()].to_string());
        }
        row.push(if jb.completed { "yes".into() } else { "no".into() });
        table.row(row);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_core::cluster::Run;
    use condor_core::config::ClusterConfig;
    use condor_sim::time::SimDuration;

    #[test]
    fn renders_a_live_run() {
        let out = Run::new(ClusterConfig { stations: 6, record_trace: false, ..ClusterConfig::default() })
            .horizon(SimDuration::from_days(3))
            .execute();
        let text = render_telemetry(&out.telemetry);
        assert!(text.contains("owner_active"), "{text}");
        assert!(text.contains("coordinator_polled"), "{text}");
        assert!(text.contains("bus backlog"), "{text}");
        assert!(text.contains("up-down index"), "{text}");
    }

    #[test]
    fn empty_telemetry_renders_dashes() {
        let text = render_telemetry(&Telemetry::default());
        assert!(text.contains("0 events"), "{text}");
        assert!(text.contains('-'), "{text}");
    }

    #[test]
    fn renders_spans_of_a_live_run() {
        use condor_core::cluster::Run;
        use condor_core::job::{JobId, JobSpec, UserId};
        use condor_core::spans::SpanSink;
        use condor_core::telemetry::SharedSink;
        use condor_net::NodeId;
        use condor_sim::time::SimTime;

        let jobs: Vec<JobSpec> = (0..5)
            .map(|i| JobSpec {
                image_bytes: 250_000,
                syscalls_per_cpu_sec: 0.1,
                ..JobSpec::new(
                    JobId(i),
                    UserId(0),
                    NodeId::new((i % 3) as u32),
                    SimTime::from_hours(i),
                    SimDuration::from_hours(3),
                )
            })
            .collect();
        let spans = SharedSink::new(SpanSink::new());
        let _ = Run::new(ClusterConfig { stations: 3, seed: 5, ..ClusterConfig::default() })
            .specs(jobs)
            .horizon(SimDuration::from_days(2))
            .sink(Box::new(spans.clone()))
            .execute();
        let log = spans.with(|s| s.log().clone());
        let text = render_spans(&log, 10);
        assert!(text.contains("spans: 5 jobs"), "{text}");
        assert!(text.contains("running"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("all phases"), "{text}");
    }

    #[test]
    fn renders_empty_span_log() {
        let text = render_spans(&SpanLog::default(), 10);
        assert!(text.contains("spans: 0 jobs"), "{text}");
    }
}
