//! CSV and JSONL export of run data, for analysis outside the terminal.
//!
//! The experiment binaries print ASCII renderings; this module writes the
//! same series as plain CSV so the figures can be regenerated in gnuplot,
//! matplotlib, or a spreadsheet — and streams event traces as JSONL (one
//! flat JSON object per line) via [`JsonlSink`], the format every log
//! toolchain ingests.

use std::io::Write;
use std::path::Path;

use condor_core::spans::SpanLog;
use condor_core::telemetry::TraceSink;
use condor_core::trace::{TraceEvent, TraceParseError};
use condor_sim::time::SimTime;

/// A rectangular data set destined for one CSV file.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvSeries {
    /// Column names.
    pub columns: Vec<String>,
    /// Rows; every row must match the column count.
    pub rows: Vec<Vec<f64>>,
}

impl CsvSeries {
    /// Creates an empty series with the given columns.
    pub fn new(columns: &[&str]) -> CsvSeries {
        assert!(!columns.is_empty(), "CSV needs columns");
        CsvSeries {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn row(&mut self, values: &[f64]) -> &mut CsvSeries {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(values.to_vec());
        self
    }

    /// Renders the CSV text (header + rows, `\n`-terminated).
    pub fn render(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.render().as_bytes())
    }
}

/// A [`TraceSink`] that streams events as JSONL — one
/// [`TraceEvent::to_jsonl`] line per event — into any writer.
///
/// I/O errors do not panic mid-simulation: the first error is stored, all
/// further events are dropped, and [`error`](JsonlSink::error) exposes it
/// for the caller to check after the run. `finish` flushes the writer.
///
/// # Examples
///
/// ```
/// use condor_core::telemetry::TraceSink;
/// use condor_metrics::export::{events_from_jsonl, JsonlSink};
/// use condor_core::trace::{TraceEvent, TraceKind};
/// use condor_core::job::JobId;
/// use condor_sim::time::SimTime;
///
/// let mut sink = JsonlSink::new(Vec::new());
/// sink.record(&TraceEvent {
///     at: SimTime::from_secs(5),
///     kind: TraceKind::JobArrived { job: JobId(0) },
/// });
/// sink.finish(SimTime::from_secs(10));
/// let text = String::from_utf8(sink.into_writer()).unwrap();
/// assert_eq!(events_from_jsonl(&text).unwrap().len(), 1);
/// ```
pub struct JsonlSink<W: Write> {
    writer: W,
    written: u64,
    error: Option<std::io::Error>,
    /// Reused per-event render buffer, so steady-state streaming does not
    /// allocate per line.
    line: String,
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("written", &self.written)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, written: 0, error: None, line: String::with_capacity(128) }
    }

    /// Lines successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error hit, if any. While set, events are dropped.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Recovers the writer (e.g. the byte buffer when writing in memory).
    pub fn into_writer(self) -> W {
        self.writer
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        ev.write_jsonl(&mut self.line);
        self.line.push('\n');
        match self.writer.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn finish(&mut self, _at: SimTime) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Renders events as JSONL text (one line per event, `\n`-terminated).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    // A line runs 40 to 90 bytes: one allocation instead of ~20 doublings.
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        ev.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

/// Parses JSONL text back into events, skipping blank lines.
///
/// # Errors
///
/// Returns the first [`TraceParseError`] hit.
pub fn events_from_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(TraceEvent::from_jsonl)
        .collect()
}

// ----- Perfetto / Chrome trace-event export ------------------------------

/// Synthetic process id grouping job tracks in the trace viewer.
const CHROME_PID_JOBS: u32 = 1;
/// Synthetic process id grouping station tracks.
const CHROME_PID_STATIONS: u32 = 2;

fn chrome_us(t: SimTime) -> u64 {
    t.as_millis().saturating_mul(1_000)
}

fn chrome_metadata(out: &mut Vec<String>, pid: u32, tid: Option<u64>, name: &str) {
    match tid {
        None => out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )),
        Some(tid) => out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )),
    }
}

/// Renders a [`SpanLog`] in the Chrome trace-event JSON format, loadable
/// by Perfetto (`ui.perfetto.dev`) and `chrome://tracing`.
///
/// Layout:
/// * process 1, **jobs** — one track per job; its lifecycle spans become
///   complete (`ph:"X"`) events named after the phase, and its preemption
///   markers instant (`ph:"i"`) events;
/// * process 2, **stations** — one track per machine that ever hosted a
///   foreign job; occupancy intervals become complete events named
///   `job <id>`.
///
/// Timestamps and durations are microseconds of simulation time, per the
/// format's convention.
///
/// # Examples
///
/// ```
/// use condor_core::spans::SpanSink;
/// use condor_core::telemetry::TraceSink;
/// use condor_core::trace::{TraceEvent, TraceKind};
/// use condor_core::job::JobId;
/// use condor_metrics::export::spans_to_chrome_trace;
/// use condor_sim::time::SimTime;
///
/// let mut sink = SpanSink::new();
/// sink.record(&TraceEvent {
///     at: SimTime::from_secs(1),
///     kind: TraceKind::JobArrived { job: JobId(0) },
/// });
/// sink.finish(SimTime::from_secs(2));
/// let json = spans_to_chrome_trace(sink.log());
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
pub fn spans_to_chrome_trace(log: &SpanLog) -> String {
    let mut events: Vec<String> = Vec::new();
    chrome_metadata(&mut events, CHROME_PID_JOBS, None, "jobs");
    chrome_metadata(&mut events, CHROME_PID_STATIONS, None, "stations");
    for (&job, js) in &log.jobs {
        chrome_metadata(
            &mut events,
            CHROME_PID_JOBS,
            Some(job.0),
            &format!("job {}", job.0),
        );
        for s in &js.spans {
            let args = match s.station {
                Some(n) => format!(",\"args\":{{\"station\":{}}}", n.index()),
                None => String::new(),
            };
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{CHROME_PID_JOBS},\"tid\":{},\"ts\":{},\
                 \"dur\":{},\"cat\":\"phase\",\"name\":\"{}\"{args}}}",
                job.0,
                chrome_us(s.from),
                chrome_us(s.until).saturating_sub(chrome_us(s.from)),
                s.phase.name(),
            ));
        }
    }
    for m in &log.markers {
        events.push(format!(
            "{{\"ph\":\"i\",\"pid\":{CHROME_PID_JOBS},\"tid\":{},\"ts\":{},\"s\":\"t\",\
             \"cat\":\"marker\",\"name\":\"{}\",\"args\":{{\"station\":{}}}}}",
            m.job.0,
            chrome_us(m.at),
            m.label,
            m.station.index(),
        ));
    }
    for (&station, occupancies) in &log.stations {
        chrome_metadata(
            &mut events,
            CHROME_PID_STATIONS,
            Some(station.index() as u64),
            &format!("station {}", station.index()),
        );
        for o in occupancies {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{CHROME_PID_STATIONS},\"tid\":{},\"ts\":{},\
                 \"dur\":{},\"cat\":\"occupancy\",\"name\":\"job {}\",\
                 \"args\":{{\"job\":{}}}}}",
                station.index(),
                chrome_us(o.from),
                chrome_us(o.until).saturating_sub(chrome_us(o.from)),
                o.job.0,
                o.job.0,
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal recursive-descent JSON syntax check (no value semantics):
    /// enough to guarantee a viewer's parser will accept the export.
    fn check_json(text: &str) {
        fn skip_ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_ascii_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> usize {
            let i = skip_ws(b, i);
            match b.get(i) {
                Some(b'{') => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b'}') {
                        return i + 1;
                    }
                    loop {
                        i = string(b, skip_ws(b, i));
                        i = skip_ws(b, i);
                        assert_eq!(b.get(i), Some(&b':'), "expected ':' at {i}");
                        i = value(b, i + 1);
                        i = skip_ws(b, i);
                        match b.get(i) {
                            Some(b',') => i += 1,
                            Some(b'}') => return i + 1,
                            other => panic!("expected ',' or '}}' at {i}, got {other:?}"),
                        }
                    }
                }
                Some(b'[') => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b']') {
                        return i + 1;
                    }
                    loop {
                        i = value(b, i);
                        i = skip_ws(b, i);
                        match b.get(i) {
                            Some(b',') => i += 1,
                            Some(b']') => return i + 1,
                            other => panic!("expected ',' or ']' at {i}, got {other:?}"),
                        }
                    }
                }
                Some(b'"') => string(b, i),
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    let mut i = i + 1;
                    while i < b.len()
                        && (b[i].is_ascii_digit() || matches!(b[i], b'.' | b'e' | b'E' | b'+' | b'-'))
                    {
                        i += 1;
                    }
                    i
                }
                _ if b[i..].starts_with(b"true") => i + 4,
                _ if b[i..].starts_with(b"false") => i + 5,
                _ if b[i..].starts_with(b"null") => i + 4,
                other => panic!("unexpected JSON value at {i}: {other:?}"),
            }
        }
        fn string(b: &[u8], i: usize) -> usize {
            assert_eq!(b.get(i), Some(&b'"'), "expected '\"' at {i}");
            let mut i = i + 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => return i + 1,
                    _ => i += 1,
                }
            }
            panic!("unterminated string");
        }
        let b = text.as_bytes();
        let end = skip_ws(b, value(b, 0));
        assert_eq!(end, b.len(), "trailing garbage after JSON value");
    }

    #[test]
    fn chrome_trace_from_a_live_run_is_valid_json() {
        use condor_core::cluster::Run;
        use condor_core::config::ClusterConfig;
        use condor_core::job::{JobId, JobSpec, UserId};
        use condor_core::spans::SpanSink;
        use condor_core::telemetry::SharedSink;
        use condor_net::NodeId;
        use condor_sim::time::SimDuration;

        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| JobSpec {
                image_bytes: 300_000,
                syscalls_per_cpu_sec: 0.2,
                ..JobSpec::new(
                    JobId(i),
                    UserId(0),
                    NodeId::new((i % 4) as u32),
                    SimTime::from_hours(i),
                    SimDuration::from_hours(2),
                )
            })
            .collect();
        let spans = SharedSink::new(SpanSink::new());
        let _ = Run::new(ClusterConfig { stations: 4, seed: 11, ..ClusterConfig::default() })
            .specs(jobs)
            .horizon(SimDuration::from_days(2))
            .sink(Box::new(spans.clone()))
            .execute();
        let log = spans.with(|s| s.log().clone());
        assert!(!log.jobs.is_empty());
        let json = spans_to_chrome_trace(&log);
        check_json(&json);
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "complete events present");
        // Every span of every job surfaced as one complete event.
        let total_spans: usize = log.jobs.values().map(|j| j.spans.len()).sum();
        let total_occ: usize = log.stations.values().map(|o| o.len()).sum();
        let x_events = json.matches("\"ph\":\"X\"").count();
        assert_eq!(x_events, total_spans + total_occ);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), log.markers.len());
    }

    #[test]
    fn chrome_trace_of_empty_log_is_valid() {
        let json = spans_to_chrome_trace(&SpanLog::default());
        check_json(&json);
        assert!(json.contains("\"jobs\"") && json.contains("\"stations\""));
    }

    #[test]
    fn renders_header_and_rows() {
        let mut s = CsvSeries::new(&["hour", "queue"]);
        s.row(&[0.0, 3.0]).row(&[1.0, 4.5]);
        let text = s.render();
        assert_eq!(text, "hour,queue\n0,3\n1,4.5\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        CsvSeries::new(&["a", "b"]).row(&[1.0]);
    }

    #[test]
    fn writes_file_with_parents() {
        let dir = std::env::temp_dir().join(format!("condor-export-{}", std::process::id()));
        let path = dir.join("sub/fig.csv");
        let mut s = CsvSeries::new(&["v"]);
        s.row(&[7.0]);
        s.write_to(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "v\n7\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jsonl_sink_round_trips_a_run() {
        use condor_core::cluster::Run;
        use condor_core::config::ClusterConfig;
        use condor_core::telemetry::SharedSink;
        use condor_sim::time::SimDuration;

        let config = || ClusterConfig { stations: 5, seed: 9, ..ClusterConfig::default() };
        let sink = SharedSink::new(JsonlSink::new(Vec::new()));
        let _ = Run::new(config())
            .horizon(SimDuration::from_days(2))
            .sink(Box::new(sink.clone()))
            .execute();
        let bytes = sink.try_into_inner().expect("sole handle").into_writer();
        let text = String::from_utf8(bytes).unwrap();
        let decoded = events_from_jsonl(&text).expect("every line decodes");

        // The decoded stream is exactly the legacy trace of the same run.
        let reference = Run::new(config()).horizon(SimDuration::from_days(2)).execute();
        assert_eq!(decoded, reference.trace.events());
        assert!(!decoded.is_empty());
    }

    #[test]
    fn jsonl_sink_swallows_io_errors() {
        use condor_core::job::JobId;
        use condor_core::telemetry::TraceSink;
        use condor_core::trace::TraceKind;

        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        let ev = TraceEvent { at: SimTime::ZERO, kind: TraceKind::JobArrived { job: JobId(0) } };
        sink.record(&ev);
        sink.record(&ev);
        assert_eq!(sink.written(), 0);
        assert!(sink.error().is_some());
    }
}
