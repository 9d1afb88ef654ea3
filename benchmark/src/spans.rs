//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, the span that caused it, and the iteration it
//! belongs to. Written out as Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::write_str;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, busy time and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    pub count: u64,
    pub busy_ns: u64,
    /// Busy time minus the part child spans cover.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn recording() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// Tracing off: `span` only calls its closure, nothing is recorded.
    /// The untraced run uses this, so both runs share one code path.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::recording()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on carry this iteration id.
    pub fn set_iteration(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Records a span measured elsewhere (a folded class of the stepped
    /// run) as a child of the innermost open span, starting at `start_ns`
    /// on this tracer's clock.
    pub fn record(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
    }

    /// Start of the innermost open span on this tracer's clock.
    pub fn open_start_ns(&self) -> u64 {
        self.open.last().map_or(0, |&id| self.spans[id].start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals. A span's self time is its duration minus the sum
    /// of its direct children's durations (children of one parent never
    /// overlap: everything here is recorded from one thread).
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.busy_ns += s.dur_ns();
            row.self_ns += s.dur_ns().saturating_sub(*children);
        }
        table
    }

    /// Share of the spans called `root` that their direct children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        self.layer_table()
            .get(root)
            .map_or(0.0, |r| 1.0 - r.self_ns as f64 / r.busy_ns.max(1) as f64)
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// ("X") event per span, parent and iteration in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\":");
            write_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"iter\":{}}}}}",
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.iter,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::recording()
        }
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixed(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("leaf", 55, 65, Some(2)),
            span("a", 90, 95, Some(0)),
        ]);
        let table = t.layer_table();
        assert_eq!(
            table["root"],
            LayerRow {
                count: 1,
                busy_ns: 100,
                self_ns: 25
            }
        );
        assert_eq!(
            table["a"],
            LayerRow {
                count: 2,
                busy_ns: 35,
                self_ns: 35
            }
        );
        assert_eq!(
            table["b"],
            LayerRow {
                count: 1,
                busy_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(
            table["leaf"],
            LayerRow {
                count: 1,
                busy_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(t.coverage("root"), 0.75);
        assert_eq!(t.coverage("absent"), 0.0);
        // Self times partition the root: nothing is counted twice or lost.
        let total: u64 = table.values().map(|r| r.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::recording();
        t.set_iteration(7);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            let at = t.open_start_ns();
            t.record("folded", at, 5);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!(
            (s[2].name, s[2].parent, s[2].dur_ns()),
            ("folded", Some(0), 5)
        );
        assert!(s.iter().all(|s| s.iter == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("outer", |t| t.span("inner", |_| 5)), 5);
        t.record("folded", 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = fixed(vec![
            span("root", 0, 2_000, None),
            span("kid \"q\"", 500, 1_500, Some(0)),
        ]);
        let doc = json::parse(&t.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("kid \"q\""));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
