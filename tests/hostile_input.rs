//! Hostile input for the three text decoders: one JSONL trace line
//! (`TraceEvent::from_jsonl`), a whole JSONL trace (`events_from_jsonl`)
//! and a chaos schedule (`ChaosSchedule::from_json`). Arbitrary text and
//! byte-level drop / duplicate / flip mutations of valid input must come
//! back `Ok` or as a typed error, never as a panic, and whatever decodes
//! must re-encode and decode to itself.
//!
//! `PROPTEST_CASES=2000 cargo test --release -q --test hostile_input`

mod common;

use std::sync::OnceLock;

use condor::core::chaos::{ChaosGen, ChaosSchedule};
use condor::core::trace::{TraceEvent, TraceKind};
use condor::metrics::export::{events_from_jsonl, events_to_jsonl};
use condor::prelude::*;
use proptest::prelude::*;
use proptest::sample::Index;

/// Valid lines, as the writer renders the golden chaos run.
fn corpus() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let s = common::chaos();
        let out = Run::new(s.config).specs(s.jobs).horizon(s.horizon).execute();
        out.trace.events().iter().map(TraceEvent::to_jsonl).collect()
    })
}

/// One edit: `(op, where, bit)`.
type Edit = (u8, Index, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..4, any::<Index>(), any::<u8>()), 1..4)
}

/// Applies each edit at a byte position: drop the byte, duplicate it, flip
/// one of its bits, or swap the line's `"kind"` token for another kind's
/// name (the fields then belong to a different kind). The bytes are read
/// back lossily, since the decoders take `&str`.
fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut text = text.to_string();
    for &(op, at, bit) in edits {
        let mut bytes = text.into_bytes();
        if bytes.is_empty() {
            return String::new();
        }
        let i = at.index(bytes.len());
        match op {
            0 => {
                bytes.remove(i);
            }
            1 => bytes.insert(i, bytes[i]),
            2 => bytes[i] ^= 1 << (bit % 8),
            _ => bytes = swap_kind(&bytes, TraceKind::names()[at.index(TraceKind::COUNT)]),
        }
        text = String::from_utf8_lossy(&bytes).into_owned();
    }
    text
}

fn swap_kind(line: &[u8], name: &str) -> Vec<u8> {
    let line = String::from_utf8_lossy(line);
    let Some(start) = line.find("\"kind\":\"").map(|i| i + 8) else {
        return line.into_owned().into_bytes();
    };
    let end = line[start..].find('"').map_or(line.len(), |e| start + e);
    format!("{}{name}{}", &line[..start], &line[end..]).into_bytes()
}

fn line_holds(line: &str) {
    if let Ok(ev) = TraceEvent::from_jsonl(line) {
        assert_eq!(TraceEvent::from_jsonl(&ev.to_jsonl()), Ok(ev), "decoded from {line:?}");
    }
}

fn trace_holds(text: &str) {
    if let Ok(events) = events_from_jsonl(text) {
        assert_eq!(events_from_jsonl(&events_to_jsonl(&events)), Ok(events), "{text:?}");
    }
}

fn schedule_holds(text: &str) {
    if let Ok(schedule) = ChaosSchedule::from_json(text) {
        assert_eq!(ChaosSchedule::from_json(&schedule.to_json()), Ok(schedule), "{text:?}");
    }
}

proptest! {
    #[test]
    fn arbitrary_text_decodes_or_fails_typed(
        text in prop_oneof![
            "[\\PC]{0,80}".boxed(),
            "[{}\":,0-9a-z_ ]{0,80}".boxed(),
            prop::collection::vec(any::<u8>(), 0..80)
                .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
                .boxed(),
        ],
    ) {
        line_holds(&text);
        trace_holds(&text);
        schedule_holds(&text);
        schedule_holds(&format!("{{\"entries\":[{text}]}}"));
    }

    #[test]
    fn mutated_trace_lines_decode_or_fail_typed(
        pick in any::<Index>(),
        span in 1usize..4,
        edits in edits(),
    ) {
        let lines = corpus();
        let first = pick.index(lines.len());
        let line = mutate(&lines[first], &edits);
        line_holds(&line);
        let window = lines[first..(first + span).min(lines.len())].join("\n");
        trace_holds(&mutate(&window, &edits));
    }

    #[test]
    fn mutated_chaos_schedules_parse_or_fail_typed(
        seed in any::<u64>(),
        faults in 1usize..6,
        edits in edits(),
    ) {
        let gen = ChaosGen { horizon: SimDuration::from_days(5), stations: 40, faults };
        let text = ChaosSchedule::generate(seed, &gen).to_json();
        schedule_holds(&mutate(&text, &edits));
    }
}
