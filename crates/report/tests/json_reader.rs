//! Properties of the trace JSON reader.
//!
//! * **Round trip**: any string written with [`escape`] reads back
//!   unchanged — multi-byte UTF-8, quotes, backslashes and control
//!   characters included.
//! * **No panic**: arbitrary input is a value or an `Err`, never a panic.
//! * **Linear time**: a 1 MiB string and a ~100k-event trace each parse
//!   well within a bound that a reader quadratic in its input (minutes
//!   on the 1 MiB string) cannot meet, even in a debug build.

use std::time::{Duration, Instant};

use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_engine::{DecisionTrace, StartReason, TraceEvent};
use nodeshare_perf::AppId;
use nodeshare_report::json::escape;
use nodeshare_report::{JsonValue, TraceData};
use nodeshare_workload::Malleability;
use proptest::prelude::*;

/// Generous wall-clock bound for the scaling tests, debug build included.
const LINEAR_BOUND: Duration = Duration::from_secs(5);

/// Code points from every UTF-8 length class, with the characters that
/// need escaping (controls, `"` and `\`) drawn often.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x20u32..0x80,
        0x80u32..0x800,
        0x800u32..0xD800,
        0xE000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("no surrogates drawn"))
}

/// JSON tokens, broken tokens and multi-byte text, for input that gets
/// past the first byte of the reader.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\u00",
    "0041",
    "+",
    "-",
    "1",
    "1.5e3",
    "e",
    "true",
    "tru",
    "null",
    "false",
    " ",
    "\n",
    "é",
    "\u{1F980}",
    "\"a\"",
    "\"k\":",
    "\\\"",
    "\\n",
    "\\x",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn escaped_strings_round_trip(chars in prop::collection::vec(any_char(), 0..64)) {
        let s: String = chars.into_iter().collect();
        let doc = format!("\"{}\"", escape(&s));
        prop_assert_eq!(JsonValue::parse(&doc), Ok(JsonValue::String(s)));
    }

    #[test]
    fn arbitrary_input_never_panics(
        idxs in prop::collection::vec(0usize..FRAGMENTS.len(), 0..48),
        text in "(?s).{0,32}",
    ) {
        let tokens: String = idxs.iter().map(|&i| FRAGMENTS[i]).collect();
        for src in [&tokens, &text, &format!("{tokens}{text}"), &format!("[{text}")] {
            let _ = JsonValue::parse(src);
        }
    }
}

#[test]
fn one_mebibyte_string_parses_in_linear_time() {
    // Long plain runs of multi-byte text, broken by an escape now and
    // then so both arms of the string scanner carry weight.
    let chunk = format!("{}\"\n", "node lane é 🦀 ".repeat(64));
    let expected = chunk.repeat((1 << 20) / chunk.len() + 1);
    let doc = format!("{{\"s\":\"{}\"}}", escape(&expected));

    let started = Instant::now();
    let v = JsonValue::parse(&doc).expect("parses");
    let took = started.elapsed();

    assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(&*expected));
    assert!(took < LINEAR_BOUND, "1 MiB string took {took:?}");
}

#[test]
fn hundred_thousand_event_trace_parses_in_linear_time() {
    let mut trace = DecisionTrace::new();
    for j in 0..20_000u64 {
        let t = j as f64 * 10.0;
        let nodes: Vec<NodeId> = (0..4).map(|n| NodeId(((j * 4 + n) % 128) as u32)).collect();
        trace.push(TraceEvent::Submitted {
            time: t,
            job: JobId(j),
            app: AppId((j % 7) as u8),
            nodes: 4,
            walltime_estimate: 3600.0,
            share_eligible: j % 2 == 0,
            malleable: Malleability::RIGID,
        });
        trace.push(TraceEvent::Started {
            time: t + 1.5,
            job: JobId(j),
            mode: ShareMode::Shared,
            nodes: nodes.clone(),
            reason: StartReason::CoScheduled { occupied: 2 },
            idle_before: 60,
            head_waiting: None,
            partners: vec![(nodes[0], JobId(j.saturating_sub(1)))],
        });
        trace.push(TraceEvent::Occupancy {
            time: t + 1.5,
            busy_cores: 4096,
            shared_nodes: 2,
        });
        trace.push(TraceEvent::Finished {
            time: t + 9.0,
            job: JobId(j),
            killed: j % 97 == 0,
        });
        trace.push(TraceEvent::Occupancy {
            time: t + 9.0,
            busy_cores: 2048,
            shared_nodes: 0,
        });
    }
    let json = trace.to_json();

    let started = Instant::now();
    let parsed = TraceData::parse_json(&json).expect("parses");
    let took = started.elapsed();

    assert_eq!(parsed.events.len(), 100_000);
    assert_eq!(parsed, TraceData::from_trace(&trace));
    assert!(
        took < LINEAR_BOUND,
        "{} MB trace took {took:?}",
        json.len() / 1_000_000
    );
}
