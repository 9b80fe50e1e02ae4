//! Property tests for the cluster-trace CSV readers (Alibaba
//! `batch_task` and the Google job digest): arbitrary input never
//! panics them, and the streamed [`CTraceSource`] and the materializing
//! [`read_to_workload`] agree on every trace — the same jobs, or the
//! same error at the same line.

use nodeshare_perf::AppCatalog;
use nodeshare_workload::ctrace::{read_to_workload, CTraceOptions, CTraceSource, TraceFormat};
use nodeshare_workload::{JobSource, JobSpec, SourceError};
use proptest::prelude::*;
use std::io::BufReader;

const FORMATS: [TraceFormat; 2] = [TraceFormat::AlibabaBatch, TraceFormat::GoogleJobs];

/// Pulls `bytes` through a streamed source chunk by chunk, as the engine
/// does, over a reader buffer of `capacity` bytes so lines straddle
/// refills.
fn stream(bytes: &[u8], format: TraceFormat, capacity: usize) -> Result<Vec<JobSpec>, SourceError> {
    let catalog = AppCatalog::trinity();
    let reader = BufReader::with_capacity(capacity, bytes);
    let mut src = CTraceSource::new(reader, format, &catalog, CTraceOptions::default());
    let mut jobs = Vec::new();
    while src.next_chunk(&mut jobs)?.is_some() {}
    Ok(jobs)
}

/// Field values the readers special-case.
const SPECIAL: [&str; 10] = [
    "",
    "Terminated",
    "Failed",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "-0",
    " 7 ",
    "x",
];

/// One CSV field: numbers of every sign and size, the values the
/// readers special-case, and junk.
fn field() -> impl Strategy<Value = String> {
    prop_oneof![
        (-10i64..100_000).prop_map(|v| v.to_string()),
        (-1.0e3f64..1.0e6).prop_map(|v| v.to_string()),
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i].to_string()),
        "[a-z0-9_]{0,6}",
    ]
}

/// Comma-joined rows of 0–11 fields, with the odd comment line.
fn csv_text() -> impl Strategy<Value = String> {
    let row = || prop::collection::vec(field(), 0..12).prop_map(|f| f.join(","));
    let line = prop_oneof![row(), row(), row(), "#[a-z ]{0,20}"];
    prop::collection::vec(line, 0..40).prop_map(|lines| lines.join("\n"))
}

/// A usable row of `format` submitted at `submit`.
fn row(format: TraceFormat, i: usize, submit: u32, duration: u32, cpu: u32) -> String {
    match format {
        TraceFormat::AlibabaBatch => format!(
            "task_{i},{},j_{},{},Terminated,{submit},{},{cpu},{}",
            1 + i % 4,
            i / 3,
            i % 5,
            submit + duration,
            i % 20
        ),
        TraceFormat::GoogleJobs => format!(
            "{i},{submit},{duration},{},{},{},usr_{}",
            1 + cpu / 10,
            (i % 10) as f64 / 10.0,
            i % 4,
            i % 7
        ),
    }
}

/// A well-formed trace in either dialect with one line corrupted — an
/// unparsable submit, too few columns, a non-finite number, or a submit
/// far behind the reorder window — or left intact. Also returns the
/// corrupted line number when it must fail: any corrupted line but the
/// first, which may read as a Google header or set the epoch.
fn corrupted_trace() -> impl Strategy<Value = (TraceFormat, String, Option<usize>)> {
    (
        0usize..2,
        prop::collection::vec((0u32..90, 1u32..5_000, 1u32..3_200), 1..40),
        0usize..1_000,
        0usize..5,
    )
        .prop_map(|(f, raw, victim, kind)| {
            let format = FORMATS[f];
            let mut submit = 1_000u32;
            let mut lines: Vec<String> = raw
                .iter()
                .enumerate()
                .map(|(i, &(gap, duration, cpu))| {
                    submit += gap;
                    row(format, i, submit, duration, cpu)
                })
                .collect();
            let v = victim % lines.len();
            // The submit and a numeric field the row filters read.
            let (submit_at, number_at) = match format {
                TraceFormat::AlibabaBatch => (5, 7),
                TraceFormat::GoogleJobs => (1, 2),
            };
            let mut fields: Vec<String> = lines[v].split(',').map(str::to_string).collect();
            match kind {
                0 => fields[submit_at] = "12x".into(),
                1 => fields.truncate(3),
                2 => fields[number_at] = "NaN".into(),
                3 => {
                    fields = row(format, v, 0, 10, 100)
                        .split(',')
                        .map(str::to_string)
                        .collect()
                }
                _ => {}
            }
            lines[v] = fields.join(",");
            let bad = (kind < 4 && v > 0).then_some(v + 1);
            (format, lines.join("\n") + "\n", bad)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes — invalid UTF-8 included — are a clean `Ok` or
    /// `Err` from both readers in both dialects, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        capacity in 1usize..64,
    ) {
        for format in FORMATS {
            let _ = stream(&bytes, format, capacity);
            let text = String::from_utf8_lossy(&bytes);
            let _ = read_to_workload(&text, format, &AppCatalog::trinity(), CTraceOptions::default());
        }
    }

    /// CSV-shaped junk reaches the field parsers and row filters; the
    /// streamed and materialized readers agree on every outcome.
    #[test]
    fn csv_junk_streams_and_materializes_alike(text in csv_text(), capacity in 1usize..64) {
        for format in FORMATS {
            assert_same_outcome(&text, format, capacity)?;
        }
    }

    /// A corrupted line of an otherwise valid trace fails both readers
    /// with the same error, naming that line.
    #[test]
    fn corrupt_line_fails_both_readers_alike(
        trace in corrupted_trace(),
        capacity in 1usize..64,
    ) {
        let (format, text, bad) = trace;
        assert_same_outcome(&text, format, capacity)?;
        if let Some(line) = bad {
            let e = stream(text.as_bytes(), format, capacity).expect_err("corrupt line accepted");
            prop_assert_eq!(e.line, Some(line), "{}", e);
        }
    }
}

/// Streamed and materialized reads of `text` end the same way: equal
/// jobs, or equal errors. The one failure only materializing can add is
/// the whole-workload validation, which names no line.
fn assert_same_outcome(text: &str, format: TraceFormat, capacity: usize) -> Result<(), String> {
    let catalog = AppCatalog::trinity();
    let streamed = stream(text.as_bytes(), format, capacity);
    let materialized = read_to_workload(text, format, &catalog, CTraceOptions::default());
    match (streamed, materialized) {
        (Err(s), Err(m)) => prop_assert_eq!(s, m),
        (Ok(jobs), Ok((w, _))) => prop_assert_eq!(&jobs[..], w.jobs()),
        (Ok(_), Err(m)) => prop_assert_eq!(m.line, None, "{}", m),
        (Err(s), Ok(_)) => prop_assert!(false, "only the stream failed: {}", s),
    }
    Ok(())
}
