//! `nodeshare report` on hostile trace files: bad input is a clean
//! error and exit status 1, never an abort.

use std::path::Path;
use std::process::Command;

/// Runs the built `nodeshare report` on `trace`, writing any artifacts
/// into `out_dir`; returns the exit code and stderr.
fn report(trace: &Path, out_dir: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
        .arg("report")
        .arg(trace)
        .arg("--perfetto")
        .arg(out_dir.join("out.perfetto.json"))
        .arg("--md")
        .arg(out_dir.join("out.md"))
        .output()
        .expect("nodeshare runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn deeply_nested_trace_exits_1_with_the_depth_error() {
    // 200 000 `[`: an unbounded recursive reader overflows the main
    // thread's stack on this and aborts.
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/deep_nesting.json");
    let dir = std::env::temp_dir().join("nodeshare_report_cli_depth_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (code, stderr) = report(&fixture, &dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("nesting deeper than 128 at byte 128"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn signed_unicode_escape_is_rejected() {
    let dir = std::env::temp_dir().join("nodeshare_report_cli_escape_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    std::fs::write(
        &trace,
        r#"{"events":[{"type":"node_down","t":1,"node":0,"cause":"\u+041"}]}"#,
    )
    .unwrap();
    let (code, stderr) = report(&trace, &dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("escape at byte 55"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_order_trace_exits_1_naming_the_event() {
    // Event 3 finishes the job at t=3, before its start at t=5.
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/out_of_order_trace.json");
    let dir = std::env::temp_dir().join("nodeshare_report_cli_order_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (code, stderr) = report(&fixture, &dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("event 3: time 3 precedes the previous event's 5"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
