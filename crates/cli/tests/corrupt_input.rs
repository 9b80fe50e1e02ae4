//! A corrupt trace file on `--source`: streamed and materialized runs
//! fail with the same clean error naming the bad line, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// 24 valid SWF records, then one truncated at line 27 and a garbage line.
fn fixture() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/corrupt.swf")
        .to_string_lossy()
        .into_owned()
}

const BAD_LINE: &str = "line 27: expected 18 fields, found 4";

#[test]
fn streamed_and_materialized_sources_fail_at_the_same_line() {
    let path = fixture();
    for command in ["simulate", "metrics", "audit"] {
        for extra in [None, Some("--materialize")] {
            let mut argv = vec![command, "--source", &path, "--strategy", "easy"];
            argv.extend(extra);
            let err = nodeshare_cli::run_cli(argv.iter().copied())
                .expect_err("a corrupt source must fail the run")
                .to_string();
            assert_eq!(err, format!("{path}: {BAD_LINE}"), "{argv:?}");
        }
    }
}

#[test]
fn streamed_source_error_exits_1_naming_the_line_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
        .args(["simulate", "--source", &fixture()])
        .output()
        .expect("nodeshare runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(BAD_LINE), "{stderr}");
    assert_eq!(stderr.matches("line 27").count(), 1, "{stderr}");
}
