//! A corrupt trace file on `--source`: streamed and materialized runs
//! fail with the same clean error naming the bad line, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// Each corrupt fixture with the line it breaks at and the error there:
/// `corrupt.swf` holds 24 valid SWF records, then one truncated at line
/// 27 and a garbage line; `corrupt_alibaba.csv` holds Alibaba batch_task
/// rows, then one truncated at line 12 and a garbage line.
const FIXTURES: [(&str, usize, &str); 2] = [
    ("corrupt.swf", 27, "expected 18 fields, found 4"),
    (
        "corrupt_alibaba.csv",
        12,
        "expected 9 batch_task columns, found 3",
    ),
];

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn streamed_and_materialized_sources_fail_at_the_same_line() {
    for (name, line, message) in FIXTURES {
        let path = fixture(name);
        for command in ["simulate", "metrics", "audit"] {
            for extra in [None, Some("--materialize")] {
                let mut argv = vec![command, "--source", &path, "--strategy", "easy"];
                argv.extend(extra);
                let err = nodeshare_cli::run_cli(argv.iter().copied())
                    .expect_err("a corrupt source must fail the run")
                    .to_string();
                assert_eq!(err, format!("{path}: line {line}: {message}"), "{argv:?}");
            }
        }
    }
}

#[test]
fn streamed_source_error_exits_1_naming_the_line_once() {
    for (name, line, message) in FIXTURES {
        let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
            .args(["simulate", "--source", &fixture(name)])
            .output()
            .expect("nodeshare runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("line {line}: {message}")),
            "{stderr}"
        );
        assert_eq!(
            stderr.matches(&format!("line {line}")).count(),
            1,
            "{stderr}"
        );
    }
}
