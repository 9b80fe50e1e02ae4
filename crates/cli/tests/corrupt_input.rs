//! A corrupt trace file on `--source`: streamed and materialized runs
//! fail with the same clean error naming the bad line, never a panic.
//! An SWF trace out of submit order stops a streamed run at the line
//! that breaks the order; `--materialize` reads it whole.

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

#[test]
fn unsorted_swf_fails_streamed_and_runs_materialized() {
    let path = fixture("unsorted.swf");
    let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
        .args(["simulate", "--source", &path, "--strategy", "easy"])
        .output()
        .expect("nodeshare runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 4: submit 3282 goes back 226 s beyond the reorder window"),
        "{stderr}"
    );
    assert!(stderr.contains("--materialize"), "{stderr}");

    let csv = std::env::temp_dir().join(format!("nodeshare_unsorted_{}.csv", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
        .args([
            "simulate",
            "--source",
            &path,
            "--materialize",
            "--strategy",
            "easy",
        ])
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("nodeshare runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = std::fs::read_to_string(&csv).expect("--csv written");
    std::fs::remove_file(&csv).ok();
    // A header plus one row per job: all six records completed.
    assert_eq!(records.lines().count(), 7, "{records}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("jobs 6"));
}

#[test]
fn processor_counts_past_u32_are_rejected_not_wrapped() {
    // Jobs 3 and 5 ask for 2^37 and 2^37 + 32 processors: more nodes
    // than `u32` holds. They saturate and are rejected at submission,
    // streamed or materialized, and the four other jobs run.
    let path = fixture("huge_procs.swf");
    let mut csvs = Vec::new();
    for extra in [None, Some("--materialize")] {
        let csv = std::env::temp_dir().join(format!(
            "nodeshare_huge_procs_{}_{}.csv",
            std::process::id(),
            csvs.len()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
            .args(["simulate", "--source", &path])
            .args(extra)
            .arg("--csv")
            .arg(&csv)
            .output()
            .expect("nodeshare runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("rejected at submission (unsatisfiable): 2 jobs"),
            "{stdout}"
        );
        assert!(stdout.contains("jobs 4 "), "{stdout}");
        csvs.push(std::fs::read_to_string(&csv).expect("--csv written"));
        std::fs::remove_file(&csv).ok();
    }
    assert_eq!(csvs[0], csvs[1], "streamed and materialized runs differ");
}
