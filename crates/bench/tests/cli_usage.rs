//! Campaign binaries and `perf_baseline` reject a bad invocation with
//! usage on stderr and exit code 2 (not a panic's 101) before simulating
//! anything, and `--help` prints usage on stdout and succeeds.

use std::path::Path;
use std::process::{Command, Output};

fn exp_f3(args: &[&str], jobs_env: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_f3_load_sweep"));
    cmd.args(args).env_remove("NODESHARE_JOBS");
    if let Some(v) = jobs_env {
        cmd.env("NODESHARE_JOBS", v);
    }
    cmd.output().expect("exp_f3_load_sweep runs")
}

#[test]
fn usage_errors_exit_2_with_usage_on_stderr() {
    for (args, env) in [
        (&["--bogus"][..], None),
        (&["--jobs", "x"][..], None),
        (&["--jobs"][..], None),
        (&[][..], Some("x")),
    ] {
        let out = exp_f3(args, env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{args:?} {env:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} {env:?} printed to stdout");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = exp_f3(&[flag], None);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage: "));
    }
}

fn perf_baseline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf_baseline"))
        .args(args)
        .output()
        .expect("perf_baseline runs")
}

/// A fresh copy of the committed baseline in its own scratch directory.
fn baseline_copy(name: &str) -> (std::path::PathBuf, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let committed = include_str!("../../../BENCH_sched.json");
    let path = dir.join("BENCH_sched.json");
    std::fs::write(&path, committed).expect("write baseline copy");
    (path, committed.to_string())
}

#[test]
fn perf_baseline_refuses_to_overwrite_its_check_baseline() {
    let (path, committed) = baseline_copy("perf_check_is_out");
    let file = path.to_str().expect("utf-8 path");
    // The same file spelled two ways still counts as the same file.
    let dotted = path.parent().unwrap().join(".").join("BENCH_sched.json");
    let dotted = dotted.to_str().expect("utf-8 path");
    for out_path in [file, dotted] {
        let out = perf_baseline(&[
            "--quick",
            "--only",
            "conservative",
            "--samples",
            "1",
            "--check",
            file,
            "--out",
            out_path,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--out {out_path}: {stderr}");
        assert!(stderr.contains("usage: "), "{stderr}");
        assert!(out.stdout.is_empty(), "timed something before refusing");
        let after = std::fs::read_to_string(&path).expect("baseline still there");
        assert!(
            after == committed,
            "--out {out_path} overwrote the baseline"
        );
    }
}

#[test]
fn perf_baseline_rejects_a_malformed_baseline_before_timing() {
    let (path, _) = baseline_copy("perf_check_malformed");
    std::fs::write(&path, r#"{"entries": [{"strategy": "easy-backfill"}]}"#).unwrap();
    let fresh = path.with_file_name("fresh.json");
    let _ = std::fs::remove_file(&fresh);
    let out = perf_baseline(&[
        "--quick",
        "--only",
        "conservative",
        "--samples",
        "1",
        "--check",
        path.to_str().unwrap(),
        "--out",
        fresh.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("entry 0: missing or mistyped"), "{stderr}");
    assert!(out.stdout.is_empty(), "timed something before refusing");
    assert!(!fresh.exists(), "wrote --out for a run it refused");
}

#[test]
fn perf_baseline_rejects_an_unknown_only_label_before_timing() {
    let (path, _) = baseline_copy("perf_check_only_typo");
    let fresh = path.with_file_name("fresh.json");
    let _ = std::fs::remove_file(&fresh);
    let out = perf_baseline(&[
        "--quick",
        "--only",
        "nosuch",
        "--check",
        path.to_str().unwrap(),
        "--out",
        fresh.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: "), "{stderr}");
    for label in ["easy-backfill", "co-backfill", "conservative", "adaptive"] {
        assert!(
            stderr.contains(label),
            "known label {label} not listed: {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "timed something before refusing");
    assert!(!fresh.exists(), "wrote --out for a run it refused");
}
