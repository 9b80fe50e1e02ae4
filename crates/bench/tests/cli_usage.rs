//! Campaign binaries reject a bad invocation with usage on stderr and
//! exit code 2 (not a panic's 101) before simulating anything, and
//! `--help` prints usage on stdout and succeeds.

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
