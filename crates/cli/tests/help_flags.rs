//! `nodeshare --help` and `-h` print the usage text and succeed, like
//! `nodeshare help`; `nodeshare CMD --help` and `CMD -h` print CMD's
//! usage and succeed too, even when the reader of stdout is gone.

use std::process::{Command, Stdio};

#[test]
fn help_flags_print_usage_and_exit_0() {
    for flag in ["help", "--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
            .arg(flag)
            .output()
            .expect("nodeshare runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{flag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("USAGE"), "{flag}: {stdout}");
    }
}

#[test]
fn subcommand_help_prints_its_usage_and_exits_0() {
    for (command, section) in [
        ("simulate", "SIMULATE OPTIONS"),
        ("metrics", "TELEMETRY OPTIONS"),
        ("audit", "AUDIT OPTIONS"),
        ("report", "REPORT OPTIONS"),
        ("workload", "WORKLOAD OPTIONS"),
    ] {
        for flag in ["--help", "-h"] {
            let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
                .args([command, flag])
                .output()
                .expect("nodeshare runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{command} {flag}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.starts_with(&format!("nodeshare {command} ")),
                "{command} {flag}: {stdout}"
            );
            assert!(stdout.contains(section), "{command} {flag}: {stdout}");
        }
    }
}

#[test]
fn other_usage_errors_still_exit_1() {
    for argv in [&["simulate", "--bogus"][..], &["frobnicate", "--help"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
            .args(argv)
            .output()
            .expect("nodeshare runs");
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
    }
}

#[test]
fn closed_stdout_exits_0_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
        .args(["simulate", "-h"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("nodeshare runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
