//! `--duration-match θ` outside (0, 1] is a usage error with exit
//! status 1, not a panic in the pairing constructor (exit 101) and not a
//! silent switch-off of matching.

use std::process::Command;

fn simulate(theta: &str) -> Result<String, String> {
    nodeshare_cli::run_cli([
        "simulate",
        "--jobs",
        "20",
        "--nodes",
        "16",
        "--strategy",
        "co-backfill",
        "--duration-match",
        theta,
    ])
    .map_err(|e| e.to_string())
}

#[test]
fn theta_outside_the_unit_interval_is_rejected() {
    for theta in ["1.5", "0", "-0.5", "NaN", "inf"] {
        let err = simulate(theta).expect_err(theta);
        assert!(err.contains("--duration-match must be in (0, 1]"), "{err}");
    }
    for theta in ["0.5", "1"] {
        simulate(theta).unwrap_or_else(|e| panic!("{theta}: {e}"));
    }
}

#[test]
fn theta_above_one_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_nodeshare"))
        .args([
            "simulate",
            "--strategy",
            "co-backfill",
            "--duration-match",
            "1.5",
        ])
        .output()
        .expect("nodeshare runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--duration-match must be in (0, 1]"),
        "{stderr}"
    );
}
