//! `nodeshare --help` and `-h` print the usage text and succeed, like
//! `nodeshare help`.

use std::process::Command;

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
