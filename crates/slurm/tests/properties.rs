//! Property tests for the SLURM text surfaces: walltime round-trips,
//! `#SBATCH` header parsing edge cases (zero/huge walltimes, malformed
//! lines, memory suffixes), and fuzzing: no input, arbitrary bytes or
//! SLURM-shaped junk, panics `SlurmConf::parse`, `JobScript::parse` or
//! `parse_walltime` — each returns its typed error instead.

use nodeshare_slurm::{
    format_walltime, parse_walltime, ConfError, JobScript, ScriptError, SlurmConf,
};
use proptest::prelude::*;

/// Line and option openers of `slurm.conf` and `#SBATCH` text.
const KEYS: [&str; 14] = [
    "NodeName=",
    "PartitionName=",
    " Sockets=",
    " ThreadsPerCore=",
    " RealMemory=",
    " MaxTime=",
    " Default=",
    "#SBATCH --nodes=",
    "#SBATCH --time=",
    "#SBATCH --mem=",
    "#SBATCH --job-name ",
    "#SBATCH ",
    "# ",
    "",
];

/// Value fragments: range and time punctuation, numbers at the edges of
/// the integer types, float spellings `str::parse` accepts, and non-ASCII.
const VALUES: [&str; 24] = [
    "n[",
    "[",
    "]",
    "-",
    ":",
    "=",
    " ",
    "\t",
    "\r",
    "0",
    "7",
    "12",
    "4294967295",
    "18446744073709551616",
    "G",
    "K",
    "T",
    "inf",
    "NaN",
    "1e308",
    "é",
    "UNLIMITED",
    "YES",
    "--",
];

/// Text in the parsers' own vocabulary: lines of one to three
/// `key value` words, so random input gets past the first token and
/// reaches the value parsers.
fn slurm_text() -> impl Strategy<Value = String> {
    let value = prop_oneof![
        (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
        "[ -~]{0,3}",
    ];
    let word = ((0..KEYS.len()), prop::collection::vec(value, 0..6))
        .prop_map(|(k, values)| format!("{}{}", KEYS[k], values.concat()));
    let line = prop::collection::vec(word, 1..4).prop_map(|words| words.concat());
    prop::collection::vec(line, 0..12).prop_map(|lines| lines.join("\n"))
}

/// Feeds `text` to every SLURM text parser; any panic fails the property.
fn parse_all(text: &str) {
    let _ = SlurmConf::parse(text);
    let _ = JobScript::parse(text);
    let _ = parse_walltime(text);
    for line in text.lines() {
        let _ = parse_walltime(line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse ∘ format` is the identity on whole seconds, across the
    /// minute / hour / multi-day rendering regimes.
    #[test]
    fn walltime_roundtrips_whole_seconds(total in 0u64..400_000_000) {
        let seconds = total as f64;
        let text = format_walltime(seconds);
        prop_assert_eq!(parse_walltime(&text).unwrap(), seconds);
    }

    /// `format ∘ parse` is canonical: re-formatting a parsed canonical
    /// string reproduces it exactly.
    #[test]
    fn walltime_formatting_is_canonical(total in 0u64..400_000_000) {
        let text = format_walltime(total as f64);
        let reparsed = parse_walltime(&text).unwrap();
        prop_assert_eq!(format_walltime(reparsed), text);
    }

    /// Every accepted component form agrees with the arithmetic meaning.
    #[test]
    fn walltime_component_forms_agree(
        d in 0u64..5_000,
        h in 0u64..24,
        m in 0u64..60,
        sec in 0u64..60,
    ) {
        let expect = (((d * 24 + h) * 60 + m) * 60 + sec) as f64;
        prop_assert_eq!(parse_walltime(&format!("{d}-{h}:{m}:{sec}")).unwrap(), expect);
        prop_assert_eq!(
            parse_walltime(&format!("{d}-{h}:{m}")).unwrap(),
            expect - sec as f64
        );
        if d == 0 {
            prop_assert_eq!(parse_walltime(&format!("{h}:{m}:{sec}")).unwrap(), expect);
        }
        // Bare minutes form.
        prop_assert_eq!(parse_walltime(&format!("{m}")).unwrap(), (m * 60) as f64);
    }

    /// A well-formed header always parses and every field lands intact,
    /// whatever the option order or `=`/space separator.
    #[test]
    fn well_formed_scripts_parse(
        nodes in 1u32..5_000,
        minutes in 0u64..1_000_000,
        mem_gib in 1u64..1_024,
        share in prop::bool::weighted(0.5),
        spaced in prop::bool::weighted(0.5),
    ) {
        let sep = if spaced { " " } else { "=" };
        let mut text = format!(
            "#!/bin/bash\n#SBATCH --nodes{sep}{nodes}\n#SBATCH --time{sep}{minutes}\n\
             #SBATCH --mem{sep}{mem_gib}G\n"
        );
        if share {
            text.push_str("#SBATCH --oversubscribe\n");
        }
        text.push_str("srun ./app\n");

        let s = JobScript::parse(&text).unwrap();
        prop_assert_eq!(s.nodes, nodes);
        prop_assert_eq!(s.walltime, Some((minutes * 60) as f64));
        prop_assert_eq!(s.mem_per_node_mib, Some(mem_gib * 1024));
        prop_assert_eq!(s.oversubscribe, share);
        prop_assert_eq!(s.command.as_deref(), Some("srun ./app"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily decoded, as a file read would be) never
    /// panic a parser.
    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        parse_all(&String::from_utf8_lossy(&bytes));
    }

    /// Neither does junk assembled from the parsers' own vocabulary.
    #[test]
    fn slurm_shaped_junk_never_panics_the_parsers(text in slurm_text()) {
        parse_all(&text);
    }
}

#[test]
fn malformed_node_ranges_are_typed_errors() {
    for name in ["n]0-3[", "n][", "n[0-4294967295]", "n[4-2]", "n[x-2]"] {
        let err = SlurmConf::parse(&format!("NodeName={name}\n")).unwrap_err();
        assert!(
            matches!(err, ConfError::BadValue { line: 1, .. }),
            "{name}: {err}"
        );
    }
    // The widest range that still counts in a u32 parses.
    let conf = SlurmConf::parse("NodeName=n[1-4294967295]\n").unwrap();
    assert_eq!(conf.cluster.node_count, u32::MAX);
}

#[test]
fn out_of_range_node_widths_are_typed_errors() {
    // One past each field's type: a typed error naming the key, never a
    // wrapped width (257 sockets read as 1).
    for (key, value) in [
        ("Sockets", "257"),
        ("CoresPerSocket", "65537"),
        ("ThreadsPerCore", "258"),
    ] {
        let err = SlurmConf::parse(&format!("NodeName=n[0-3] {key}={value}\n")).unwrap_err();
        match &err {
            ConfError::BadValue {
                line: 1, key: k, ..
            } => assert_eq!(k, key, "{err}"),
            _ => panic!("{key}={value}: {err}"),
        }
    }
    // The widest values each type holds still parse.
    let conf =
        SlurmConf::parse("NodeName=n[0-3] Sockets=255 CoresPerSocket=65535 ThreadsPerCore=255\n")
            .unwrap();
    let node = conf.cluster.node;
    assert_eq!(
        (node.sockets, node.cores_per_socket, node.smt),
        (255, 65535, 255)
    );
}

#[test]
fn huge_walltimes_fail_instead_of_overflowing() {
    // u64::MAX parses as a number but not as seconds: each of these used
    // to overflow the `((d*24+h)*60+m)*60+sec` fold in debug builds.
    let max = u64::MAX.to_string();
    for text in [
        max.clone(),
        format!("{max}:00"),
        format!("00:{max}:00"),
        format!("{max}-00"),
        format!("{max}-23:59:59"),
        format!("1-{max}"),
    ] {
        assert!(parse_walltime(&text).is_err(), "{text:?} must not overflow");
    }
    // ...while the largest representable day count still parses.
    assert!(parse_walltime("213503982334601-0").is_ok());
}

#[test]
fn zero_walltimes_are_legal_everywhere() {
    assert_eq!(parse_walltime("0").unwrap(), 0.0);
    assert_eq!(parse_walltime("0:00").unwrap(), 0.0);
    assert_eq!(parse_walltime("0-0:0:0").unwrap(), 0.0);
    let s = JobScript::parse("#SBATCH --time=0\nsrun ./app\n").unwrap();
    assert_eq!(s.walltime, Some(0.0));
}

#[test]
fn malformed_script_lines_error_with_context() {
    // Missing value.
    let err = JobScript::parse("#SBATCH --time=\n").unwrap_err();
    assert!(matches!(err, ScriptError::BadValue { .. }), "{err}");
    // Overflowing time propagates as a script error, not a panic.
    let err = JobScript::parse(&format!("#SBATCH --time={}-0\n", u64::MAX)).unwrap_err();
    assert!(matches!(err, ScriptError::BadValue { .. }), "{err}");
    // A directive without `--` is rejected outright.
    let err = JobScript::parse("#SBATCH time=10\n").unwrap_err();
    assert!(matches!(err, ScriptError::BadDirective(_)), "{err}");
    // Negative node counts never wrap into u32.
    let err = JobScript::parse("#SBATCH --nodes=-4\n").unwrap_err();
    assert!(matches!(err, ScriptError::BadValue { .. }), "{err}");
}
