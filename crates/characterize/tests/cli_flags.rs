//! CLI flag hygiene: a flag the binary no longer takes is refused
//! with a diagnostic naming it, never silently ignored, and a hostile
//! input file exits with a diagnostic, never an abort.

use std::process::Command;

/// Runs the `characterize` binary with `args`, returning whether it
/// succeeded and its stderr.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_characterize"))
        .args(args)
        .output()
        .expect("characterize binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Execution is always fused; the on/off switch older builds took is
/// gone and must be rejected, in every mode that used to accept it.
#[test]
fn removed_fusion_switch_is_an_unknown_option() {
    let flag = format!("--{}", "fuse");
    for (mode, args) in [
        ("serve", vec!["serve", &flag, "off"]),
        ("daemon", vec!["daemon", &flag, "off"]),
        ("synth", vec!["synth", "--expr", "a & b", &flag, "on"]),
    ] {
        let (ok, stderr) = run(&args);
        assert!(!ok, "{mode} accepted {flag}");
        assert!(
            stderr.contains(&format!("unknown {mode} option '{flag}'")),
            "{mode}: no unknown-flag diagnostic in {stderr:?}"
        );
    }
}

/// A zero-sized resource is a usage error, not an empty session: the
/// daemon must refuse a batch budget of zero just as `serve` and
/// `daemon` refuse zero lanes. Every other degenerate knob is refused
/// the same way, by the one range-checked parse all subcommands share:
/// a fan-in outside 2..=16, a success threshold outside [0, 1] and a
/// non-positive tick period.
#[test]
fn zero_sizes_are_usage_errors() {
    for args in [
        vec!["serve", "--lanes", "0"],
        vec!["serve", "--jobs", "0"],
        vec!["serve", "--chips", "0"],
        vec!["fleet", "--chips", "0"],
        vec!["daemon", "--lanes", "0"],
        vec!["daemon", "--chips", "0"],
        vec!["daemon", "--max-batch", "0"],
        vec!["daemon", "--ticks", "0"],
        vec!["synth", "--expr", "a&b", "--lanes", "0", "--execute"],
        vec![
            "synth",
            "--expr",
            "a&b",
            "--lanes",
            "0",
            "--execute",
            "--backend",
            "bender",
        ],
    ] {
        let (ok, stderr) = run(&args);
        assert!(!ok, "{args:?} exited 0");
        assert!(
            stderr.contains("must be at least 1") && stderr.contains("usage"),
            "{args:?}: no usage diagnostic in {stderr:?}"
        );
    }
    let mut ranged: Vec<Vec<&str>> = Vec::new();
    for fan_in in ["0", "1", "99"] {
        ranged.push(vec!["serve", "--fan-in", fan_in]);
        ranged.push(vec!["daemon", "--fan-in", fan_in]);
        ranged.push(vec!["synth", "--expr", "a&b", "--fan-in", fan_in]);
    }
    for min_success in ["nan", "2", "-1"] {
        ranged.push(vec!["serve", "--min-success", min_success]);
    }
    ranged.push(vec!["daemon", "--demo", "--tick-us", "0"]);
    for args in ranged {
        let out = Command::new(env!("CARGO_BIN_EXE_characterize"))
            .args(&args)
            .output()
            .expect("characterize binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let flag = args.iter().rev().nth(1).unwrap();
        assert!(
            stderr.contains(&format!("{flag} must be")) && stderr.contains("usage"),
            "{args:?}: no usage diagnostic in {stderr:?}"
        );
    }
}

/// Oversized size flags are usage errors checked against the memory
/// budget before anything is allocated, never an out-of-memory abort.
#[test]
fn oversized_sizes_are_usage_errors() {
    for args in [
        vec![
            "serve",
            "--jobs",
            "1",
            "--lanes",
            "64",
            "--chips",
            "100000000",
        ],
        vec!["serve", "--jobs", "1", "--lanes", "100000000000"],
        vec!["serve", "--lanes", "18446744073709551615"],
        vec!["serve", "--jobs", "100000000000", "--lanes", "64"],
        vec!["fleet", "--chips", "100000000"],
        vec!["daemon", "--chips", "100000000"],
        vec![
            "synth",
            "--expr",
            "a&b",
            "--lanes",
            "100000000000",
            "--execute",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_characterize"))
            .args(&args)
            .output()
            .expect("characterize binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("memory budget") && stderr.contains("usage"),
            "{args:?}: no usage diagnostic in {stderr:?}"
        );
    }
}

/// Hostile nesting in an input file is a typed error with a non-zero
/// exit, never a stack overflow: a 200k-deep JSON session log, and
/// 100k-deep parentheses or negations in an expression file. A
/// 100k-long flat `&`, `|` or `^` chain never aborts either.
#[test]
fn deep_nesting_exits_cleanly() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("scratch input written");
        path.to_string_lossy().into_owned()
    };
    let log = write(
        "deep_session.json",
        format!("{}{}", "[".repeat(200_000), "]".repeat(200_000)),
    );
    let parens = write(
        "deep_parens.txt",
        format!("{}a{}\n", "(".repeat(100_000), ")".repeat(100_000)),
    );
    let nots = write("deep_nots.txt", format!("{}a\n", "!".repeat(100_000)));
    for args in [
        vec!["daemon", "--replay", &log],
        vec!["serve", "--exprs", &parens],
        vec!["serve", "--exprs", &nots],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_characterize"))
            .args(&args)
            .output()
            .expect("characterize binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A signal (abort on stack overflow) leaves no exit code.
        assert_eq!(
            out.status.code(),
            Some(1),
            "{:?}: {:?}",
            &args[..2],
            stderr.lines().last()
        );
        assert!(
            stderr.contains("nested deeper") || stderr.contains("nesting deeper"),
            "{:?}: no depth diagnostic",
            &args[..2]
        );
    }
    // Long flat chains are one n-ary node each, not 100k-deep trees:
    // they run (or fail with a diagnostic), and never abort.
    for op in ['&', '|', '^'] {
        let chain = write(
            "flat_chain.txt",
            format!("a{}\n", format!("{op}a").repeat(100_000)),
        );
        let out = Command::new(env!("CARGO_BIN_EXE_characterize"))
            .args(["serve", "--exprs", &chain])
            .output()
            .expect("characterize binary runs");
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "100k-long '{op}' chain: {:?}: {:?}",
            out.status,
            String::from_utf8_lossy(&out.stderr).lines().last()
        );
    }
}
