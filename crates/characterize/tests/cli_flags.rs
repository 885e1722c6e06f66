//! CLI flag hygiene: a flag the binary no longer takes is refused
//! with a diagnostic naming it, never silently ignored.

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
/// `daemon` refuse zero lanes.
#[test]
fn zero_sizes_are_usage_errors() {
    for args in [
        vec!["serve", "--lanes", "0"],
        vec!["daemon", "--lanes", "0"],
        vec!["daemon", "--max-batch", "0"],
        vec!["daemon", "--ticks", "0"],
    ] {
        let (ok, stderr) = run(&args);
        assert!(!ok, "{args:?} exited 0");
        assert!(
            stderr.contains("must be at least 1") && stderr.contains("usage"),
            "{args:?}: no usage diagnostic in {stderr:?}"
        );
    }
}
