//! Bench-regression gate: fails when a tracked benchmark regresses
//! more than the allowed fraction against the committed baseline.
//!
//! This compares the *committed* `BENCH_engine.json` artifact (the
//! workflow regenerates nothing): it catches a regressed artifact
//! being committed, and keeps the baseline honest whenever the bench
//! is re-run — regenerate the artifact alongside perf-relevant
//! changes (`cargo bench -p fcdram-bench --bench ablation_engine`) so
//! the gate sees fresh numbers.
//!
//! Compiled standalone by `ci.sh` (`rustc -O tools/bench_check.rs`);
//! deliberately dependency-free, with a minimal scanner for the flat
//! `[{"id": ..., "mean_ns": ...}, ...]` shape `BENCH_engine.json` and
//! `BENCH_fleet.json` use.
//!
//! ```text
//! bench_check [--current BENCH_engine.json]
//!             [--baseline tools/bench_baseline.json]
//!             [--id logic_model_columnar_cached/1024cols]
//!             [--check FILE:ID] [--check-exact FILE:ID]
//!             [--check-ratio FILE:NUM,DEN,LIMIT]
//!             [--max-regress 0.20]
//! ```
//!
//! `--id` checks an id inside the `--current` artifact; `--check`
//! pairs an id with its own artifact file, so one invocation gates
//! ids across several summaries (`BENCH_engine.json`,
//! `BENCH_synth.json`, `BENCH_sched.json`, ...). `--check-ratio`
//! gates the quotient of two wall-clock ids measured in the *same*
//! artifact (`NUM ÷ DEN ≤ LIMIT`) — no baseline involved, so the
//! gate is immune to the CI container's absolute speed and pins a
//! relative property instead (how far the simulated device backends
//! may drift from the host golden model). `--check-exact` is
//! the variant for *deterministic count* entries: any drift from the
//! baseline — up or down — fails, since shrinkage of a scheduled-op
//! or mapped-op count is a pipeline-shape change too, not an
//! improvement to wave through. With no flag, the default set covers
//! the engine hot path (tolerance), the three deterministic
//! `synth_mapped_ops/*` counts from `ablation_synth` (exact), the
//! deterministic `sched_jobs/mix` + `sched_native_ops/mix` +
//! `sched_fused_jobs/mix` batch-shape counts from `ablation_sched`
//! (exact), and the
//! execution-backend parity counts from `ablation_exec` (exact):
//! `exec_native_ops/vm` and `exec_native_ops/bender` must both equal
//! the committed baseline — so the VM and command-schedule backends
//! drifting apart in either direction fails the gate — plus the
//! cycle-accurate `exec_schedule_ns/mix` latency-model pin, the
//! prepared-plan shape pins `exec_prepared_templates/mix`,
//! `exec_arena_slots/mix`, and `exec_fused_visits/mix`, the fused
//! device-over-host ratios
//! `exec_vm_dram/mix ÷ exec_host/mix ≤ 39.6` and
//! `exec_bender/mix ÷ exec_host/mix ≤ 41.5` (equal lane
//! counts, the host being the word-wide golden model), the
//! five deterministic `faults_*/demo` degradation-ledger counts from
//! `ablation_faults` (exact): mitigations, dropouts, re-placed jobs,
//! diversions, and disturbance activations of the demo fault plan,
//! the seven deterministic `daemon_*` admission-ledger counts
//! from `ablation_daemon` (exact): per-tier admitted jobs, bronze
//! shed and narrowed counts, total rejections, and the micro-batch
//! count of the demo serving session, and the three deterministic
//! `obs_*/demo` artifact-shape counts from `ablation_obs` (exact):
//! span events, instant events, and metrics-exposition lines of the
//! traced demo session (determinism invariant #4 —
//! `docs/OBSERVABILITY.md`).
//!
//! Every requested check is evaluated — missing ids, unreadable
//! artifacts, and regressions are all collected and listed together
//! in the final summary instead of stopping at the first problem.
//!
//! Exit status: 0 when every checked id is within tolerance, 1 when
//! any check failed, 2 on usage errors or an unreadable baseline.

use std::process::ExitCode;

/// One `"id" → mean_ns` measurement extracted from a summary file.
#[derive(Debug)]
struct Entry {
    id: String,
    mean_ns: f64,
}

/// Extracts `(id, mean_ns)` pairs from the flat JSON array the bench
/// summaries use. Tolerant of pretty-printing and key order within an
/// object; not a general JSON parser.
fn parse_entries(src: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    // Objects are `{ ... }` blocks; split on '}' and scan each block
    // for the two keys.
    for block in src.split('}') {
        let id = extract_string(block, "\"id\"");
        let mean = extract_number(block, "\"mean_ns\"");
        if let (Some(id), Some(mean_ns)) = (id, mean) {
            out.push(Entry { id, mean_ns });
        }
    }
    out
}

fn extract_string(block: &str, key: &str) -> Option<String> {
    let at = block.find(key)? + key.len();
    let rest = &block[at..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn extract_number(block: &str, key: &str) -> Option<f64> {
    let at = block.find(key)? + key.len();
    let rest = &block[at..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load(path: &str) -> Result<Vec<Entry>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = parse_entries(&src);
    if entries.is_empty() {
        return Err(format!("{path}: no benchmark entries found"));
    }
    Ok(entries)
}

fn mean_of(entries: &[Entry], id: &str) -> Option<f64> {
    entries.iter().find(|e| e.id == id).map(|e| e.mean_ns)
}

fn main() -> ExitCode {
    let mut current = "BENCH_engine.json".to_string();
    let mut baseline = "tools/bench_baseline.json".to_string();
    // (artifact file, id, exact) triples to gate. `exact` entries are
    // deterministic counts: *any* drift from the baseline — up or
    // down — is a failure (shrinkage means the pipeline's shape
    // changed and the baseline must be bumped deliberately).
    let mut checks: Vec<(Option<String>, String, bool)> = Vec::new();
    // (artifact file, numerator id, denominator id, limit) — both ids
    // are read from the same current artifact; the baseline is not
    // consulted.
    let mut ratios: Vec<(String, String, String, f64)> = Vec::new();
    let mut max_regress = 0.20f64;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--current" => current = val("--current")?,
                "--baseline" => baseline = val("--baseline")?,
                "--id" => checks.push((None, val("--id")?, false)),
                "--check" | "--check-exact" => {
                    let exact = a == "--check-exact";
                    let pair = val(&a)?;
                    let (file, id) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("{a} wants FILE:ID, got '{pair}'"))?;
                    checks.push((Some(file.to_string()), id.to_string(), exact));
                }
                "--check-ratio" => {
                    let spec = val(&a)?;
                    let bad = || format!("--check-ratio wants FILE:NUM,DEN,LIMIT, got '{spec}'");
                    let (file, rest) = spec.split_once(':').ok_or_else(bad)?;
                    let mut parts = rest.split(',');
                    let (num, den, limit) = (
                        parts.next().ok_or_else(bad)?,
                        parts.next().ok_or_else(bad)?,
                        parts.next().ok_or_else(bad)?,
                    );
                    if parts.next().is_some() {
                        return Err(bad());
                    }
                    let limit: f64 = limit.parse().map_err(|e| format!("bad ratio limit: {e}"))?;
                    ratios.push((file.to_string(), num.to_string(), den.to_string(), limit));
                }
                "--max-regress" => {
                    max_regress = val("--max-regress")?
                        .parse()
                        .map_err(|e| format!("bad --max-regress: {e}"))?
                }
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    }
    if checks.is_empty() && ratios.is_empty() {
        // The model-evaluation hot path the columnar rewrite bought
        // (wall-clock: tolerance-gated), plus the deterministic
        // mapped-op counts of the synthesis pipeline and the
        // deterministic scheduled-batch shape (exact-gated: an
        // optimizer, planner, or admission regression changes these
        // in either direction).
        checks.push((None, "logic_model_columnar_cached/1024cols".to_string(), false));
        for size in ["small", "medium", "large"] {
            checks.push((
                Some("BENCH_synth.json".to_string()),
                format!("synth_mapped_ops/{size}"),
                true,
            ));
        }
        for id in [
            "sched_jobs/mix",
            "sched_native_ops/mix",
            "sched_fused_jobs/mix",
        ] {
            checks.push((Some("BENCH_sched.json".to_string()), id.to_string(), true));
        }
        // Backend parity: both counts are exact-gated against the same
        // baseline value, so the vm and bender backends cannot drift
        // apart in either direction without failing the gate.
        for id in [
            "exec_native_ops/vm",
            "exec_native_ops/bender",
            "exec_schedule_ns/mix",
            "exec_prepared_templates/mix",
            "exec_arena_slots/mix",
            "exec_fused_visits/mix",
        ] {
            checks.push((Some("BENCH_exec.json".to_string()), id.to_string(), true));
        }
        // Device-model cost over the word-wide host golden model:
        // the simulated device backends may cost at most this much
        // over `exec_host/mix` *measured in the same bench run*, so
        // the gate holds on any machine speed. All three backends run
        // the mix at the same lane count with operands built outside
        // the timed loop; each limit is the median ratio of six
        // `ablation_exec` runs (33.0 and 34.6; single runs spread
        // ±15%) plus the 20% headroom the timing gates use.
        for (num, limit) in [("exec_vm_dram/mix", 39.6), ("exec_bender/mix", 41.5)] {
            ratios.push((
                "BENCH_exec.json".to_string(),
                num.to_string(),
                "exec_host/mix".to_string(),
                limit,
            ));
        }
        // Degradation-ledger counts of the demo fault plan from
        // `ablation_faults`: the planner derives them from (fleet,
        // batch, policy) alone, so any drift — one mitigation or
        // dropout more *or* less — is a fault-model shape change.
        for id in [
            "faults_mitigations/demo",
            "faults_dropouts/demo",
            "faults_replaced/demo",
            "faults_diverted/demo",
            "faults_disturbance/demo",
        ] {
            checks.push((Some("BENCH_faults.json".to_string()), id.to_string(), true));
        }
        // Admission-ledger counts of the demo serving session from
        // `ablation_daemon`: the daemon report is a pure function of
        // (session log, fleet, cost model), so any drift — one job
        // admitted, shed, rejected, or narrowed more *or* less — is an
        // admission- or placement-shape change.
        for id in [
            "daemon_admitted/gold",
            "daemon_admitted/silver",
            "daemon_admitted/bronze",
            "daemon_shed/bronze",
            "daemon_narrowed/bronze",
            "daemon_rejected/total",
            "daemon_batches/total",
        ] {
            checks.push((Some("BENCH_daemon.json".to_string()), id.to_string(), true));
        }
        // Artifact-shape counts of the traced demo session from
        // `ablation_obs`: determinism invariant #4 makes the trace
        // and metrics pure functions of (session log, fleet, cost
        // model), so one span, instant, or exposition line more *or*
        // less is an instrumentation-shape change.
        for id in [
            "obs_span_events/demo",
            "obs_instant_events/demo",
            "obs_metric_lines/demo",
        ] {
            checks.push((Some("BENCH_obs.json".to_string()), id.to_string(), true));
        }
    }

    let base = match load(&baseline) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };
    // Artifact files, loaded once each in check order. A file that
    // fails to load marks every check against it as one failure each
    // (carrying the load error), so the final count equals the number
    // of failed checks — every requested id still gets evaluated.
    let mut artifacts: Vec<(String, Result<Vec<Entry>, String>)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (file, id, exact) in &checks {
        let file = file.as_deref().unwrap_or(&current).to_string();
        if !artifacts.iter().any(|(f, _)| *f == file) {
            let loaded = load(&file);
            if let Err(e) = &loaded {
                eprintln!("bench_check: {e}");
            }
            artifacts.push((file.clone(), loaded));
        }
        let cur = match &artifacts
            .iter()
            .find(|(f, _)| *f == file)
            .expect("loaded above")
            .1
        {
            Ok(entries) => entries,
            Err(e) => {
                failures.push(format!("{id}: {e}"));
                continue;
            }
        };
        let (Some(now), Some(then)) = (mean_of(cur, id), mean_of(&base, id)) else {
            eprintln!("bench_check: id '{id}' missing from {file} or {baseline}");
            failures.push(format!("{id}: missing from {file} or {baseline}"));
            continue;
        };
        if *exact {
            let verdict = if (now - then).abs() > 1e-9 {
                failures.push(format!(
                    "{id}: {now} != baseline {then} (deterministic entry; any drift \
                     means the pipeline shape changed — bump the baseline deliberately)"
                ));
                "CHANGED"
            } else {
                "ok"
            };
            println!("bench_check: {id}: {now} vs baseline {then} (exact) {verdict}");
            continue;
        }
        let ratio = now / then;
        let verdict = if ratio > 1.0 + max_regress {
            failures.push(format!(
                "{id}: {now:.1} vs baseline {then:.1} ({ratio:.3}x > {:.3}x limit)",
                1.0 + max_regress
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_check: {id}: {now:.1} ns vs baseline {then:.1} ns ({ratio:.3}x, limit {:.3}x) {verdict}",
            1.0 + max_regress
        );
    }
    for (file, num, den, limit) in &ratios {
        if !artifacts.iter().any(|(f, _)| f == file) {
            let loaded = load(file);
            if let Err(e) = &loaded {
                eprintln!("bench_check: {e}");
            }
            artifacts.push((file.clone(), loaded));
        }
        let cur = match &artifacts
            .iter()
            .find(|(f, _)| f == file)
            .expect("loaded above")
            .1
        {
            Ok(entries) => entries,
            Err(e) => {
                failures.push(format!("{num}/{den}: {e}"));
                continue;
            }
        };
        let (Some(n), Some(d)) = (mean_of(cur, num), mean_of(cur, den)) else {
            eprintln!("bench_check: ratio ids '{num}' or '{den}' missing from {file}");
            failures.push(format!("{num}÷{den}: id missing from {file}"));
            continue;
        };
        let ratio = n / d;
        let verdict = if !(ratio <= *limit) {
            failures.push(format!(
                "{num} ÷ {den}: {n:.1} / {d:.1} = {ratio:.3}x > {limit:.3}x limit"
            ));
            "EXCEEDED"
        } else {
            "ok"
        };
        println!(
            "bench_check: {num} ÷ {den}: {n:.1} / {d:.1} = {ratio:.3}x (limit {limit:.3}x) {verdict}"
        );
    }
    let n_checks = checks.len() + ratios.len();
    if !failures.is_empty() {
        eprintln!(
            "bench_check: FAILED — {} problem(s) across {} check(s):",
            failures.len(),
            n_checks
        );
        for f in &failures {
            eprintln!("bench_check:   - {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("bench_check: all {n_checks} check(s) within tolerance");
    ExitCode::SUCCESS
}
