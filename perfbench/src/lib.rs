//! The repository benchmark: four workloads over the FCDRAM stack,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_wide --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines above it
//! describe the run and print every metric by name with its unit.

pub mod batch_wide;
pub mod daemon_mix;
pub mod device_exec;
pub mod harness;
pub mod stats;
pub mod sweep_fleet;
pub mod trace;

use harness::{peak_rss_mb, secs, window, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["daemon_mix", "batch_wide", "device_exec", "sweep_fleet"];

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// For a per-layer metric: the end-to-end metric it should move,
    /// and on which workload.
    pub moves: &'static str,
    /// Whether the value is a deterministic count or simulated
    /// statistic that must repeat exactly for a given seed.
    pub exact: bool,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
        exact,
    }
}

/// End-to-end metrics, reported by every workload on untraced runs.
/// The median call latency (`call_p50_us`) is printed but not reported:
/// where the host alternates between a fast and a slow state, calls fall
/// into two clusters and the median jumps to whichever state held most
/// of a run.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", "lower", "", false),
    m("peak_rss_mb", "MB", "lower", "", false),
    m("throughput_per_s", "1/s", "higher", "", false),
    m("call_p99_us", "us", "lower", "", false),
];

const SERVE: &str = "call_p99_us, throughput_per_s on daemon_mix";
const DECISION: &str = "none: a decision count on daemon_mix that a pure perf change must not move";
const BATCH: &str = "call_p99_us, throughput_per_s on batch_wide";
const PLAN: &str =
    "none: a plan count on batch_wide and daemon_mix that a pure perf change must not move";
const DEVICE_RUN: &str = "throughput_per_s (device_ops_per_s) on device_exec";
const DEVICE_SHAPE: &str = "none: prepared-plan shape on device_exec";
const SIMULATED: &str = "none: a simulated statistic that must not move";
const SWEEP: &str = "throughput_per_s (cells_per_s), call_p99_us on sweep_fleet";

/// Per-layer metrics, reported by every workload on traced runs (zero
/// where the workload does not run the layer).
pub const PER_LAYER: [MetricDef; 38] = [
    m(
        "fcsynth.compile_us",
        "us",
        "lower",
        "setup_s on batch_wide and device_exec",
        false,
    ),
    m("fcserve.ingest_tick_us", "us", "lower", SERVE, false),
    m("fcserve.drain_ms", "ms", "lower", SERVE, false),
    m("fcserve.admitted", "count", "higher", DECISION, true),
    m("fcserve.shed", "count", "lower", DECISION, true),
    m("fcserve.rejected", "count", "lower", DECISION, true),
    m("fcserve.narrowed", "count", "lower", DECISION, true),
    m(
        "fcserve.modeled_p99_us",
        "modeled_us",
        "lower",
        DECISION,
        true,
    ),
    m("fcsched.batches", "count", "lower", DECISION, true),
    m("fcsched.jobs_per_batch", "count", "higher", DECISION, true),
    m("fcsched.push_us", "us", "lower", BATCH, false),
    m("fcsched.plan_us", "us", "lower", BATCH, false),
    m("fcsched.execute_us", "us", "lower", BATCH, false),
    m("fcsched.push_share", "ratio", "lower", BATCH, false),
    m("fcsched.plan_share", "ratio", "lower", BATCH, false),
    m("fcsched.execute_share", "ratio", "lower", BATCH, false),
    m("fcsched.fused_jobs", "count", "higher", PLAN, true),
    m("fcsched.retries", "count", "lower", PLAN, true),
    m("fcsched.remapped", "count", "lower", PLAN, true),
    m("fcsched.failed_jobs", "count", "lower", PLAN, true),
    m("fcexec.native_ops", "count", "lower", PLAN, true),
    m("fcexec.engine_visits", "count", "lower", PLAN, true),
    m(
        "fcexec.prepare_us.vm_dram",
        "us",
        "lower",
        "setup_s on device_exec",
        false,
    ),
    m(
        "fcexec.prepare_us.bender",
        "us",
        "lower",
        "setup_s on device_exec",
        false,
    ),
    m("fcexec.run_us.vm_dram", "us", "lower", DEVICE_RUN, false),
    m("fcexec.run_us.bender", "us", "lower", DEVICE_RUN, false),
    m("fcexec.templates", "count", "lower", DEVICE_SHAPE, true),
    m("fcexec.arena_slots", "count", "lower", DEVICE_SHAPE, true),
    m(
        "dram_core.mismatched_bits.vm_dram",
        "count",
        "lower",
        SIMULATED,
        true,
    ),
    m(
        "dram_core.mismatched_bits.bender",
        "count",
        "lower",
        SIMULATED,
        true,
    ),
    m("characterize.build_chip_ms", "ms", "lower", SWEEP, false),
    m("characterize.chip_sweep_ms", "ms", "lower", SWEEP, false),
    m("characterize.cells", "count", "higher", SIMULATED, true),
    m(
        "characterize.conditions",
        "count",
        "higher",
        SIMULATED,
        true,
    ),
    m("characterize.failures", "count", "lower", SIMULATED, true),
    m(
        "fcdram.not_success_mean",
        "ratio",
        "higher",
        SIMULATED,
        true,
    ),
    m(
        "fcdram.logic_success_mean",
        "ratio",
        "higher",
        SIMULATED,
        true,
    ),
    m(
        "bench.trace_overhead",
        "ratio",
        "lower",
        "none: traced over untraced wall time per unit of work",
        false,
    ),
];

/// Set-ups per run: at least `SETUP_REPEATS`, then more until they have
/// taken `SETUP_MIN_S` in all. Consecutive set-ups form blocks of at
/// least `SETUP_BLOCK_S`; `setup_s` is the median over blocks of the
/// mean set-up time in each. The median keeps a cold first set-up from
/// dominating; the block means keep it from jumping between the fast
/// and slow states of a shared host (which last tenths of a second and
/// more), as a median of single set-ups of microseconds would.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
const SETUP_BLOCK_S: f64 = 0.2;

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measurement, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Opts {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Names the first missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    opts.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                        .ok_or_else(|| bad("a number of seconds"))?;
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} (got '{}')",
                WORKLOADS.join(", "),
                opts.workload
            ));
        }
        Ok(opts)
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// The JSON metrics: end-to-end on untraced runs, per-layer on
    /// traced ones, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every per-layer value the workload produced (on untraced runs
    /// too), by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Digest of the generated inputs.
    pub inputs_digest: u64,
    /// Human-readable lines printed above the JSON line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The deterministic per-layer values (counts and simulated
    /// statistics) this run produced.
    pub fn exact(&self) -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .filter(|d| d.exact)
            .map(|d| (d.name, self.layer.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The result line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Runs one workload as `opts` asks.
pub fn run(opts: &Opts) -> Outcome {
    match opts.workload.as_str() {
        "daemon_mix" => run_workload::<daemon_mix::DaemonMix>(opts),
        "batch_wide" => run_workload::<batch_wide::BatchWide>(opts),
        "device_exec" => run_workload::<device_exec::DeviceExec>(opts),
        "sweep_fleet" => run_workload::<sweep_fleet::SweepFleet>(opts),
        other => unreachable!("Opts::parse admits no workload '{other}'"),
    }
}

/// Where a traced run writes its spans.
fn spans_path(opts: &Opts) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.json", opts.workload, opts.seed))
}

fn run_workload<W: Workload>(opts: &Opts) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut blocks: Vec<f64> = Vec::new();
    let (mut setups, mut total_s, mut block_s, mut block_n) = (0usize, 0.0, 0.0, 0usize);
    let mut last = None;
    while setups < SETUP_REPEATS || total_s < SETUP_MIN_S {
        // Drop the previous instance first, so the peak resident set
        // holds one workload state.
        drop(last.take());
        let t = Instant::now();
        let w = W::setup(opts.seed, &mut tr);
        let dt = secs(t);
        last = Some(w);
        setups += 1;
        total_s += dt;
        block_s += dt;
        block_n += 1;
        if block_s >= SETUP_BLOCK_S {
            blocks.push(block_s / block_n as f64);
            (block_s, block_n) = (0.0, 0);
        }
    }
    if block_n > 0 {
        blocks.push(block_s / block_n as f64);
    }
    let mut w = last.expect("at least one set-up");
    w.prepare_checks();

    // Untraced runs measure for the whole budget. Traced runs measure
    // half of it untraced and half traced; the ratio of the halves'
    // throughput is the tracing overhead.
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut unit = 0u64;
    let (plain, traced) = if opts.trace {
        tr.set_enabled(false);
        let plain = window(&mut w, &mut tr, budget / 2, &mut unit);
        tr.set_enabled(true);
        let traced = window(&mut w, &mut tr, budget / 2, &mut unit);
        (plain, Some(traced))
    } else {
        (window(&mut w, &mut tr, budget, &mut unit), None)
    };
    let findings = w.finish(&plain, &tr);
    let mut layer = findings.layer;
    let (mut attempted, mut failed, mut refused) = (plain.attempted, plain.failed, plain.refused);
    if let Some(t) = &traced {
        layer.insert(
            "bench.trace_overhead",
            plain.throughput() / t.throughput().max(1e-12),
        );
        attempted += t.attempted;
        failed += t.failed;
        refused += t.refused;
    }
    failed += findings.failed;

    let (percentile, tail_us) = plain.tail_us();
    let calls = plain.calls_us.len();
    let e2e = [
        stats::median(&blocks) + findings.unit_setup_s.unwrap_or(0.0),
        peak_rss_mb(),
        plain.throughput(),
        tail_us,
    ];
    let (work_name, work_unit) = w.work();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut notes = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} available_parallelism={parallelism} \
             shards=1",
            opts.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        ),
        format!("config: {}", w.describe()),
        format!(
            "untraced window: {} units, {calls} calls, {:.3} s in the timed region",
            plain.units, plain.timed_s,
        ),
    ];
    for (def, value) in END_TO_END.iter().zip(e2e) {
        let how = match def.name {
            "setup_s" => format!(
                "median of {} blocks of {setups} set-ups{}",
                blocks.len(),
                if findings.unit_setup_s.is_some() {
                    " plus the per-session set-up"
                } else {
                    ""
                }
            ),
            "throughput_per_s" => format!("{work_name}: {work_unit} per timed second"),
            "call_p99_us" => format!("p{percentile} of {calls} calls"),
            _ => String::new(),
        };
        notes.push(format!("{} = {value} {}  {how}", def.name, def.unit));
    }
    notes.push(format!(
        "call_p50_us = {} us  median of {calls} calls (printed, not reported)",
        plain.p50_us()
    ));
    notes.push(format!(
        "fail_frac = {:.6} ({failed} errors or check misses + {refused} modeled refusals or \
         failures, of {attempted} attempted)",
        (failed + refused) as f64 / attempted.max(1) as f64,
    ));
    notes.extend(findings.notes);

    let metrics = if opts.trace {
        for def in &PER_LAYER {
            let v = layer.get(def.name).copied().unwrap_or(0.0);
            notes.push(format!(
                "{} = {v} {}  (moves: {})",
                def.name, def.unit, def.moves
            ));
        }
        let by_layer = tr.self_ns_by_layer();
        let total: u64 = by_layer.values().sum();
        let shares: Vec<String> = by_layer
            .iter()
            .map(|(l, ns)| format!("{l} {:.1}%", 100.0 * *ns as f64 / total.max(1) as f64))
            .collect();
        notes.push(format!(
            "self time by layer (traced spans): {}",
            shares.join(", ")
        ));
        let path = spans_path(opts);
        match tr.write_json(&path) {
            Ok(()) => notes.push(format!(
                "spans: {} written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => notes.push(format!("spans: not written to {}: {e}", path.display())),
        }
        PER_LAYER
            .iter()
            .map(|d| (d.name, layer.get(d.name).copied().unwrap_or(0.0), d.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(d, v)| (d.name, v, d.unit))
            .collect()
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        layer,
        inputs_digest: findings.inputs_digest,
        notes,
    }
}
