//! The workload interface and the timed loop every workload shares.

use crate::stats::{median, quantile, tail_percentile};
use crate::trace::Tracer;
use dram_core::math::mix2;
use fcdram::PackedBits;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one measurement window recorded. Only calls into the layers
/// count toward `timed_s`; input cloning and output checks between
/// them do not.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    /// Seconds spent inside the timed region.
    pub timed_s: f64,
    /// Latency of every unit call, microseconds.
    pub calls_us: Vec<f64>,
    /// Work completed in the timed region (jobs, native ops, cells).
    pub work: u64,
    /// Units run (sessions, batches, pass pairs, chips).
    pub units: u64,
    /// Operations attempted (jobs, program runs, chips).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Operations the modeled system refused or failed by design
    /// (shed, rejected, retry budget exhausted, undrained). They count
    /// toward `fail_frac` but are not errors of the program.
    pub refused: u64,
}

impl Acc {
    /// Work per timed second over the whole window.
    pub fn throughput(&self) -> f64 {
        self.work as f64 / self.timed_s.max(1e-12)
    }

    /// Median call latency over every call of the window, microseconds.
    pub fn p50_us(&self) -> f64 {
        median(&self.calls_us)
    }

    /// The tail percentile over every call of the window (p99, or the
    /// highest percentile with at least ten calls beyond it) and its
    /// latency, microseconds.
    pub fn tail_us(&self) -> (f64, f64) {
        let percentile = tail_percentile(self.calls_us.len());
        (percentile, quantile(&self.calls_us, percentile / 100.0))
    }
}

/// Results a workload reports after its windows ran.
#[derive(Debug, Default)]
pub struct Findings {
    /// Set-up that precedes each unit's timed region (a daemon
    /// session's construction and warm-up ticks), seconds; added to
    /// `setup_s`.
    pub unit_setup_s: Option<f64>,
    /// Per-layer metric values by name (see [`crate::PER_LAYER`]).
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable result lines printed above the JSON line.
    pub notes: Vec<String>,
    /// Failures found by the final checks (replays, cross-checks).
    pub failed: u64,
    /// Digest of the generated inputs (changes with the seed).
    pub inputs_digest: u64,
}

/// One benchmark workload: set up from a seed, then run units until the
/// window closes, then check and summarize.
pub trait Workload: Sized {
    /// Builds every input from `seed` and everything that precedes the
    /// timed region. Timed by the caller as `setup_s`.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;

    /// Computes reference outputs; runs after set-up and outside every
    /// timed region.
    fn prepare_checks(&mut self) {}

    /// Units in one deterministic cycle of inputs. Every run covers at
    /// least one cycle, so deterministic counts never depend on timing.
    fn cycle(&self) -> u64;

    /// Runs unit `unit` (a global index across windows), timing only
    /// the calls into the layers and checking outputs afterwards.
    fn run_unit(&mut self, unit: u64, tr: &mut Tracer, acc: &mut Acc);

    /// Final checks and per-layer values. `acc` is the untraced
    /// window; `tr` holds the set-up spans and, on traced runs, the
    /// traced window's spans.
    fn finish(&mut self, acc: &Acc, tr: &Tracer) -> Findings;

    /// What `throughput_per_s` counts on this workload: its name in
    /// the workload's own terms and the unit of work.
    fn work(&self) -> (&'static str, &'static str);

    /// Configuration line: lanes, fleet, backends.
    fn describe(&self) -> String;
}

/// Runs units of `w` until `budget` has passed (and at least until the
/// first input cycle is complete), continuing the global unit index.
pub fn window<W: Workload>(w: &mut W, tr: &mut Tracer, budget: Duration, unit: &mut u64) -> Acc {
    let mut acc = Acc::default();
    let start = Instant::now();
    while acc.units == 0 || *unit < w.cycle() || start.elapsed() < budget {
        w.run_unit(*unit, tr, &mut acc);
        *unit += 1;
        acc.units += 1;
    }
    acc
}

/// One packed operand of `lanes` bits drawn from `seed`.
pub fn operand(seed: u64, lanes: usize) -> PackedBits {
    let words = (0..lanes.div_ceil(64))
        .map(|w| mix2(seed, w as u64))
        .collect();
    PackedBits::from_words(words, lanes)
}

/// `inputs` packed operands of `lanes` bits drawn from `seed`.
pub fn operands(seed: u64, inputs: usize, lanes: usize) -> Vec<PackedBits> {
    (0..inputs)
        .map(|k| operand(mix2(seed, k as u64), lanes))
        .collect()
}

/// Folds operand bits into a digest.
pub fn digest_operands(acc: u64, ops: &[PackedBits]) -> u64 {
    ops.iter()
        .flat_map(|p| p.words().iter())
        .fold(acc, |h, w| mix2(h, *w))
}

/// Lanes of `a` and `b` that differ.
pub fn mismatched_bits(a: &PackedBits, b: &PackedBits) -> u64 {
    a.words()
        .iter()
        .zip(b.words())
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Elapsed seconds of `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
