//! CLI entry point: regenerate the paper's tables and figures.

use characterize::experiments::{run_experiment, ALL_IDS};
use characterize::report::to_json;
use characterize::runner::{build_fleet, Scale};
use characterize::sweep::{run_fleet_sweep, SweepConfig};
use dram_core::FleetConfig;
use std::process::ExitCode;

const USAGE: &str = "\
usage: characterize [EXPERIMENT...] [--quick] [--json PATH]
       characterize fleet [--chips N] [--shards K] [--seed S]
                          [--module NAME] [--quick] [--json PATH]
                          [--export-costs PATH]
       characterize synth (--expr EXPR | --table BITS) [--costs PATH]
                          [--fan-in N] [--execute] [--lanes N]
                          [--seed S] [--asm PATH]
                          [--backend {vm,bender}]
       characterize serve [--jobs N] [--exprs FILE] [--chips N]
                          [--shards K] [--seed S] [--lanes N]
                          [--retries R] [--min-success X] [--no-remap]
                          [--costs PATH] [--module NAME] [--fan-in N]
                          [--backend {vm,bender}] [--json PATH]
                          [--faults PLAN.json|demo] [--health-json PATH]
       characterize daemon [--ticks N] [--chips N] [--seed S]
                           [--lanes N] [--shards K] [--max-batch N]
                           [--tick-us T] [--report-every N]
                           [--drain-max N] [--retries R]
                           [--min-success X] [--fan-in N]
                           [--module NAME] [--costs PATH]
                           [--backend {vm,bender}]
                           [--faults PLAN.json|demo] [--demo]
                           [--trace-json PATH] [--metrics PATH]
                           [--record SESSION.json] [--json PATH]
       characterize daemon --replay SESSION.json [--shards K]
                           [--backend {vm,bender}] [--costs PATH]
                           [--trace-json PATH] [--metrics PATH]
                           [--json PATH]
       characterize trace --input TRACE.json [--top N] [--json PATH]

EXPERIMENT  one or more of: table1 fig5 fig7 fig8 fig9 fig10 fig11
            fig12 fig15 fig16 fig17 fig18 fig19 fig20 fig21
            capabilities all
            (default: all)
--quick     reduced scale (fast; used by tests and benches)
--json PATH additionally write results as JSON

The shared flags are spelled and defaulted identically in every mode
that takes them: --backend {vm,bender} (default vm), --shards K
(default 0 = one worker per CPU), --seed S (default 0), --chips N
(default 8). A mode a shared flag does not apply to rejects it.
Numeric flags are range-checked in every mode: --jobs, --chips,
--lanes, --max-batch and --ticks must be at least 1, --fan-in 2 to 16,
--min-success in [0, 1], and --tick-us finite and greater than 0.
Sizes are bounded too: per chip, 1 KiB plus 512 rows of --lanes bits,
and for serve per job, 1 KiB plus one row of --lanes bits per input,
must fit a 4 GiB memory budget.

fleet mode sweeps a seeded population of simulated chips (drawn
round-robin from Table 1, or from one --module) over the experiment
grid, sharded across worker threads, and reports population
success-rate distributions with per-chip attribution:
--chips N   fleet size (default 8)
--shards K  worker threads (default: one per CPU)
--seed S    reseed the whole population (default 0 = Table-1 chips)
--module M  draw every chip from module M (e.g. hynix-4Gb-M-2666-#0)
--export-costs PATH  write measured per-(op, N) success/latency/energy
            as a synthesis cost model (the JSON fcsynth loads)

synth mode compiles a boolean expression (or LSB-first truth table)
into an FCDRAM program with the reliability-aware mapper and reports
the chosen mapping, expected success, and energy/latency:
--expr EXPR   expression over !, &, |, ^, parens, named inputs
--table BITS  truth table, e.g. 0110 (2^n digits, LSB-first)
--costs PATH  cost model from a fleet --export-costs run
              (default: built-in Table-1 population means)
--fan-in N    widest native gate of the target part (default 16)
--execute     run through the unified fcexec engine and verify
--lanes N     SIMD lanes for --execute (default 256)
--seed S      operand seed for --execute (default 0)
--asm PATH    also emit the program as bender assembly
--backend B   execution backend for --execute: 'vm' (host SimdVm,
              verified bit-exact; default) or 'bender' (one combined
              cycle-timed DDR4 command schedule per native op on a
              simulated Table-1 chip — reports the observed match
              fraction against the reference and the cycle-accurate
              schedule latency)

serve mode schedules a batch of compiled programs onto a simulated
chip fleet (fcsched): least-loaded placement with (subarray, row-range)
slot leases, per-chip reliability-aware admission (re-map to narrower
gates or flag), deterministic retry accounting, and a report with
throughput, percentile latency, and per-chip utilization. Results and
the --json report are bit-identical for every --shards value; only the
wall-clock throughput on stderr varies:
--jobs N        batch size (default 32)
--exprs FILE    expressions to serve, one per line, '#' comments
                (default: a built-in heterogeneous 6-tenant mix)
--chips N       fleet size (default 8)
--shards K      worker threads (default: one per CPU)
--seed S        batch seed for operands and retry draws (default 0)
--lanes N       SIMD lanes per job (default 256)
--retries R     per-job retry budget (default 3)
--min-success X admission threshold (default 0.85)
--no-remap      flag below-threshold jobs instead of narrowing them
--costs PATH    cost model from a fleet --export-costs run
--module M      draw every chip from one module
--fan-in N      widest native gate when compiling (default 16)
--backend B     execution backend: 'vm' (cost-model latency; default)
                or 'bender' (cycle-accurate DDR4 command-schedule
                latency at each chip's speed bin). Results are
                host-exact on both; only the declared latency fields
                of the report move.
--json PATH     additionally write the tables as JSON
--faults F      run a degradation scenario: F is a FaultPlan JSON file
                or the literal 'demo' (built-in scenario: aggressive
                disturbance threshold + one scripted mid-session chip
                dropout). Adds read-disturbance accumulation with
                planner-scheduled mitigation stealing lease bandwidth,
                MIL-HDBK-217F hazard-rate aging, and deterministic
                dropout handling with in-flight job re-placement; the
                report gains serve-health and serve-dropouts tables
                that are byte-identical for every --shards value and
                both backends
--health-json PATH  write the fleet-health ledger alone as JSON (the
                artifact CI byte-diffs across shard counts and
                backends)

daemon mode runs the always-on fcserve serving daemon over a built-in
three-tier demo tenant fleet: streaming per-tenant ingestion on a
modeled tick clock, admission control (reliability-aware rejection,
shed-or-queue backpressure), SLO-tiered micro-batching into the
fcsched scheduler, rolling per-tenant p50/p99 health snapshots, and a
graceful drain. Every ingested job is appended to a session log;
--record writes it and --replay re-executes it byte-identically — the
report depends only on (session log, fleet, cost model), never on
shard count, backend, or the wall clock (wall jobs/s stays on stderr;
the report carries modeled throughput instead):
--ticks N       ingestion ticks before the drain, at least 1 (default 12)
--chips N       fleet size (default 8)
--seed S        session seed: traffic, operands, retry draws (default 0)
--lanes N       SIMD lanes per job (default 64)
--shards K      worker threads (default: one per CPU)
--max-batch N   micro-batch budget per tick (default 12)
--tick-us T     modeled tick period in microseconds (default 20)
--report-every N  health-snapshot interval in ticks (default 4)
--drain-max N   drain-tick bound after ingestion stops (default 64)
--retries R     per-job retry budget (default 3)
--min-success X scheduler admission threshold (default 0.85)
--fan-in N      widest native gate when compiling (default 16)
--module M      draw every chip from one module
--costs PATH    cost model from a fleet --export-costs run
--backend B     execution backend: 'vm' or 'bender' (report bytes are
                identical on both)
--faults F      degradation scenario (FaultPlan JSON or 'demo'); the
                health snapshots accumulate mitigations and dropouts
--demo          the canonical demo session: shorthand for --faults
                demo over the built-in tenants (what CI traces);
                conflicts with --faults and --replay
--trace-json PATH  record the session as Chrome trace-event JSON
                (load in chrome://tracing or Perfetto; analyze with
                `characterize trace`). Timestamps are modeled —
                tick clock plus cost-model latencies — so the trace
                bytes are identical for every --shards value and
                both backends
--metrics PATH  write a Prometheus-style metrics exposition at every
                health interval and once more at drain (the file
                always ends matching the final report totals)
--record PATH   write the session log for later --replay
--replay PATH   re-execute a recorded session; traffic-shaping flags
                are rejected (the log pins them) — only --shards,
                --backend, --costs, --trace-json, --metrics, and
                --json are allowed
--json PATH     additionally write the tables as JSON

trace mode analyzes a recorded Chrome trace offline: the top-N
hottest (op, N) shapes by total modeled time, per-chip utilization,
and per-tenant queue-wait breakdowns:
--input PATH  the trace written by `characterize daemon --trace-json`
--top N       how many op shapes to list (default 10)
--json PATH   additionally write the tables as JSON
";

/// Takes the next argument as a string, printing a diagnostic when it
/// is missing.
fn str_arg(it: &mut impl Iterator<Item = String>, flag: &str) -> Option<String> {
    let v = it.next();
    if v.is_none() {
        eprintln!("{flag} requires a value\n{USAGE}");
    }
    v
}

/// Parses a `--backend` value, printing a diagnostic on an unknown
/// name.
fn parse_backend(text: &str) -> Option<fcexec::BackendKind> {
    let parsed = fcexec::BackendKind::parse(text);
    if parsed.is_none() {
        eprintln!("--backend: unknown backend '{text}' (one of: vm, bender)\n{USAGE}");
    }
    parsed
}

/// Uniform default fleet size for every subcommand's `--chips`.
const DEFAULT_CHIPS: usize = 8;

/// The flags every subcommand spells and defaults identically:
/// `--backend` (vm), `--shards` (0 = one worker per CPU), `--seed`
/// (0), `--chips` ([`DEFAULT_CHIPS`]). One parser, one spelling, one
/// default — subcommands reject the ones that do not
/// apply instead of re-defining them.
struct CommonFlags {
    backend: fcexec::BackendKind,
    shards: usize,
    seed: u64,
    chips: usize,
    backend_set: bool,
    shards_set: bool,
    seed_set: bool,
    chips_set: bool,
}

impl Default for CommonFlags {
    fn default() -> Self {
        CommonFlags {
            backend: fcexec::BackendKind::Vm,
            shards: 0,
            seed: 0,
            chips: DEFAULT_CHIPS,
            backend_set: false,
            shards_set: false,
            seed_set: false,
            chips_set: false,
        }
    }
}

/// Outcome of offering one argument to the shared-flag parser.
enum Common {
    /// The flag (and its value) were consumed.
    Consumed,
    /// The flag was recognized but its value was missing/malformed (a
    /// diagnostic has been printed).
    Failed,
    /// Not one of the shared flags.
    Unrecognized,
}

impl CommonFlags {
    /// Offers `flag` to the shared parser, consuming its value from
    /// `it` when recognized.
    fn accept(&mut self, flag: &str, it: &mut impl Iterator<Item = String>) -> Common {
        match flag {
            "--backend" => match str_arg(it, "--backend").map(|b| parse_backend(&b)) {
                Some(Some(b)) => {
                    self.backend = b;
                    self.backend_set = true;
                    Common::Consumed
                }
                _ => Common::Failed,
            },
            "--shards" => match num_arg(it, "--shards") {
                Some(n) => {
                    self.shards = n;
                    self.shards_set = true;
                    Common::Consumed
                }
                None => Common::Failed,
            },
            "--seed" => match num_arg(it, "--seed") {
                Some(n) => {
                    self.seed = n;
                    self.seed_set = true;
                    Common::Consumed
                }
                None => Common::Failed,
            },
            "--chips" => match num_arg(it, "--chips") {
                Some(n) => {
                    self.chips = n;
                    self.chips_set = true;
                    Common::Consumed
                }
                None => Common::Failed,
            },
            _ => Common::Unrecognized,
        }
    }

    /// Errors out (with a diagnostic) when a shared flag that does not
    /// apply to subcommand `sub` was given; `allowed` lists the
    /// applicable ones.
    fn check_applies(&self, sub: &str, allowed: &[&str]) -> bool {
        let given = [
            ("--backend", self.backend_set),
            ("--shards", self.shards_set),
            ("--seed", self.seed_set),
            ("--chips", self.chips_set),
        ];
        for (name, set) in given {
            if set && !allowed.contains(&name) {
                eprintln!("{name} does not apply to '{sub}'\n{USAGE}");
                return false;
            }
        }
        true
    }
}

/// Parses the next argument as a number, printing a diagnostic when it
/// is missing, malformed or outside the flag's range ([`out_of_range`]).
/// Every subcommand reads its numeric flags through here, so each
/// range is checked in this one place.
fn num_arg<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Option<T> {
    let Some(v) = it.next() else {
        eprintln!("{flag} requires a value\n{USAGE}");
        return None;
    };
    let Ok(n) = v.parse() else {
        eprintln!("{flag}: invalid value '{v}'\n{USAGE}");
        return None;
    };
    if let Some(range) = v.parse().ok().and_then(|x| out_of_range(flag, x)) {
        eprintln!("{flag} must be {range} (got '{v}')\n{USAGE}");
        return None;
    }
    Some(n)
}

/// The accepted range of a numeric flag, when `x` falls outside it:
/// counts are at least 1, `--fan-in` is a native gate width
/// (2..=[`simdram::MAX_FAN_IN`]), `--min-success` a probability and
/// `--tick-us` a positive period. Other numeric flags take any value
/// their type parses (`--shards 0` means one worker per CPU).
fn out_of_range(flag: &str, x: f64) -> Option<String> {
    let (ok, range) = match flag {
        "--jobs" | "--chips" | "--lanes" | "--max-batch" | "--ticks" => {
            (x >= 1.0, "at least 1".to_string())
        }
        "--fan-in" => (
            (2.0..=simdram::MAX_FAN_IN as f64).contains(&x),
            format!("between 2 and {}", simdram::MAX_FAN_IN),
        ),
        "--min-success" => ((0.0..=1.0).contains(&x), "in [0, 1]".to_string()),
        "--tick-us" => (
            x.is_finite() && x > 0.0,
            "finite and greater than 0".to_string(),
        ),
        _ => return None,
    };
    (!ok).then_some(range)
}

/// The memory budget size flags are checked against before anything
/// is allocated: 4 GiB.
const MEMORY_BUDGET_BYTES: u128 = 4 << 30;

/// Whether a run over `chips` chips with `lanes`-bit rows, plus `jobs`
/// jobs staging `operand_rows` host rows in all, fits
/// [`MEMORY_BUDGET_BYTES`], printing a usage error when it does not.
/// The planned footprint is, per chip, 1 KiB of fleet and planner state
/// plus one subarray's 512 rows of `lanes` bits, and per job, 1 KiB of
/// job state plus its operand rows.
fn fits_budget(chips: usize, lanes: usize, jobs: u128, operand_rows: u128) -> bool {
    let row = (lanes as u128).div_ceil(8);
    let bytes = chips as u128 * (1024 + 512 * row) + jobs * 1024 + operand_rows * row;
    if bytes <= MEMORY_BUDGET_BYTES {
        return true;
    }
    eprintln!(
        "{chips} chip(s) and {jobs} job(s) with {lanes}-lane rows plan {} MiB, over the {} MiB memory budget\n{USAGE}",
        bytes >> 20,
        MEMORY_BUDGET_BYTES >> 20
    );
    false
}

/// Host operand rows a `jobs`-job batch cycling through `exprs` stages:
/// each job one row per input of its expression (an expression that
/// does not parse counts none; building the batch reports it).
fn batch_operand_rows(exprs: &[String], jobs: usize) -> u128 {
    let inputs: Vec<u128> = exprs
        .iter()
        .map(|t| fcsynth::Expr::parse(t).map_or(0, |e| e.inputs().len() as u128))
        .collect();
    let (cycles, rest) = (jobs / exprs.len().max(1), jobs % exprs.len().max(1));
    cycles as u128 * inputs.iter().sum::<u128>() + inputs[..rest].iter().sum::<u128>()
}

fn run_fleet_cli(args: Vec<String>) -> ExitCode {
    let mut common = CommonFlags::default();
    let mut module: Option<String> = None;
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut costs_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--export-costs" => match str_arg(&mut it, "--export-costs") {
                Some(p) => costs_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--module" => match str_arg(&mut it, "--module") {
                Some(m) => module = Some(m),
                None => return ExitCode::FAILURE,
            },
            "--json" => match str_arg(&mut it, "--json") {
                Some(p) => json_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => match common.accept(other, &mut it) {
                Common::Consumed => {}
                Common::Failed => return ExitCode::FAILURE,
                Common::Unrecognized => {
                    eprintln!("unknown fleet option '{other}'\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if !common.check_applies("fleet", &["--chips", "--shards", "--seed"])
        || !fits_budget(common.chips, 0, 0, 0)
    {
        return ExitCode::FAILURE;
    }
    let (chips, shards, seed) = (common.chips, common.shards, common.seed);
    let Some(fleet) = build_cli_fleet(module.as_deref(), chips) else {
        return ExitCode::FAILURE;
    };
    let fleet = fleet.with_seed(seed);
    let sweep = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::standard()
    }
    .with_shards(shards);
    eprintln!(
        "sweeping {} chips over {} worker thread(s) ...",
        fleet.len(),
        sweep.effective_workers(fleet.len())
    );
    let start = std::time::Instant::now();
    let report = run_fleet_sweep(&fleet, &sweep);
    eprintln!("fleet sweep done in {:.1}s", start.elapsed().as_secs_f64());
    let tables = report.tables();
    for t in &tables {
        println!("{}", t.render());
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, to_json(&tables)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = costs_path {
        let data = report.cost_export(65_536);
        if data.entries.is_empty() {
            eprintln!("no measured operations to export (nothing written)");
            return ExitCode::FAILURE;
        }
        let json = serde_json::to_string_pretty(&data).expect("cost model serializes");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {path} ({} operation entries; load with `characterize synth --costs`)",
            data.entries.len()
        );
    }
    ExitCode::SUCCESS
}

/// The `serve` subcommand: schedule a batch of compiled programs onto
/// a fleet and report throughput, latency percentiles, and per-chip
/// utilization.
fn run_serve_cli(args: Vec<String>) -> ExitCode {
    let mut common = CommonFlags::default();
    let mut jobs = 32usize;
    let mut lanes = 256usize;
    let mut retries = 3u32;
    let mut min_success = 0.85f64;
    let mut allow_remap = true;
    let mut fan_in = 16usize;
    let mut exprs_path: Option<String> = None;
    let mut costs_path: Option<String> = None;
    let mut module: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut faults_arg: Option<String> = None;
    let mut health_json_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => match num_arg(&mut it, "--jobs") {
                Some(n) => jobs = n,
                None => return ExitCode::FAILURE,
            },
            "--lanes" => match num_arg(&mut it, "--lanes") {
                Some(n) => lanes = n,
                None => return ExitCode::FAILURE,
            },
            "--retries" => match num_arg(&mut it, "--retries") {
                Some(n) => retries = n,
                None => return ExitCode::FAILURE,
            },
            "--min-success" => match num_arg(&mut it, "--min-success") {
                Some(n) => min_success = n,
                None => return ExitCode::FAILURE,
            },
            "--fan-in" => match num_arg(&mut it, "--fan-in") {
                Some(n) => fan_in = n,
                None => return ExitCode::FAILURE,
            },
            "--no-remap" => allow_remap = false,
            "--exprs" => match str_arg(&mut it, "--exprs") {
                Some(p) => exprs_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--costs" => match str_arg(&mut it, "--costs") {
                Some(p) => costs_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--module" => match str_arg(&mut it, "--module") {
                Some(m) => module = Some(m),
                None => return ExitCode::FAILURE,
            },
            "--json" => match str_arg(&mut it, "--json") {
                Some(p) => json_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--faults" => match str_arg(&mut it, "--faults") {
                Some(f) => faults_arg = Some(f),
                None => return ExitCode::FAILURE,
            },
            "--health-json" => match str_arg(&mut it, "--health-json") {
                Some(p) => health_json_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => match common.accept(other, &mut it) {
                Common::Consumed => {}
                Common::Failed => return ExitCode::FAILURE,
                Common::Unrecognized => {
                    eprintln!("unknown serve option '{other}'\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let (chips, shards, seed, backend) = (common.chips, common.shards, common.seed, common.backend);
    let Some(cost) = load_cost_model(costs_path.as_deref()) else {
        return ExitCode::FAILURE;
    };
    let exprs: Vec<String> = match &exprs_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                let parsed = characterize::serve::load_exprs(&text);
                if parsed.is_empty() {
                    eprintln!("{path}: no expressions found");
                    return ExitCode::FAILURE;
                }
                parsed
            }
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => characterize::serve::DEMO_MIX
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    if !fits_budget(chips, lanes, jobs as u128, batch_operand_rows(&exprs, jobs)) {
        return ExitCode::FAILURE;
    }
    let Some(fleet) = build_cli_fleet(module.as_deref(), chips) else {
        return ExitCode::FAILURE;
    };
    let batch = match characterize::serve::build_batch(&exprs, jobs, lanes, seed, &cost, fan_in) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let faults = match faults_arg.as_deref() {
        Some(arg) => match load_fault_plan(arg) {
            Some(plan) => Some(plan),
            None => return ExitCode::FAILURE,
        },
        None => None,
    };
    if health_json_path.is_some() && faults.is_none() {
        eprintln!("--health-json needs --faults (no fleet-health ledger otherwise)\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let policy = fcsched::SchedPolicy {
        min_success,
        retry_budget: retries,
        allow_remap,
        shards,
        backend,
        faults,
        ..fcsched::SchedPolicy::default()
    };
    eprintln!(
        "serving {} job(s) ({} native ops) on {} chip(s) over {} worker thread(s), \
         {backend} backend ...",
        batch.len(),
        batch.native_ops(),
        fleet.len(),
        policy.effective_workers(batch.len())
    );
    let start = std::time::Instant::now();
    let report = match fcsched::serve_batch(&fleet, &cost, &policy, &batch) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scheduling failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed().as_secs_f64();
    // Wall-clock throughput is machine-dependent: stderr only, never
    // in the deterministic tables/JSON.
    eprintln!(
        "batch done in {:.3}s wall ({:.0} jobs/s, {:.0} native ops/s)",
        wall,
        report.jobs() as f64 / wall.max(1e-9),
        report.native_ops() as f64 / wall.max(1e-9),
    );
    let tables = characterize::serve::tables(&report, &fleet, &fcsched::ideal_cost(&batch, &cost));
    for t in &tables {
        println!("{}", t.render());
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, to_json(&tables)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = health_json_path {
        let health = report.health.as_ref().expect("--faults was required above");
        if let Err(e) = std::fs::write(&path, health.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// Loads a cost model from `--costs` (or the built-in Table-1
/// defaults when absent).
fn load_cost_model(costs_path: Option<&str>) -> Option<fcsynth::CostModel> {
    match costs_path {
        Some(path) => {
            let json = match std::fs::read_to_string(path) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("failed to read {path}: {e}");
                    return None;
                }
            };
            match fcsynth::CostModel::from_json(&json) {
                Ok(m) => Some(m),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    None
                }
            }
        }
        None => Some(fcsynth::CostModel::table1_defaults()),
    }
}

/// Loads a `--faults` plan: `demo` names the built-in scenario,
/// anything else is a fault-plan JSON file.
fn load_fault_plan(arg: &str) -> Option<fcsched::FaultPlan> {
    if arg == "demo" {
        return Some(fcsched::FaultPlan::demo());
    }
    let json = match std::fs::read_to_string(arg) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("failed to read {arg}: {e}");
            return None;
        }
    };
    match fcsched::FaultPlan::from_json(&json) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("{arg}: {e}");
            None
        }
    }
}

/// Builds a fleet from an optional `--module` name, defaulting to the
/// round-robin Table-1 inventory.
fn build_cli_fleet(module: Option<&str>, chips: usize) -> Option<FleetConfig> {
    match module {
        Some(name) => {
            let all = dram_core::config::full_fleet();
            match all.into_iter().find(|m| m.name == name) {
                Some(cfg) => Some(FleetConfig::single(cfg, chips)),
                None => {
                    eprintln!("unknown module '{name}' (see `characterize table1`)");
                    None
                }
            }
        }
        None => Some(FleetConfig::table1(chips)),
    }
}

/// Builds the daemon's observability bundle from the `--trace-json` /
/// `--metrics` flags (a disabled bundle when neither was given — the
/// engine then follows the exact unobserved code paths).
fn daemon_obs(trace: bool, metrics_path: Option<&str>) -> fcobs::Observability {
    let mut obs = fcobs::Observability::disabled();
    if trace {
        obs = obs.with_trace(fcobs::trace::DEFAULT_TRACE_CAPACITY);
    }
    if metrics_path.is_some() {
        obs = obs.with_metrics(metrics_path.map(std::path::PathBuf::from));
    }
    obs
}

/// Writes the collected trace as Chrome trace-event JSON and confirms
/// the metrics file (the daemon already flushed it). Returns false on
/// a write failure.
fn write_obs_artifacts(
    obs: fcobs::Observability,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
) -> bool {
    if let Some(path) = trace_path {
        let buf = obs.trace.expect("--trace-json enabled the collector");
        let dropped = buf.dropped();
        let events = buf.finish();
        if dropped > 0 {
            eprintln!("warning: trace ring shed {dropped} oldest event(s)");
        }
        let json = fcobs::chrome::to_chrome(&events);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write {path}: {e}");
            return false;
        }
        eprintln!(
            "wrote {path} ({} trace event(s); open in chrome://tracing or \
             run `characterize trace --input {path}`)",
            events.len()
        );
    }
    if let Some(path) = metrics_path {
        eprintln!("wrote {path} (Prometheus-style metrics exposition)");
    }
    true
}

/// The `daemon` subcommand: run the always-on fcserve serving daemon
/// over the built-in demo tenants (optionally recording the session),
/// or byte-identically replay a recorded session.
fn run_daemon_cli(args: Vec<String>) -> ExitCode {
    let mut common = CommonFlags::default();
    let mut ticks: Option<usize> = None;
    let mut lanes: Option<usize> = None;
    let mut max_batch: Option<usize> = None;
    let mut tick_us: Option<f64> = None;
    let mut report_every: Option<usize> = None;
    let mut drain_max: Option<usize> = None;
    let mut retries: Option<u32> = None;
    let mut min_success: Option<f64> = None;
    let mut fan_in: Option<usize> = None;
    let mut module: Option<String> = None;
    let mut costs_path: Option<String> = None;
    let mut faults_arg: Option<String> = None;
    let mut demo = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--demo" => demo = true,
            "--trace-json" => match str_arg(&mut it, "--trace-json") {
                Some(p) => trace_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--metrics" => match str_arg(&mut it, "--metrics") {
                Some(p) => metrics_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--ticks" => match num_arg(&mut it, "--ticks") {
                Some(n) => ticks = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--lanes" => match num_arg(&mut it, "--lanes") {
                Some(n) => lanes = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--max-batch" => match num_arg(&mut it, "--max-batch") {
                Some(n) => max_batch = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--tick-us" => match num_arg(&mut it, "--tick-us") {
                Some(n) => tick_us = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--report-every" => match num_arg(&mut it, "--report-every") {
                Some(n) => report_every = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--drain-max" => match num_arg(&mut it, "--drain-max") {
                Some(n) => drain_max = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--retries" => match num_arg(&mut it, "--retries") {
                Some(n) => retries = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--min-success" => match num_arg(&mut it, "--min-success") {
                Some(n) => min_success = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--fan-in" => match num_arg(&mut it, "--fan-in") {
                Some(n) => fan_in = Some(n),
                None => return ExitCode::FAILURE,
            },
            "--module" => match str_arg(&mut it, "--module") {
                Some(m) => module = Some(m),
                None => return ExitCode::FAILURE,
            },
            "--costs" => match str_arg(&mut it, "--costs") {
                Some(p) => costs_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--faults" => match str_arg(&mut it, "--faults") {
                Some(f) => faults_arg = Some(f),
                None => return ExitCode::FAILURE,
            },
            "--record" => match str_arg(&mut it, "--record") {
                Some(p) => record_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--replay" => match str_arg(&mut it, "--replay") {
                Some(p) => replay_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--json" => match str_arg(&mut it, "--json") {
                Some(p) => json_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => match common.accept(other, &mut it) {
                Common::Consumed => {}
                Common::Failed => return ExitCode::FAILURE,
                Common::Unrecognized => {
                    eprintln!("unknown daemon option '{other}'\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }

    if let Some(path) = replay_path {
        // The session log pins every decision-shaping knob; a flag
        // that tried to change one would silently record a lie.
        let pinned: Vec<&str> = [
            ("--ticks", ticks.is_some()),
            ("--chips", common.chips_set),
            ("--seed", common.seed_set),
            ("--lanes", lanes.is_some()),
            ("--max-batch", max_batch.is_some()),
            ("--tick-us", tick_us.is_some()),
            ("--report-every", report_every.is_some()),
            ("--drain-max", drain_max.is_some()),
            ("--retries", retries.is_some()),
            ("--min-success", min_success.is_some()),
            ("--fan-in", fan_in.is_some()),
            ("--module", module.is_some()),
            ("--faults", faults_arg.is_some()),
            ("--demo", demo),
            ("--record", record_path.is_some()),
        ]
        .iter()
        .filter(|(_, set)| *set)
        .map(|(name, _)| *name)
        .collect();
        if !pinned.is_empty() {
            eprintln!(
                "--replay re-executes the recorded session: {} cannot be \
                 overridden (the log pins it)\n{USAGE}",
                pinned.join(", ")
            );
            return ExitCode::FAILURE;
        }
        let json = match std::fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let log = match fcserve::SessionLog::from_json(&json) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Replays price admission against the recorded cost model;
        // --costs overrides the stored path (e.g. when it moved).
        let effective_costs = costs_path.or_else(|| log.costs.clone());
        let Some(cost) = load_cost_model(effective_costs.as_deref()) else {
            return ExitCode::FAILURE;
        };
        let Some(fleet) = build_cli_fleet(log.module.as_deref(), log.chips) else {
            return ExitCode::FAILURE;
        };
        let fleet = fleet.with_seed(log.fleet_seed);
        eprintln!(
            "replaying {} event(s) over {} tick(s) on {} chip(s) ...",
            log.events.len(),
            log.knobs.ticks,
            fleet.len()
        );
        let obs = daemon_obs(trace_path.is_some(), metrics_path.as_deref());
        let shards = common.shards_set.then_some(common.shards);
        let backend = common.backend_set.then_some(common.backend);
        let (report, obs) =
            match fcserve::daemon::replay_obs(&fleet, &cost, &log, shards, backend, obs) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("replay failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
        let tables = characterize::daemon::tables(&report);
        for t in &tables {
            println!("{}", t.render());
        }
        if !write_obs_artifacts(obs, trace_path.as_deref(), metrics_path.as_deref()) {
            return ExitCode::FAILURE;
        }
        if let Some(out) = json_path {
            if let Err(e) = std::fs::write(&out, to_json(&tables)) {
                eprintln!("failed to write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {out}");
        }
        return ExitCode::SUCCESS;
    }

    let chips = common.chips;
    let lanes = lanes.unwrap_or(64);
    if !fits_budget(chips, lanes, 0, 0) {
        return ExitCode::FAILURE;
    }
    let Some(cost) = load_cost_model(costs_path.as_deref()) else {
        return ExitCode::FAILURE;
    };
    let Some(fleet) = build_cli_fleet(module.as_deref(), chips) else {
        return ExitCode::FAILURE;
    };
    if demo && faults_arg.is_some() {
        eprintln!("--demo already selects the demo fault scenario; drop --faults\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if demo {
        faults_arg = Some("demo".into());
    }
    let faults = match faults_arg.as_deref() {
        Some(arg) => match load_fault_plan(arg) {
            Some(plan) => Some(plan),
            None => return ExitCode::FAILURE,
        },
        None => None,
    };
    let mut knobs = fcserve::DaemonKnobs::default();
    if let Some(v) = ticks {
        knobs.ticks = v;
    }
    if let Some(v) = max_batch {
        knobs.max_batch = v;
    }
    if let Some(v) = tick_us {
        knobs.tick_ns = v * 1e3;
    }
    if let Some(v) = report_every {
        knobs.report_every = v;
    }
    if let Some(v) = drain_max {
        knobs.drain_max = v;
    }
    let cfg = fcserve::DaemonConfig {
        seed: common.seed,
        lanes,
        fan_in: fan_in.unwrap_or(16),
        knobs,
        policy: fcsched::SchedPolicy {
            min_success: min_success.unwrap_or(0.85),
            retry_budget: retries.unwrap_or(3),
            shards: common.shards,
            backend: common.backend,
            faults,
            ..fcsched::SchedPolicy::default()
        },
    };
    let tenants = characterize::daemon::demo_tenants();
    eprintln!(
        "serving {} tenant(s) for {} tick(s) on {} chip(s), {} backend ...",
        tenants.len(),
        cfg.knobs.ticks,
        fleet.len(),
        cfg.policy.backend
    );
    let obs = daemon_obs(trace_path.is_some(), metrics_path.as_deref());
    let profiling = trace_path.is_some() || metrics_path.is_some();
    let mut prof = fcobs::SelfProfiler::new();
    let start = std::time::Instant::now();
    let outcome = prof.stage("session", || {
        fcserve::daemon::run_live_obs(&fleet, &cost, &cfg, &tenants, obs)
    });
    let (mut log, report, obs) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("daemon session failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed().as_secs_f64();
    // Wall-clock throughput is machine-dependent: stderr only. The
    // deterministic counterpart (modeled jobs per modeled second) is
    // in the daemon-summary table and the health snapshots.
    eprintln!(
        "session done in {:.3}s wall ({:.0} jobs/s wall; the report carries \
         modeled throughput instead)",
        wall,
        report.totals.completed as f64 / wall.max(1e-9),
    );
    let tables = prof.stage("render", || characterize::daemon::tables(&report));
    for t in &tables {
        println!("{}", t.render());
    }
    if !write_obs_artifacts(obs, trace_path.as_deref(), metrics_path.as_deref()) {
        return ExitCode::FAILURE;
    }
    if profiling {
        // Wall-clock stage times stay on stderr, mirroring the
        // jobs/s convention: they never reach deterministic output.
        eprint!("{}", prof.summary());
    }
    if let Some(out) = record_path {
        // The log needs the fleet/cost identity a replay rebuilds
        // from; the engine cannot know the CLI paths, so fill them
        // here before writing.
        log.module = module.clone();
        log.costs = costs_path.clone();
        if let Err(e) = std::fs::write(&out, log.to_json()) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {out} ({} event(s); replay with `characterize daemon --replay {out}`)",
            log.events.len()
        );
    }
    if let Some(out) = json_path {
        if let Err(e) = std::fs::write(&out, to_json(&tables)) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

/// The `trace` subcommand: offline analysis of a recorded Chrome
/// trace — hottest (op, N) shapes, per-chip utilization, per-tenant
/// queue waits.
fn run_trace_cli(args: Vec<String>) -> ExitCode {
    let mut input: Option<String> = None;
    let mut top = 10usize;
    let mut json_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--input" => match str_arg(&mut it, "--input") {
                Some(p) => input = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--top" => match num_arg(&mut it, "--top") {
                Some(n) => top = n,
                None => return ExitCode::FAILURE,
            },
            "--json" => match str_arg(&mut it, "--json") {
                Some(p) => json_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown trace option '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = input else {
        eprintln!("trace needs --input TRACE.json\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let json = match std::fs::read_to_string(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match fcobs::chrome::from_chrome(&json) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{path}: not a characterize trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("analyzing {} trace event(s) from {path} ...", events.len());
    let tables = characterize::trace::tables(&events, top.max(1));
    for t in &tables {
        println!("{}", t.render());
    }
    if let Some(out) = json_path {
        if let Err(e) = std::fs::write(&out, to_json(&tables)) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

/// The `synth` subcommand: compile an expression or truth table with
/// the reliability-aware mapper and report (optionally execute) it.
fn run_synth_cli(args: Vec<String>) -> ExitCode {
    let mut common = CommonFlags::default();
    let mut expr_text: Option<String> = None;
    let mut table_text: Option<String> = None;
    let mut costs_path: Option<String> = None;
    let mut asm_path: Option<String> = None;
    let mut fan_in = 16usize;
    let mut lanes = 256usize;
    let mut execute = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--expr" => match str_arg(&mut it, "--expr") {
                Some(e) => expr_text = Some(e),
                None => return ExitCode::FAILURE,
            },
            "--table" => match str_arg(&mut it, "--table") {
                Some(t) => table_text = Some(t),
                None => return ExitCode::FAILURE,
            },
            "--costs" => match str_arg(&mut it, "--costs") {
                Some(p) => costs_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--asm" => match str_arg(&mut it, "--asm") {
                Some(p) => asm_path = Some(p),
                None => return ExitCode::FAILURE,
            },
            "--fan-in" => match num_arg(&mut it, "--fan-in") {
                Some(n) => fan_in = n,
                None => return ExitCode::FAILURE,
            },
            "--lanes" => match num_arg(&mut it, "--lanes") {
                Some(n) => lanes = n,
                None => return ExitCode::FAILURE,
            },
            "--execute" => execute = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => match common.accept(other, &mut it) {
                Common::Consumed => {}
                Common::Failed => return ExitCode::FAILURE,
                Common::Unrecognized => {
                    eprintln!("unknown synth option '{other}'\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if !common.check_applies("synth", &["--backend", "--seed"]) || !fits_budget(1, lanes, 0, 0) {
        return ExitCode::FAILURE;
    }
    let backend = common.backend;
    let expr = match (expr_text, table_text) {
        (Some(e), None) => fcsynth::Expr::parse(&e),
        (None, Some(t)) => fcsynth::Expr::parse_truth_table(&t),
        _ => {
            eprintln!("synth needs exactly one of --expr or --table\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let expr = match expr {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(cost) = load_cost_model(costs_path.as_deref()) else {
        return ExitCode::FAILURE;
    };
    let compiled = fcsynth::compile_expr(expr, &cost, fan_in);
    let naive = fcsynth::Mapper::naive(&cost).map(&compiled.circuit);
    let m = &compiled.mapping;
    println!(
        "inputs: {} ({})",
        compiled.circuit.inputs().len(),
        compiled.circuit.inputs().join(", ")
    );
    println!(
        "cost model: {} ({} entries)",
        cost.data().source,
        cost.data().entries.len()
    );
    println!(
        "optimized DAG: {} logic node(s)",
        compiled.circuit.live_ops()
    );
    println!("chosen mapping (fan-in limit {fan_in}):");
    for (op, width, count) in m.gate_summary() {
        println!("  {count:>4} x {op}{width}");
    }
    println!(
        "native ops:        {:>10}  (naive 2-input tree: {})",
        m.native_ops, naive.native_ops
    );
    println!(
        "expected success:  {:>9.4}%  (naive 2-input tree: {:.4}%)",
        m.expected_success * 100.0,
        naive.expected_success * 100.0
    );
    println!("latency:           {:>8.1} ns", m.latency_ns);
    println!("energy:            {:>8.1} pJ", m.energy_pj);
    if let Some(path) = asm_path {
        let emitter = fcsynth::BenderEmitter::default();
        match emitter.emit_asm(&m.program) {
            Ok(text) => {
                if let Err(e) = std::fs::write(&path, &text) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "wrote {path} ({} lines of bender asm)",
                    text.lines().count()
                );
            }
            Err(e) => {
                eprintln!("asm emission failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if execute {
        let n = compiled.circuit.inputs().len();
        // XORing the seed into the fixed operand key keeps the default
        // (--seed 0) draws byte-identical to the historical ones.
        let op_key = 0x5E17 ^ common.seed;
        let operands_for = |lanes: usize| -> Vec<fcdram::PackedBits> {
            (0..n)
                .map(|i| fcdram::PackedBits::seeded(op_key, i as u64, lanes))
                .collect()
        };
        // A constant expression has no operands; the reference is the
        // folded constant splatted across the lanes.
        let expect_for = |operands: &[fcdram::PackedBits], lanes: usize| {
            if n == 0 {
                fcdram::PackedBits::splat(compiled.expr.eval(&[]), lanes)
            } else {
                compiled.circuit.eval_packed(operands)
            }
        };
        match backend {
            fcexec::BackendKind::Vm => {
                use fcexec::ExecBackend;
                use simdram::{HostSubstrate, SimdVm};
                let capacity = (m.program.n_regs + n + 8).max(64);
                let mut vm = match SimdVm::new(HostSubstrate::new(lanes, capacity)) {
                    Ok(vm) => vm,
                    Err(e) => {
                        eprintln!("vm setup failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let operands = operands_for(lanes);
                let expect = expect_for(&operands, lanes);
                let prep = match vm.prepare(&m.program) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("prepare failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match vm.run_prepared(&prep, &operands, |_, _| {}) {
                    Ok(got) if got == expect => {
                        println!(
                            "executed on SimdVm<HostSubstrate>: {lanes} lanes, bit-exact vs \
                             reference"
                        );
                    }
                    Ok(got) => {
                        eprintln!(
                            "MISMATCH vs reference evaluator: {}/{} lanes agree",
                            got.count_matches(&expect),
                            lanes
                        );
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("execution failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            fcexec::BackendKind::Bender => {
                use fcexec::ExecBackend;
                // The device's lane count is its shared column half:
                // size the simulated part so it covers --lanes.
                let cfg = dram_core::config::table1()
                    .remove(0)
                    .with_modeled_cols((2 * lanes).max(16));
                let name = cfg.name.clone();
                let mut be = match fcexec::BenderBackend::from_config(cfg) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("bender backend setup failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let dev_lanes = be.lanes();
                let operands = operands_for(dev_lanes);
                let expect = expect_for(&operands, dev_lanes);
                let prep = match be.prepare(&m.program) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("prepare failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                // Priced on the prepared (narrowed) steps the part runs.
                let schedule_ns: f64 = prep
                    .program()
                    .steps
                    .iter()
                    .map(|s| be.step_latency_ns(s).unwrap_or(0.0))
                    .sum();
                match be.run_prepared(&prep, &operands, |_, _| {}) {
                    Ok(got) => {
                        println!(
                            "executed as {} combined command schedule(s) on simulated {name}: \
                             {}/{dev_lanes} lanes match the reference ({:.1}%), \
                             {schedule_ns:.0} ns cycle-accurate schedule latency",
                            be.native_ops(),
                            got.count_matches(&expect),
                            100.0 * got.count_matches(&expect) as f64 / dev_lanes.max(1) as f64,
                        );
                    }
                    Err(e) => {
                        eprintln!("command-schedule execution failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fleet") {
        return run_fleet_cli(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("synth") {
        return run_synth_cli(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve_cli(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("daemon") {
        return run_daemon_cli(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace_cli(args.split_off(1));
    }
    let mut ids: Vec<String> = Vec::new();
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json requires a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids.extend(ALL_IDS.iter().map(|s| s.to_string()));
    }
    for id in &ids {
        if !ALL_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment '{id}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let scale = if quick {
        Scale::quick()
    } else {
        Scale::standard()
    };
    eprintln!(
        "building fleet: 22 modules at {} columns/row, map budget {} pairs ...",
        scale.cols, scale.map_budget
    );
    let mut fleet = build_fleet(&scale, false);
    eprintln!(
        "fleet ready ({} modules). running: {}",
        fleet.len(),
        ids.join(", ")
    );

    let mut tables = Vec::new();
    for id in &ids {
        eprintln!("running {id} ...");
        match run_experiment(id, &mut fleet, &scale) {
            Some(t) => {
                println!("{}", t.render());
                tables.push(t);
            }
            None => unreachable!("ids validated above"),
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, to_json(&tables)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
