#!/usr/bin/env bash
# Staged CI gate. Runs the selected stages even when an earlier one
# fails, times each, and prints a pass/fail/skipped summary table at
# the end (also written to target/tools/ci_summary.txt for CI
# artifact upload).
#
#   ./ci.sh                 full gate: build, test, synth, clippy,
#                           fmt, bench-check, surface, determinism,
#                           docs, perfbench (clippy and fmt also lint the
#                           perfbench/ package, which sits outside
#                           the workspace but compiles against it)
#   ./ci.sh --quick         build + test only (other stages are
#                           reported as skipped)
#   ./ci.sh --stage NAME    run one stage (repeatable, and NAME may be
#                           a comma-separated list); NAME is one of:
#                           build test synth clippy fmt bench-check
#                           surface determinism docs perfbench.
#                           Unknown names error out listing the
#                           valid stages.
#
# Exit status is 0 iff every executed stage passed. Offline-safe: all
# dependencies are in-tree (crates/shims), no registry access needed.
set -uo pipefail
cd "$(dirname "$0")" || exit 1

ALL_STAGES=(build test synth clippy fmt bench-check surface determinism docs perfbench)
SELECTED=()
QUICK=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --stage)
      shift
      if [[ $# -eq 0 ]]; then
        echo "--stage requires a name (one of: ${ALL_STAGES[*]})" >&2
        exit 2
      fi
      # Accept a comma-separated list; every name must be a known
      # stage — an unknown name errors out listing the valid stages
      # instead of silently running nothing.
      IFS=',' read -r -a names <<< "$1"
      if [[ ${#names[@]} -eq 0 ]]; then
        echo "--stage requires a name (one of: ${ALL_STAGES[*]})" >&2
        exit 2
      fi
      for name in "${names[@]}"; do
        ok=0
        for s in "${ALL_STAGES[@]}"; do
          [[ "$s" == "$name" ]] && ok=1
        done
        if [[ $ok -eq 0 ]]; then
          echo "unknown stage: '$name' (one of: ${ALL_STAGES[*]})" >&2
          exit 2
        fi
        SELECTED+=("$name")
      done
      ;;
    -h|--help)
      # Print the whole header comment (everything up to the first
      # non-comment line), so help never truncates as the header grows.
      sed -n '2,/^set /p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "unknown option: $1 (try --help)" >&2
      exit 2
      ;;
  esac
  shift
done
if [[ $QUICK -eq 1 && ${#SELECTED[@]} -gt 0 ]]; then
  echo "--quick and --stage are mutually exclusive" >&2
  exit 2
fi
if [[ $QUICK -eq 1 ]]; then
  SELECTED=(build test)
elif [[ ${#SELECTED[@]} -eq 0 ]]; then
  SELECTED=("${ALL_STAGES[@]}")
fi

STAGE_NAMES=()
STAGE_STATUS=()
STAGE_SECS=()
FAILED=0

run_stage() {
  local name="$1"
  shift
  echo
  echo "==> [$name] $*"
  local start=$SECONDS
  if "$@"; then
    STAGE_STATUS+=("ok")
  else
    STAGE_STATUS+=("FAIL")
    FAILED=1
  fi
  STAGE_NAMES+=("$name")
  STAGE_SECS+=($((SECONDS - start)))
}

skip_stage() {
  STAGE_NAMES+=("$1")
  STAGE_STATUS+=("skipped")
  STAGE_SECS+=(0)
}

# Guards the *committed* bench artifacts: fails when any gated entry
# of BENCH_engine.json / BENCH_synth.json / BENCH_sched.json /
# BENCH_exec.json / BENCH_faults.json / BENCH_daemon.json /
# BENCH_obs.json regresses >20% against tools/bench_baseline.json —
# deterministic count entries (mapped ops, batch shape, backend
# parity, degradation ledger, daemon admission ledger, observability
# artifact shape) are exact-gated in both directions (all problems
# are listed, not just the first). It does not re-run the benchmarks
# — a fresh regression is caught when the artifacts are next
# regenerated
# (`cargo bench -p fcdram-bench --bench ablation_engine` /
# `ablation_synth` / `ablation_sched` / `ablation_exec` /
# `ablation_faults` / `ablation_daemon` / `ablation_obs`).
bench_check() {
  mkdir -p target/tools
  rustc -O --edition 2021 tools/bench_check.rs -o target/tools/bench_check \
    && target/tools/bench_check
}

# Public-surface ratchet: fails when a crate under crates/ has a `pub`
# item that no file outside the crate names and that
# tools/surface_allowlist.txt does not list, or when a listed item is
# gone or has gained an outside user — so the crate-local public
# surface can only shrink (tools/surface_check.rs says how it scans).
surface_check() {
  mkdir -p target/tools
  rustc -O --edition 2021 tools/surface_check.rs -o target/tools/surface_check \
    && target/tools/surface_check
}

# Fails unless the output `$1` has the exact line `$2`.
expect_line() {
  if ! grep -qxF -- "$2" <<< "$1"; then
    echo "missing line: $2" >&2
    return 1
  fi
}

# Fails unless the SHA-256 of stdin is the digest in $2; $1 names the
# bytes in the message.
expect_sha256() {
  local got
  got=$(sha256sum | cut -d' ' -f1)
  if [[ "$got" != "$2" ]]; then
    echo "$1: sha256 $got, expected $2" >&2
    return 1
  fi
}

# End-to-end synthesis smoke: compile an expression with the
# reliability-aware mapper, execute it on the host-substrate SimdVm
# (verified bit-exact against the reference evaluator), and emit
# bender assembly; then run that expression and the paper's 16-input
# AND headline shape through the command-schedule backend, whose
# prepare/run path must print its exact schedule count, lane match
# and cycle-accurate latency (the device model is deterministic).
synth_smoke() {
  mkdir -p target/tools
  local out
  cargo build --release -p characterize \
    && target/release/characterize synth \
         --expr '(a & b & c & d) ^ !(e | f | g)' \
         --execute --asm target/tools/ci_synth.asm || return 1
  out=$(target/release/characterize synth --backend bender \
         --expr '(a & b & c & d) ^ !(e | f | g)' --execute) || return 1
  expect_line "$out" "executed as 5 combined command schedule(s) on simulated \
hynix-4Gb-M-2666-#0: 208/256 lanes match the reference (81.2%), 2745 ns cycle-accurate \
schedule latency" || return 1
  out=$(target/release/characterize synth --backend bender \
         --expr 'a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p' --execute) || return 1
  expect_line "$out" "executed as 1 combined command schedule(s) on simulated \
hynix-4Gb-M-2666-#0: 255/256 lanes match the reference (99.6%), 2025 ns cycle-accurate \
schedule latency"
}

# Determinism gate: the fidelity invariant enforced byte-for-byte.
#   1. the scheduler, execution-backend, fault-injection and
#      observability equivalence suites, plus the digest pins of the
#      DRAM circuits and the prepared device path
#      (`tests/circuit_golden.rs`, `tests/predicted_success_golden.rs`);
#   2. a quick fleet sweep run at 1 and at 3 shards — the two JSON
#      reports must be byte-identical (the sweep report does not
#      depend on the shard count) except for the count itself, which
#      the tables' note names ("swept over K shard(s)"); a second run
#      at 3 shards must match the first byte for byte, note included
#      (run-to-run determinism);
#   3. a serve batch run on *each* execution backend (vm and bender)
#      with different shard counts — each backend's JSON report must
#      be byte-identical across shard counts (shard invariance at
#      both cost-model and command-schedule fidelity) — plus a vm
#      serve in the shape of the benchmark's `batch_wide` workload
#      (48 jobs, 12 chips, 4096 lanes) at shards 1 and 5, where
#      fusion groups span members and every chunk reuses its plans
#      and its per-lane-count VM across many groups;
#   4. the same serve under the demo fault plan (disturbance
#      mitigation, derated success, one scripted mid-session chip
#      dropout): each backend's faulted report must stay
#      byte-identical across shard counts, and the fleet-health
#      ledger must be byte-identical across *all four* runs — shards
#      and backends — because the planner derives it from
#      (fleet, batch, policy) alone;
#   5. a recorded daemon session replayed at shards 1 and 5 on both
#      execution backends: all four replayed reports must be
#      byte-identical to the live run's report, because the daemon
#      report is a pure function of (session log, fleet, cost model) —
#      wall-clock throughput never enters it;
#   6. the same recorded session traced and metered (the demo fault
#      scenario, so fault instants appear): the Chrome trace JSON and
#      the Prometheus-style metrics exposition of every replay must
#      be byte-identical to the live run's — determinism invariant #4
#      (docs/OBSERVABILITY.md): observability artifacts are modeled
#      time only, never wall clock;
#   7. the quick full-paper report (`characterize all --quick --json`)
#      run twice: the two JSON reports must be byte-identical. It is
#      the one report that runs the characterization ops and
#      `simdram` circuits on `DramSubstrate` (the `arith` table, with
#      5-fold voting);
#   8. the last accepted bytes, not only the previous run's: the
#      SHA-256 of that quick paper report and of the 1-shard quick
#      fleet report (shard note normalized as in 2) must equal the
#      digests recorded at commit 30a5743. A change that moves either
#      report is a deliberate re-baseline that updates them here;
#   9. every example under examples/ built and run once: the SHA-256
#      of each one's stdout must equal the digest recorded below
#      (captured at commit f843d58, identical across runs). The
#      examples drive the library's public surface end to end — the
#      bulk engine, the gate calls, simdram and fcsynth — so a change
#      that moves their output is a deliberate re-baseline that
#      updates the digest here.
determinism() {
  mkdir -p target/tools
  cargo build --release -p characterize || return 1
  cargo test -q --test sched_equivalence || return 1
  cargo test -q --test exec_equivalence || return 1
  cargo test -q --test fault_equivalence || return 1
  cargo test -q --test obs_equivalence || return 1
  cargo test -q --test circuit_golden --test predicted_success_golden || return 1
  local bin=target/release/characterize
  "$bin" fleet --quick --chips 3 --shards 1 --json target/tools/det_fleet_s1.json >/dev/null \
    && "$bin" fleet --quick --chips 3 --shards 3 --json target/tools/det_fleet_s3a.json >/dev/null \
    && "$bin" fleet --quick --chips 3 --shards 3 --json target/tools/det_fleet_s3b.json >/dev/null \
    || { echo "determinism: fleet sweep failed" >&2; return 1; }
  cmp target/tools/det_fleet_s3a.json target/tools/det_fleet_s3b.json \
    || { echo "determinism: fleet sweep reports differ between runs" >&2; return 1; }
  local shard_note='s/swept over [0-9]* shard(s)/swept over K shard(s)/'
  cmp <(sed "$shard_note" target/tools/det_fleet_s1.json) \
      <(sed "$shard_note" target/tools/det_fleet_s3a.json) \
    || { echo "determinism: fleet sweep reports differ across shard counts" >&2; return 1; }
  local backend shards
  for backend in vm bender; do
    "$bin" serve --jobs 24 --chips 3 --shards 1 --seed 7 --lanes 64 --backend "$backend" \
        --json "target/tools/det_serve_${backend}_a.json" >/dev/null \
      && "$bin" serve --jobs 24 --chips 3 --shards 5 --seed 7 --lanes 64 --backend "$backend" \
           --json "target/tools/det_serve_${backend}_b.json" >/dev/null \
      && cmp "target/tools/det_serve_${backend}_a.json" "target/tools/det_serve_${backend}_b.json" \
      || { echo "determinism: $backend serve reports differ across shard counts" >&2; return 1; }
  done
  for shards in 1 5; do
    "$bin" serve --jobs 48 --chips 12 --lanes 4096 --seed 7 --shards "$shards" --backend vm \
        --json "target/tools/det_serve_wide_s${shards}.json" >/dev/null \
      || { echo "determinism: wide serve (shards=$shards) failed" >&2; return 1; }
  done
  cmp target/tools/det_serve_wide_s1.json target/tools/det_serve_wide_s5.json \
    || { echo "determinism: wide serve reports differ across shard counts" >&2; return 1; }
  for backend in vm bender; do
    "$bin" serve --jobs 24 --chips 3 --shards 1 --seed 7 --lanes 64 --backend "$backend" \
        --faults demo --json "target/tools/det_faults_${backend}_a.json" \
        --health-json "target/tools/det_health_${backend}_a.json" >/dev/null \
      && "$bin" serve --jobs 24 --chips 3 --shards 5 --seed 7 --lanes 64 --backend "$backend" \
           --faults demo --json "target/tools/det_faults_${backend}_b.json" \
           --health-json "target/tools/det_health_${backend}_b.json" >/dev/null \
      && cmp "target/tools/det_faults_${backend}_a.json" "target/tools/det_faults_${backend}_b.json" \
      || { echo "determinism: $backend faulted serve reports differ across shard counts" >&2; return 1; }
  done
  cmp target/tools/det_health_vm_a.json target/tools/det_health_vm_b.json \
    && cmp target/tools/det_health_vm_a.json target/tools/det_health_bender_a.json \
    && cmp target/tools/det_health_vm_a.json target/tools/det_health_bender_b.json \
    || { echo "determinism: fleet-health ledger differs across shards/backends" >&2; return 1; }
  "$bin" daemon --demo --ticks 12 --chips 12 --record target/tools/det_session.json \
      --json target/tools/det_daemon_live.json \
      --trace-json target/tools/det_trace_live.json \
      --metrics target/tools/det_metrics_live.prom >/dev/null 2>&1 \
    || { echo "determinism: daemon demo session failed to record" >&2; return 1; }
  for backend in vm bender; do
    for shards in 1 5; do
      "$bin" daemon --replay target/tools/det_session.json --shards "$shards" \
          --backend "$backend" \
          --json "target/tools/det_daemon_${backend}_s${shards}.json" \
          --trace-json "target/tools/det_trace_${backend}_s${shards}.json" \
          --metrics "target/tools/det_metrics_${backend}_s${shards}.prom" >/dev/null 2>&1 \
        && cmp target/tools/det_daemon_live.json \
               "target/tools/det_daemon_${backend}_s${shards}.json" \
        || { echo "determinism: daemon replay (backend=$backend shards=$shards) differs from the live report" >&2; return 1; }
      cmp target/tools/det_trace_live.json \
          "target/tools/det_trace_${backend}_s${shards}.json" \
        || { echo "determinism: trace JSON (backend=$backend shards=$shards) differs from the live trace" >&2; return 1; }
      cmp target/tools/det_metrics_live.prom \
          "target/tools/det_metrics_${backend}_s${shards}.prom" \
        || { echo "determinism: metrics exposition (backend=$backend shards=$shards) differs from the live run" >&2; return 1; }
    done
  done
  "$bin" all --quick --json target/tools/det_all_a.json >/dev/null \
    && "$bin" all --quick --json target/tools/det_all_b.json >/dev/null \
    || { echo "determinism: quick paper report failed" >&2; return 1; }
  cmp target/tools/det_all_a.json target/tools/det_all_b.json \
    || { echo "determinism: quick paper reports differ between runs" >&2; return 1; }
  expect_sha256 "quick paper report" \
      1ccaa57560db030b9ad54630f4ced2e483f0d7bdb4334c60908c3f69a4072d8e \
      < target/tools/det_all_a.json || return 1
  sed "$shard_note" target/tools/det_fleet_s1.json \
    | expect_sha256 "quick fleet report" \
        2dc8db9765c2a100923cbb2ba7c914d7e33d189e88452a06e91e4d3bb7eb8e75 || return 1
  cargo build --release --examples || return 1
  local example digest
  while read -r example digest; do
    "target/release/examples/$example" \
      | expect_sha256 "example $example stdout" "$digest" || return 1
  done <<'DIGESTS'
bitmap_scan 5a75cc35b9ecbedd8ec769409740acf344db161dba9fab69d5c888cebcdf0280
energy_comparison 390ed4d62a1fd11479406ba6a472a12d81fb5ec50b5c288af0e5e22ae456b357
in_dram_trng 1aee96ab499223a8505c2cba629206084544a2f857948f17166c253518e47fcd
quickstart 4e674d6f82fc4eeb4d5bf9f24b4091450ea664df2fc4c55d389b035ded681c32
reliability_explorer ff5e5991bd88b4e062affaeb1ff25d5bd7a3b7fc8883c5d55fea560e40e34c70
reverse_engineer 64bdfb43d73b054564cf68cb3f4ece1370cddd8725a073642818df0e06c23814
similarity_search 4fe46ff8b5f08d340caabd02456482c570e4c106458484bdf32f9308b5db7b49
synth_logic ad39689c8c2949c5a59c6bd2c6a7537e3ae5d27c3c1229857446f0a51a170d86
vector_arithmetic 0ffc694aff2a277921c3702136f6aa593604701db1458e5ed5271f6191804c0d
DIGESTS
  echo "determinism: fleet, serve, wide serve, and faulted serve (vm + bender)" \
       "reports byte-identical; fleet-health ledger identical across shards and backends;" \
       "daemon session, trace JSON, and metrics replay byte-identically" \
       "(shards 1/5 x vm/bender); quick paper report byte-identical across runs;" \
       "quick paper and fleet reports and every example's stdout match their recorded digests"
}

# Docs gate, two halves:
#   1. CLI reference drift: every `--flag` mentioned in docs/CLI.md
#      must appear in `characterize --help`, and every flag the binary
#      advertises must be documented — a flag added, renamed, or
#      removed on either side fails until both agree;
#   2. API docs: `cargo doc --no-deps` with rustdoc warnings promoted
#      to errors, so broken intra-doc links and malformed rustdoc
#      fail the gate.
docs_check() {
  mkdir -p target/tools
  cargo build --release -p characterize || return 1
  target/release/characterize --help \
    | grep -oE '\-\-[a-z-]+' | sort -u > target/tools/docs_help_flags.txt
  grep -oE '`--[a-z-]+' docs/CLI.md \
    | tr -d '`' | sort -u > target/tools/docs_md_flags.txt
  local undocumented documented_only
  undocumented=$(comm -23 target/tools/docs_help_flags.txt target/tools/docs_md_flags.txt)
  documented_only=$(comm -13 target/tools/docs_help_flags.txt target/tools/docs_md_flags.txt)
  if [[ -n "$undocumented" ]]; then
    echo "docs: flags in 'characterize --help' missing from docs/CLI.md:" >&2
    echo "$undocumented" >&2
    return 1
  fi
  if [[ -n "$documented_only" ]]; then
    echo "docs: flags in docs/CLI.md that 'characterize --help' does not advertise:" >&2
    echo "$documented_only" >&2
    return 1
  fi
  echo "docs: $(wc -l < target/tools/docs_help_flags.txt) CLI flags consistent between --help and docs/CLI.md"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

# Lint gates over the workspace and the benchmark package: perfbench/
# is outside the workspace, so the workspace-wide commands skip it,
# yet it compiles against the APIs the workspace crates export.
clippy_check() {
  cargo clippy --workspace --all-targets -- -D warnings \
    && cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
}

fmt_check() {
  cargo fmt --all --check \
    && cargo fmt --manifest-path perfbench/Cargo.toml --all --check
}

# Fails unless the traced perfbench report `$1` prints every exact
# `name=value` pair given after it.
expect_counts() {
  local out=$1 want name value got
  shift
  for want in "$@"; do
    name=${want%%=*}
    value=${want#*=}
    got=$(awk -v n="$name" '$1 == n && $2 == "=" { print $3 }' <<< "$out")
    if [[ "$got" != "$value" ]]; then
      echo "perfbench: $name = '$got', expected $value" >&2
      return 1
    fi
  done
}

# The repo benchmark's own tests (perfbench/ is a standalone package
# outside the workspace, so `cargo test` at the root skips them):
# per-seed determinism, the pinned exact counts of every workload, and
# the BENCHMARK.json <-> code tables. Then traced 1 s runs must report
# exact values, each workload at seed 1 and sweep_fleet also at seed 13:
#   - device_exec: mismatched result bits per backend, native ops,
#     engine visits, gate programs per plan and arena slots (a kernel
#     rewrite that moves any of them changed what the device model
#     computes or how plans are shaped);
#   - sweep_fleet: cells and conditions swept, failures, and the NOT
#     and logic success means (the sweep runs `Frac` and every
#     kernel under full telemetry, so a change to what the device
#     model stores or records moves them), at seed 1 and again at
#     seed 13 (a second fleet population, values recorded at
#     commit 2aca089);
#   - batch_wide: fused jobs, retries, remaps, failed jobs, native ops
#     and engine visits of the first batch cycle (a planner or
#     executor change that moves a placement, an admission or a
#     fusion group moves them);
#   - daemon_mix: the daemon's admitted, shed, rejected and narrowed
#     jobs, its batches, retries, native ops and engine visits (the
#     same for the serving session's admission and planning).
perfbench_tests() {
  cargo test --release --offline --manifest-path perfbench/Cargo.toml || return 1
  local out
  out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload device_exec --seed 1 --seconds 1 --trace 1) || return 1
  expect_counts "$out" \
    dram_core.mismatched_bits.vm_dram=5580 dram_core.mismatched_bits.bender=5580 \
    fcexec.native_ops=30 fcexec.engine_visits=11 fcexec.templates=19 \
    fcexec.arena_slots=125 || return 1
  out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload sweep_fleet --seed 1 --seconds 1 --trace 1) || return 1
  expect_counts "$out" \
    characterize.cells=3171840 characterize.conditions=2000 characterize.failures=0 \
    fcdram.not_success_mean=0.7092738855804632 \
    fcdram.logic_success_mean=0.9587421165370428 || return 1
  out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload sweep_fleet --seed 13 --seconds 1 --trace 1) || return 1
  expect_counts "$out" \
    characterize.cells=3171840 characterize.conditions=2000 characterize.failures=0 \
    fcdram.not_success_mean=0.6933982488272717 \
    fcdram.logic_success_mean=0.9528716440383534 || return 1
  out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload batch_wide --seed 1 --seconds 1 --trace 1) || return 1
  expect_counts "$out" \
    fcsched.fused_jobs=80 fcsched.retries=19 fcsched.remapped=0 fcsched.failed_jobs=0 \
    fcexec.native_ops=880 fcexec.engine_visits=192 || return 1
  out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload daemon_mix --seed 1 --seconds 1 --trace 1) || return 1
  expect_counts "$out" \
    fcserve.admitted=1084 fcserve.shed=42 fcserve.rejected=192 fcserve.narrowed=123 \
    fcsched.batches=97 fcsched.retries=112 fcexec.native_ops=3728 \
    fcexec.engine_visits=1084 || return 1
  echo "perfbench: device_exec, sweep_fleet (seeds 1 and 13), batch_wide and daemon_mix" \
       "seed 1 exact values match"
}

wants() {
  local s
  for s in "${SELECTED[@]}"; do
    [[ "$s" == "$1" ]] && return 0
  done
  return 1
}

for stage in "${ALL_STAGES[@]}"; do
  if ! wants "$stage"; then
    skip_stage "$stage"
    continue
  fi
  case "$stage" in
    build)       run_stage build cargo build --release ;;
    test)        run_stage test cargo test -q ;;
    synth)       run_stage synth synth_smoke ;;
    clippy)      run_stage clippy clippy_check ;;
    fmt)         run_stage fmt fmt_check ;;
    bench-check) run_stage bench-check bench_check ;;
    surface)     run_stage surface surface_check ;;
    determinism) run_stage determinism determinism ;;
    docs)        run_stage docs docs_check ;;
    perfbench)   run_stage perfbench perfbench_tests ;;
  esac
done

mkdir -p target/tools
SUMMARY=target/tools/ci_summary.txt
{
  echo "== CI summary =="
  printf '%-12s %-8s %s\n' stage status seconds
  printf '%-12s %-8s %s\n' ----- ------ -------
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-12s %-8s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_STATUS[$i]}" "${STAGE_SECS[$i]}"
  done
} | tee "$SUMMARY"
echo
if [[ $FAILED -ne 0 ]]; then
  echo "CI FAILED" | tee -a "$SUMMARY"
  exit 1
fi
echo "CI OK (skipped stages listed above, if any)" | tee -a "$SUMMARY"
