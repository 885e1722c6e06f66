#!/usr/bin/env bash
# Staged CI gate. Runs the selected stages even when an earlier one
# fails, times each, and prints a pass/fail/skipped summary table at
# the end (also written to target/tools/ci_summary.txt for CI
# artifact upload).
#
#   ./ci.sh                 full gate: build, test, synth, clippy,
#                           fmt, bench-check, determinism, docs,
#                           perfbench
#   ./ci.sh --quick         build + test only (other stages are
#                           reported as skipped)
#   ./ci.sh --stage NAME    run one stage (repeatable, and NAME may be
#                           a comma-separated list); NAME is one of:
#                           build test synth clippy fmt bench-check
#                           determinism docs perfbench. Unknown names
#                           error out listing the valid stages.
#
# Exit status is 0 iff every executed stage passed. Offline-safe: all
# dependencies are in-tree (crates/shims), no registry access needed.
set -uo pipefail
cd "$(dirname "$0")" || exit 1

ALL_STAGES=(build test synth clippy fmt bench-check determinism docs perfbench)
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

# End-to-end synthesis smoke: compile an expression with the
# reliability-aware mapper, execute it on the host-substrate SimdVm
# (verified bit-exact against the reference evaluator), and emit
# bender assembly.
synth_smoke() {
  mkdir -p target/tools
  cargo build --release -p characterize \
    && target/release/characterize synth \
         --expr '(a & b & c & d) ^ !(e | f | g)' \
         --execute --asm target/tools/ci_synth.asm
}

# Determinism gate: the fidelity invariant enforced byte-for-byte.
#   1. the scheduler, execution-backend, and fault-injection
#      equivalence suites;
#   2. a quick fleet sweep run twice with the same parameters — the
#      two JSON reports must be byte-identical (run-to-run
#      determinism);
#   3. a serve batch run on *each* execution backend (vm and bender)
#      with different shard counts — each backend's JSON report must
#      be byte-identical across shard counts (shard invariance at
#      both cost-model and command-schedule fidelity);
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
#      time only, never wall clock.
determinism() {
  mkdir -p target/tools
  cargo build --release -p characterize || return 1
  cargo test -q --test sched_equivalence || return 1
  cargo test -q --test exec_equivalence || return 1
  cargo test -q --test fault_equivalence || return 1
  cargo test -q --test obs_equivalence || return 1
  local bin=target/release/characterize
  "$bin" fleet --quick --chips 3 --shards 2 --json target/tools/det_fleet_a.json >/dev/null \
    && "$bin" fleet --quick --chips 3 --shards 2 --json target/tools/det_fleet_b.json >/dev/null \
    && cmp target/tools/det_fleet_a.json target/tools/det_fleet_b.json \
    || { echo "determinism: fleet sweep reports differ between runs" >&2; return 1; }
  local backend shards
  for backend in vm bender; do
    "$bin" serve --jobs 24 --chips 3 --shards 1 --seed 7 --lanes 64 --backend "$backend" \
        --json "target/tools/det_serve_${backend}_a.json" >/dev/null \
      && "$bin" serve --jobs 24 --chips 3 --shards 5 --seed 7 --lanes 64 --backend "$backend" \
           --json "target/tools/det_serve_${backend}_b.json" >/dev/null \
      && cmp "target/tools/det_serve_${backend}_a.json" "target/tools/det_serve_${backend}_b.json" \
      || { echo "determinism: $backend serve reports differ across shard counts" >&2; return 1; }
  done
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
  echo "determinism: fleet, serve, and faulted serve (vm + bender)" \
       "reports byte-identical; fleet-health ledger identical across shards and backends;" \
       "daemon session, trace JSON, and metrics replay byte-identically" \
       "(shards 1/5 x vm/bender)"
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

# The repo benchmark's own tests (perfbench/ is a standalone package
# outside the workspace, so `cargo test` at the root skips them):
# per-seed determinism, the pinned exact counts of every workload, and
# the BENCHMARK.json <-> code tables.
perfbench_tests() {
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
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
    clippy)      run_stage clippy cargo clippy --workspace --all-targets -- -D warnings ;;
    fmt)         run_stage fmt cargo fmt --all --check ;;
    bench-check) run_stage bench-check bench_check ;;
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
