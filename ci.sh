#!/usr/bin/env bash
# ci.sh — the checks a PR must pass, as six independently runnable legs.
#
#  tier1     full RelWithDebInfo build + the whole ctest suite
#            (FFQ_OBSERVE=OFF, the default — the zero-cost
#            configuration), then the bench smoke-regression gates:
#            bench_batch_ops runs in --quick mode and tools/bench_gate.py
#            fails the leg when the median row ratio against the
#            committed BENCH_batch_ops.json drops more than 25%
#            (tolerance rationale in bench_gate.py);
#            bench_telemetry_overhead --quick gates itself — it exits 1
#            when a row's enabled-policy median overhead over the
#            disabled policy in the same run is >= 5% and outside the
#            disabled runs' spread, so no other host's baseline skews
#            it — and finally the repository benchmark's self-test
#            (perfbench/run.py --selftest: exactly-once and FIFO output
#            checks on every workload, traced and untraced, plus the
#            drop/duplicate/swap corruption catches);
#  telemetry the same build + full suite with FFQ_OBSERVE=COUNTERS, so
#            the counting default observer stays green too;
#  trace     full build + suite with FFQ_OBSERVE=TRACE (counters plus
#            trace records from the same hooks), then an end-to-end run:
#            the traced MPMC trace_stress tool checks its own run
#            (exactly once, per-producer FIFO, one trace record per
#            operation, none dropped; exit 1 on a violation) and exports
#            a Perfetto trace, which Python's json module must load as
#            strict JSON (no NaN/Infinity) with schema "ffq.trace.v1";
#  tsan      the core queue + shard + telemetry suites rebuilt with
#            -fsanitize=thread (FFQ_OBSERVE=COUNTERS, so the instrumented
#            hot paths are the ones checked) and run to completion, plus
#            trace_stress as a multi-threaded race hunt that must also
#            pass its own verdict — halt_on_error=1 turns any reported
#            race into failure;
#  asan      the same binaries under -fsanitize=address,undefined
#            (-fno-sanitize-recover=all, so UB aborts too): buffer and
#            lifetime bugs the race hunt can't see; trace_stress's
#            verdict must pass here too;
#  check     FFQ_CHECK=ON build + full suite with live yield points,
#            then check_explore end to end over the code that ships:
#            delay-bounded DFS at bound 3 over every real queue shape
#            (polling and blocking consumers, the fabric and its stall
#            shape), a seeded schedule fuzz of every shape
#            (--queue all), and a mutation gate: each of the six
#            mutations must be caught at its bound, and its printed
#            witness must reproduce the same violation under --replay
#            (skip_line29_recheck twice: through the spmc claim and the
#            spsc private-head scan, the two consumers of its one site).
#            The leg prints the wall time of its check_explore steps.
#            The two steps cover both cell layouts: check_explore runs
#            each queue on its library default (packed spsc/spmc/waitable
#            cells and fabric shards, dedicated-line mpmc cells), while
#            the suite's tests/test_check.cpp pins layout_aligned for the
#            core queues.
#
# Usage: ./ci.sh [options] [jobs]
#   --leg NAME   run only this leg (repeatable, or comma-separated;
#                names: tier1 telemetry trace tsan asan check)
#   --fresh      wipe each selected leg's build directory first
#   --jobs N     parallel build/test jobs (default: nproc; bare numeric
#                positional argument still works)
#
# Each leg's build tree is reused across runs. Before reusing one, the
# leg's defining FFQ_* options are checked against the existing
# CMakeCache.txt; a stale cache (e.g. build-check configured while
# FFQ_CHECK was OFF, or a tree from before FFQ_OBSERVE existed, which
# has no FFQ_OBSERVE entry) is detected and reconfigured from scratch
# instead of silently testing the wrong configuration.
set -euo pipefail
cd "$(dirname "$0")"

ALL_LEGS=(tier1 telemetry trace tsan asan check)
LEGS=()
FRESH=0
JOBS="$(nproc)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --leg)
      [[ $# -ge 2 ]] || { echo "ci.sh: --leg needs a name" >&2; exit 2; }
      IFS=',' read -ra parts <<< "$2"
      LEGS+=("${parts[@]}")
      shift 2 ;;
    --leg=*)
      IFS=',' read -ra parts <<< "${1#--leg=}"
      LEGS+=("${parts[@]}")
      shift ;;
    --fresh) FRESH=1; shift ;;
    --jobs) JOBS="$2"; shift 2 ;;
    --jobs=*) JOBS="${1#--jobs=}"; shift ;;
    -h|--help) sed -n '/^set -euo/q;2,$p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    [0-9]*) JOBS="$1"; shift ;;  # legacy: ./ci.sh 8
    *) echo "ci.sh: unknown argument '$1' (see --help)" >&2; exit 2 ;;
  esac
done
[[ ${#LEGS[@]} -gt 0 ]] || LEGS=("${ALL_LEGS[@]}")
for leg in "${LEGS[@]}"; do
  [[ " ${ALL_LEGS[*]} " == *" $leg "* ]] ||
    { echo "ci.sh: unknown leg '$leg' (have: ${ALL_LEGS[*]})" >&2; exit 2; }
done

# Pick up ccache transparently when present (the GitHub workflow
# installs it); local runs without ccache are unaffected.
EXTRA_CMAKE_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  EXTRA_CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# configure <preset> <builddir> <VAR=VAL>...
# Reuses an existing build tree only when every leg-defining cache
# option still matches; otherwise (drift, or --fresh) reconfigures from
# an empty directory.
configure() {
  local preset="$1" dir="$2"; shift 2
  if [[ $FRESH -eq 1 ]]; then
    echo "--- $preset: --fresh, wiping $dir ---"
    rm -rf "$dir"
  elif [[ -f "$dir/CMakeCache.txt" ]]; then
    local kv var want have
    for kv in "$@"; do
      var="${kv%%=*}" want="${kv#*=}"
      have="$(sed -n "s/^${var}:[A-Z]*=//p" "$dir/CMakeCache.txt" | head -n 1)"
      if [[ "${have:-unset}" != "$want" ]]; then
        echo "--- $preset: cache drift ($var=${have:-unset}, want $want)," \
             "reconfiguring $dir from scratch ---"
        rm -rf "$dir"
        break
      fi
    done
  fi
  cmake --preset "$preset" "${EXTRA_CMAKE_ARGS[@]}" >/dev/null
}

leg_tier1() {
  configure default build \
    FFQ_OBSERVE=OFF FFQ_CHECK=OFF \
    FFQ_SANITIZE_THREAD=OFF FFQ_SANITIZE_ADDRESS=OFF
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
  echo "--- bench smoke gates: batch_ops vs BENCH_batch_ops.json, telemetry budget ---"
  ./build/bench/bench_batch_ops --quick \
    --json build/bench_batch_ops.quick.json
  python3 tools/bench_gate.py --baseline BENCH_batch_ops.json \
    --current build/bench_batch_ops.quick.json \
    --key queue,batch,consumers --metric items_per_sec --direction higher
  # Its own within-run overhead budget is the gate (exit 1 = over budget).
  ./build/bench/bench_telemetry_overhead --quick \
    --json build/bench_telemetry_overhead.quick.json
  echo "--- repository benchmark self-test (perfbench) ---"
  python3 perfbench/run.py --selftest
}

leg_telemetry() {
  configure telemetry build-telemetry FFQ_OBSERVE=COUNTERS
  cmake --build build-telemetry -j "$JOBS"
  ctest --test-dir build-telemetry --output-on-failure -j "$JOBS"
}

leg_trace() {
  configure trace build-trace FFQ_OBSERVE=TRACE
  cmake --build build-trace -j "$JOBS"
  ctest --test-dir build-trace --output-on-failure -j "$JOBS"
  echo "--- trace end-to-end: checked MPMC stress -> Perfetto export -> strict JSON ---"
  local trace_out="build-trace/ci_mpmc_trace.json"
  ./build-trace/tools/trace_stress --trace="$trace_out" \
    --producers=2 --consumers=2 --items=4000
  python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]), parse_constant=lambda c: sys.exit("not JSON: " + c))
sys.exit(0 if doc.get("schema") == "ffq.trace.v1" else "schema is %r" % doc.get("schema"))
' "$trace_out"
  echo "$trace_out: strict JSON, schema ffq.trace.v1"
}

# The binaries both sanitizer legs build and run: the scalar queue
# suites, the shard fabric suite, the wait/park paths, telemetry, and the
# Fig. 7 syscall service (its one thread scaffold shares captures across
# app and executor threads). test_fiber and test_check stay out: the
# fiber context switch (src/runtime/fiber.cpp) has no sanitizer fiber
# annotations, so the sanitizers cannot follow its stack changes.
SAN_TESTS=(test_spsc test_spmc test_mpmc test_shard test_waitable
           test_eventcount test_telemetry test_sgxsim)

leg_tsan() {
  configure tsan build-tsan FFQ_SANITIZE_THREAD=ON FFQ_OBSERVE=COUNTERS
  cmake --build build-tsan -j "$JOBS" \
    --target "${SAN_TESTS[@]}" trace_stress
  local t
  for t in "${SAN_TESTS[@]}"; do
    echo "--- $t (tsan) ---"
    TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/$t"
  done
  echo "--- trace_stress (tsan): MPMC contention as a race hunt ---"
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tools/trace_stress \
    --trace=build-tsan/tsan_stress_trace.json \
    --producers=2 --consumers=2 --items=20000
}

leg_asan() {
  configure asan build-asan FFQ_SANITIZE_ADDRESS=ON FFQ_OBSERVE=COUNTERS
  cmake --build build-asan -j "$JOBS" \
    --target "${SAN_TESTS[@]}" trace_stress
  local t
  for t in "${SAN_TESTS[@]}"; do
    echo "--- $t (asan+ubsan) ---"
    "./build-asan/tests/$t"
  done
  echo "--- trace_stress (asan+ubsan): MPMC stress for lifetime bugs ---"
  ./build-asan/tools/trace_stress \
    --trace=build-asan/asan_stress_trace.json \
    --producers=2 --consumers=2 --items=20000
}

leg_check() {
  configure check build-check FFQ_CHECK=ON FFQ_OBSERVE=OFF
  cmake --build build-check -j "$JOBS"
  ctest --test-dir build-check --output-on-failure -j "$JOBS"
  local ce=./build-check/tools/check_explore
  local explore_start=$SECONDS q
  echo "--- exhaustive: delay-bounded DFS, bound 3, over every queue shape ---"
  for q in spsc spmc mpmc waitable shard shard_stall \
           spsc_blocking spmc_blocking spmc_bulk mpmc_blocking; do
    "$ce" --queue "$q" --bound 3
  done
  echo "--- seeded fuzz: 10000 schedules over every queue shape ---"
  "$ce" --queue all --fuzz 10000 --seed 1
  echo "--- mutation gate: each mutation caught at its bound and replayed ---"
  local spec m b out sched violation rc
  for spec in publish_before_data:spmc_blocking:2 \
              skip_line29_recheck:spmc_blocking:2 \
              skip_line29_recheck:spsc_blocking:2 \
              claim_publishes_directly:mpmc_blocking:2 \
              gap_ignores_rank:mpmc_blocking:3 \
              claim_ignores_gap:mpmc_blocking:2 \
              throttle_ignores_rank_order:mpmc_blocking:2; do
    IFS=: read -r m q b <<< "$spec"
    out="build-check/mutation_${m}_$q.out"
    rc=0
    "$ce" --queue "$q" --mutate "$m" --bound "$b" > "$out" || rc=$?
    head -n 2 "$out"
    if [[ $rc -ne 1 ]]; then
      echo "ci.sh: FAIL — mutation $m was not caught on $q at bound $b"
      return 1
    fi
    violation=$(sed -n 2p "$out")
    sched=$(sed -n 's/^  schedule: //p' "$out")
    rc=0
    "$ce" --queue "$q" --mutate "$m" --replay "$sched" > "$out.replay" || rc=$?
    if [[ $rc -ne 1 ]] || [[ "$(sed -n 2p "$out.replay")" != "$violation" ]]; then
      echo "ci.sh: FAIL — the witness of $m did not reproduce its violation"
      return 1
    fi
    echo "$m: caught on $q at bound $b; the witness replays to it"
  done
  echo "check_explore steps: $((SECONDS - explore_start)) s"
}

TIMING_REPORT=()
for leg in "${LEGS[@]}"; do
  echo
  echo "=== leg: $leg ==="
  leg_start=$(date +%s)
  "leg_$leg"
  leg_secs=$(( $(date +%s) - leg_start ))
  TIMING_REPORT+=("$(printf '%-10s %4ds' "$leg" "$leg_secs")")
done

echo
echo "=== leg timings ==="
for line in "${TIMING_REPORT[@]}"; do echo "  $line"; done
echo "ci.sh: all selected legs passed (${LEGS[*]})"
