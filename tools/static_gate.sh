#!/usr/bin/env bash
# The full static-analysis gate in one command:
#
#   1. Clang build of the library with -Wthread-safety -Wthread-safety-beta
#      (promoted to errors by the repo-wide -Werror), verifying every
#      lock-capability contract in src/ — plus a grep proving no
#      NO_THREAD_SAFETY_ANALYSIS escape hatch crept in outside
#      common/thread_annotations.h.
#   2. clang-tidy over src/ with the checked-in .clang-tidy profile
#      (bugprone-*, clang-analyzer core/C++, concurrency checks).
#   3. The xqlint schema-analysis gate (all queries x all classes), the
#      --indexes access-path planning pass (index build + cost-based
#      probe selection over the sample database), plus one profiled
#      query run with XBENCH_TRACE_OUT set — json_check validates the
#      emitted report (profile consistency) and trace.
#   4. The ThreadSanitizer smoke suite with runtime lock-rank enforcement
#      on (tools/sanitize_smoke.sh, XBENCH_SANITIZE=thread), which also
#      traces its throughput sweep, schema-checks the trace and fails
#      unless some parallel region ran on the worker pool.
#   5. An ASan+UBSan (-fno-sanitize-recover=all) build of the fuzz
#      harnesses + differential oracle: the checked-in corpus and every
#      regression input replay through all four harnesses, a seeded
#      mutation round runs on top, and the generated-query oracle
#      cross-checks interpreter vs compiled plans vs CLOB per class,
#      cycling index availability (none / Table 3 / Table 3 + text) so
#      index-probing plans are differentially checked sanitized.
#   6. The plan-verifier sweep (xqlint --verify): every canned query of
#      every class compiled under all four access-path modes with
#      CompilationOptions.verify on, checked against the pinned
#      derived-property golden.
#   7. The repo-convention linter (tools/xbench_lint): raw std::mutex
#      use, DESIGN.md §9 <-> LockRank table drift, unregistered
#      xbench.* metric names, stale [[deprecated]] shims, and interpreter
#      calls (xquery::Evaluate / EvaluateQuery) in src/ outside
#      src/xquery/.
#   8. A -DCMAKE_BUILD_TYPE=Release build of the whole tree, so the
#      optimized build keeps compiling under the repo-wide -Werror (GCC's
#      -O3 inlining raises warnings the default build never sees).
#   9. The wall-clock MPL speed-up check, kept out of tier-1 because it
#      depends on free cores: the disabled
#      ThroughputDriverTest.DISABLED_WallClockSpeedupAtMpl4, run on
#      purpose from the Release build.
#
# Steps whose tool is not installed are skipped with a notice so the gate
# degrades on minimal images; set XBENCH_STATIC_GATE_STRICT=1 to turn a
# skip into a failure (CI images with the full toolchain should).
#
# Usage: tools/static_gate.sh [build-dir-prefix]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PREFIX="${1:-$ROOT/build-gate}"
STRICT="${XBENCH_STATIC_GATE_STRICT:-0}"

skip() {
  if [ "$STRICT" = "1" ]; then
    echo "static gate: MISSING $1 (strict mode)" >&2
    exit 1
  fi
  echo "static gate: skipping $2 ($1 not installed)"
}

# --- 1. Clang thread-safety build -------------------------------------
echo "static gate: [1/9] clang -Wthread-safety build"
if grep -RIn "NO_THREAD_SAFETY_ANALYSIS" "$ROOT/src" \
    | grep -v "common/thread_annotations.h" \
    | grep -v "XBENCH_THREAD_ANNOTATION__"; then
  echo "static gate: NO_THREAD_SAFETY_ANALYSIS used outside" \
       "common/thread_annotations.h" >&2
  exit 1
fi
if command -v clang++ > /dev/null; then
  cmake -B "$PREFIX-tsa" -S "$ROOT" \
        -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_C_COMPILER=clang
  cmake --build "$PREFIX-tsa" -j"$(nproc)" --target xbench
else
  skip clang++ "thread-safety analysis build"
fi

# --- 2. clang-tidy ----------------------------------------------------
echo "static gate: [2/9] clang-tidy"
if command -v clang-tidy > /dev/null; then
  cmake -B "$PREFIX-lint" -S "$ROOT"
  cmake --build "$PREFIX-lint" --target lint
else
  skip clang-tidy "lint target"
fi

# --- 3. xqlint analysis gate + profiled-query artifacts ---------------
echo "static gate: [3/9] xqlint --class all --query all + profiled query"
cmake -B "$PREFIX-host" -S "$ROOT"
cmake --build "$PREFIX-host" -j"$(nproc)" \
      --target xqlint bench_query json_check
"$PREFIX-host/tools/xqlint" --class all --query all
# Index build + cost-based access-path planning over the sample database
# (the golden for this output is checked by ctest; here it just has to
# succeed).
"$PREFIX-host/tools/xqlint" --explain --indexes --class all --query all \
  > /dev/null
XBENCH_REPORT="$PREFIX-host/gate_query_report.json" \
  XBENCH_TRACE_OUT="$PREFIX-host/gate_query_trace.json" \
  "$PREFIX-host/bench/bench_query" --query Q8 --profile > /dev/null
"$PREFIX-host/tools/json_check" --schema report \
  "$PREFIX-host/gate_query_report.json"
"$PREFIX-host/tools/json_check" --schema trace \
  "$PREFIX-host/gate_query_trace.json"

# --- 4. TSAN smoke with lock ranks ------------------------------------
echo "static gate: [4/9] tsan smoke (XBENCH_LOCK_RANKS=ON)"
XBENCH_SANITIZE=thread "$ROOT/tools/sanitize_smoke.sh" "$PREFIX-tsan"

# --- 5. ASan+UBSan fuzz replay + differential oracle -------------------
echo "static gate: [5/9] fuzz corpus replay + differential oracle" \
     "(address;undefined)"
cmake -B "$PREFIX-fuzz" -S "$ROOT" -DXBENCH_SANITIZE="address;undefined" \
      -DXBENCH_LOCK_RANKS=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$PREFIX-fuzz" -j"$(nproc)" \
      --target fuzz_xml_parser fuzz_dtd fuzz_xquery fuzz_json \
      plan_differential_fuzz
XBENCH_FUZZ_ITERS="${XBENCH_FUZZ_ITERS:-500}" "$ROOT/fuzz/run_smoke.sh" \
  "$ROOT/fuzz/corpus" "$ROOT/fuzz/regressions" \
  "$PREFIX-fuzz/fuzz/fuzz_xml_parser" "$PREFIX-fuzz/fuzz/fuzz_dtd" \
  "$PREFIX-fuzz/fuzz/fuzz_xquery" "$PREFIX-fuzz/fuzz/fuzz_json"
for class in tcsd tcmd dcsd dcmd; do
  "$PREFIX-fuzz/tools/plan_differential_fuzz" --class "$class" \
    --iters "${XBENCH_FUZZ_ITERS:-500}" --seed 42
done

# --- 6. Plan-verifier sweep against the pinned golden ------------------
echo "static gate: [6/9] xqlint --verify sweep"
"$PREFIX-host/tools/xqlint" --verify --class all --query all \
  > "$PREFIX-host/gate_verify_sweep.txt"
if ! cmp -s "$ROOT/tools/golden/xqlint_verify.txt" \
    "$PREFIX-host/gate_verify_sweep.txt"; then
  echo "static gate: verifier property-lattice drift vs" \
       "tools/golden/xqlint_verify.txt" >&2
  exit 1
fi

# --- 7. Repo-convention linter -----------------------------------------
echo "static gate: [7/9] xbench_lint"
cmake --build "$PREFIX-host" -j"$(nproc)" --target xbench_lint
"$PREFIX-host/tools/xbench_lint" --repo-root "$ROOT"

# --- 8. Release build of the whole tree --------------------------------
echo "static gate: [8/9] Release build"
cmake -B "$PREFIX-rel" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$PREFIX-rel" -j"$(nproc)"

# --- 9. Wall-clock MPL speed-up ----------------------------------------
echo "static gate: [9/9] wall-clock MPL-4 speed-up"
"$PREFIX-rel/tests/concurrency_tests" --gtest_also_run_disabled_tests \
  --gtest_filter='*WallClockSpeedup*'

echo "static gate: OK"
