#!/usr/bin/env bash
# Sanitizer smoke job: builds the tree in a separate build dir with
# -DXBENCH_SANITIZE=$XBENCH_SANITIZE (default address) and runs the fast
# test binaries plus the xqlint gate under the sanitizer. Intended for
# CI / pre-release, not the default tier-1 loop (a full sanitized rebuild
# is too slow there).
#
# Supported modes: address (default), undefined (UBSan with
# -fno-sanitize-recover=all, so any UB aborts), "address;undefined"
# (combined), thread. The address/undefined modes also replay the fuzz
# corpus + regression inputs through all four harnesses and run the
# differential-fuzz oracle sanitized.
#
# XBENCH_SANITIZE=thread runs the tsan_smoke variant instead: the
# concurrency suite (sharded pool latches, per-thread I/O attribution,
# concurrent-vs-serial differential answers, the MPL throughput driver)
# plus a bench_throughput sweep, all under ThreadSanitizer.
#
# Usage: tools/sanitize_smoke.sh [build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SAN="${XBENCH_SANITIZE:-address}"
BUILD="${1:-$ROOT/build-$SAN}"

# Sanitized trees also run with lock-rank enforcement on by default, so
# every acquisition in the smoke suites is checked against the DESIGN.md
# §9 order (an out-of-rank acquisition aborts the run).
cmake -B "$BUILD" -S "$ROOT" -DXBENCH_SANITIZE="$SAN" \
      -DXBENCH_LOCK_RANKS=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo

if [ "$SAN" = "thread" ]; then
  # tsan_smoke: everything that takes locks or spawns threads, including
  # the lock-rank enforcer's own death tests and the secondary-index
  # suite (index DDL + probing statements racing inserts, deletes and
  # cold restarts inside concurrency_tests). The throughput sweep runs
  # with tracing on and the SLO gate armed (generously), so the
  # multi-lane tracer paths and the histogram-percentile gate are both
  # exercised under TSAN, and json_check validates the emitted trace.
  cmake --build "$BUILD" -j"$(nproc)" \
        --target concurrency_tests lock_rank_tests bench_throughput \
        json_check
  "$BUILD/tests/concurrency_tests"
  "$BUILD/tests/lock_rank_tests"
  # At the default TC/SD small scale the mix's step predicates and
  # where clauses are large enough to go wide, so concurrent sessions
  # race each other AND the shared worker pool's lanes, which is exactly
  # the interleaving TSAN is here to check. The step fails if no region
  # reached the pool.
  XBENCH_TRACE_OUT="$BUILD/tsan_throughput_trace.json" \
    XBENCH_REPORT="$BUILD/tsan_throughput_report.json" \
    "$BUILD/bench/bench_throughput" --mpl 1,4,8 --ops 4 \
    --slo-p99-millis 600000
  "$BUILD/tools/json_check" --schema trace \
    "$BUILD/tsan_throughput_trace.json"
  if ! grep -Eq '"xbench\.exec\.parallel_regions":[1-9]' \
      "$BUILD/tsan_throughput_report.json"; then
    echo "sanitize smoke ($SAN): no parallel region ran on the pool" >&2
    exit 1
  fi
  echo "sanitize smoke ($SAN): OK"
  exit 0
fi

cmake --build "$BUILD" -j"$(nproc)" \
      --target core_tests xquery_tests plan_tests system_tests xqlint \
      bench_query json_check parse_golden answer_hashes \
      fuzz_xml_parser fuzz_dtd fuzz_xquery fuzz_json plan_differential_fuzz

"$BUILD/tests/core_tests"
"$BUILD/tests/xquery_tests"
# Exec-layer coverage: the pull-based physical operators, the differential
# plan-vs-interpreter sweep and the plan cache all run fully sanitized.
"$BUILD/tests/plan_tests"
"$BUILD/tests/system_tests" --gtest_filter='*Analy*:InferredDtd*'
"$BUILD/tools/xqlint" --class all --query all
"$BUILD/tools/xqlint" --explain --class all --query all > /dev/null
# --indexes loads the sample database, builds the Table 3 value indexes
# plus the text index, and routes every eligible plan through the
# cost-based access-path selector — index build and probe planning both
# run sanitized.
"$BUILD/tools/xqlint" --explain --indexes --class all --query all > /dev/null
# One profiled query end to end under ASAN: per-operator timing, the
# phase profile, and the trace exporter all run sanitized; json_check
# then validates both emitted artifacts (report schema includes the
# self-time-vs-exec-time 5% consistency check).
XBENCH_REPORT="$BUILD/asan_query_report.json" \
  XBENCH_TRACE_OUT="$BUILD/asan_query_trace.json" \
  "$BUILD/bench/bench_query" --query Q8 --profile > /dev/null
"$BUILD/tools/json_check" --schema report "$BUILD/asan_query_report.json"
"$BUILD/tools/json_check" --schema trace "$BUILD/asan_query_trace.json"

# The parser golden sanitized: every corpus and regression input, whole
# and cut at seven points, so the arena-built trees and every parse-error
# path run under the sanitizer, and the output must still match.
"$BUILD/tools/parse_golden" "$ROOT/fuzz/corpus/xml" \
  "$ROOT/fuzz/regressions/xml" > "$BUILD/xml_parse_actual.txt"
cmp "$ROOT/tools/golden/xml_parse.txt" "$BUILD/xml_parse_actual.txt"

# The generator golden sanitized: every class at three sizes is written
# through xml::Writer under the sanitizer, and every document's size and
# hash must still match.
"$BUILD/tools/answer_hashes" --text > "$BUILD/datagen_text_actual.txt"
cmp "$ROOT/tools/golden/datagen_text.txt" "$BUILD/datagen_text_actual.txt"

# Fuzz corpus + regression inputs replayed through all four harnesses
# under the sanitizer, then a short deterministic mutation loop in each
# (fixed seed — two runs execute byte-identical inputs).
XBENCH_FUZZ_ITERS="${XBENCH_FUZZ_ITERS:-200}" "$ROOT/fuzz/run_smoke.sh" \
  "$ROOT/fuzz/corpus" "$ROOT/fuzz/regressions" \
  "$BUILD/fuzz/fuzz_xml_parser" "$BUILD/fuzz/fuzz_dtd" \
  "$BUILD/fuzz/fuzz_xquery" "$BUILD/fuzz/fuzz_json"

# Differential oracle sanitized: generated queries through interpreter,
# unguided plan, guided plan and the CLOB engine.
for class in tcsd tcmd dcsd dcmd; do
  "$BUILD/tools/plan_differential_fuzz" --class "$class" \
    --iters "${XBENCH_FUZZ_ITERS:-200}" --seed 42
done

echo "sanitize smoke ($SAN): OK"
