#ifndef XBENCH_OBS_METRIC_NAMES_H_
#define XBENCH_OBS_METRIC_NAMES_H_

/// Central registry of every `xbench.`-prefixed metric name (and name
/// prefix) the system emits. `tools/xbench_lint` enforces that any
/// `"xbench.…"` string literal in src/ or tools/ appears here verbatim,
/// so the full metric namespace is readable in one place and a typo'd
/// counter name fails the repo lint instead of silently splitting a
/// series. Names ending in '.' are prefixes completed at runtime
/// (per-diagnostic / per-operation suffixes).
///
/// Call sites keep passing the literal to MetricsRegistry::GetCounter —
/// these constants exist as the declaration of record (and for call
/// sites that prefer a symbol). Scratch names under `xbench.test.` are
/// exempt from registration.

namespace xbench::obs::metric_names {

// Static query analysis (DESIGN.md §7).
inline constexpr char kAnalysisDiagPrefix[] = "xbench.analysis.diag.";
inline constexpr char kAnalysisErrors[] = "xbench.analysis.errors";
inline constexpr char kAnalysisQueries[] = "xbench.analysis.queries";
inline constexpr char kAnalysisStepsResolved[] =
    "xbench.analysis.steps_resolved";
inline constexpr char kAnalysisWarnings[] = "xbench.analysis.warnings";

// Multi-client throughput driver (DESIGN.md §9).
inline constexpr char kConcurrencyPrefix[] = "xbench.concurrency.";
inline constexpr char kConcurrencyHashMismatches[] =
    "xbench.concurrency.hash_mismatches";
inline constexpr char kConcurrencyMaxSpeedup[] =
    "xbench.concurrency.max_speedup";
inline constexpr char kConcurrencyOps[] = "xbench.concurrency.ops";

// Simulated disk.
inline constexpr char kDiskBytesRead[] = "xbench.disk.bytes_read";
inline constexpr char kDiskBytesWritten[] = "xbench.disk.bytes_written";
inline constexpr char kDiskPageReads[] = "xbench.disk.page_reads";
inline constexpr char kDiskPageWrites[] = "xbench.disk.page_writes";

// Engine load paths.
inline constexpr char kEngineDocsLoaded[] = "xbench.engine.docs_loaded";
inline constexpr char kEngineRowsShredded[] = "xbench.engine.rows_shredded";

// Morsel-driven execution (DESIGN.md §12).
inline constexpr char kExecMorsels[] = "xbench.exec.morsels";
inline constexpr char kExecParallelRegions[] = "xbench.exec.parallel_regions";
inline constexpr char kExecWorkers[] = "xbench.exec.workers";

// Lock-rank enforcement (DESIGN.md §9).
inline constexpr char kLockAcquires[] = "xbench.lock.acquires";
inline constexpr char kLockViolations[] = "xbench.lock.violations";

// Native engine.
inline constexpr char kNativeDocsMaterialized[] =
    "xbench.native.docs_materialized";

// Compile-then-execute pipeline (DESIGN.md §8).
inline constexpr char kPlanAstCacheHits[] = "xbench.plan.ast_cache_hits";
inline constexpr char kPlanAstCacheMisses[] = "xbench.plan.ast_cache_misses";
inline constexpr char kPlanCacheHits[] = "xbench.plan.cache_hits";
inline constexpr char kPlanCacheMisses[] = "xbench.plan.cache_misses";
inline constexpr char kPlanCompiles[] = "xbench.plan.compiles";
inline constexpr char kPlanExecutions[] = "xbench.plan.executions";
inline constexpr char kPlanInvalidations[] = "xbench.plan.invalidations";
inline constexpr char kPlanRowsOut[] = "xbench.plan.rows_out";

// Buffer pool.
inline constexpr char kPoolEvictions[] = "xbench.pool.evictions";
inline constexpr char kPoolHits[] = "xbench.pool.hits";
inline constexpr char kPoolMisses[] = "xbench.pool.misses";
inline constexpr char kPoolWritebacks[] = "xbench.pool.writebacks";

// Static plan verification (DESIGN.md §14).
inline constexpr char kVerifyPlans[] = "xbench.verify.plans";
inline constexpr char kVerifyViolationsPrefix[] = "xbench.verify.violations.";
inline constexpr char kVerifyViolations[] = "xbench.verify.violations";

// Interpreter core.
inline constexpr char kXqueryNodesVisited[] = "xbench.xquery.nodes_visited";
inline constexpr char kXqueryOperatorEvals[] = "xbench.xquery.operator_evals";

}  // namespace xbench::obs::metric_names

#endif  // XBENCH_OBS_METRIC_NAMES_H_
