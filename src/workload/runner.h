#ifndef XBENCH_WORKLOAD_RUNNER_H_
#define XBENCH_WORKLOAD_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/status.h"
#include "datagen/generator.h"
#include "engines/dbms.h"
#include "workload/queries.h"
#include "xquery/ast.h"
#include "xquery/exec/exec.h"

namespace xbench::workload {

/// Every engine kind, in the paper's row order.
const std::vector<engines::EngineKind>& AllEngines();

/// Engine factory. Delegates to engines::EngineRegistry::Default(), which
/// also resolves engines by string name for --engine flags.
std::unique_ptr<engines::XmlDbms> MakeEngine(engines::EngineKind kind);

/// Converts generated documents to bulk-load form.
std::vector<engines::LoadDocument> ToLoadDocuments(
    const datagen::GeneratedDatabase& db);

/// Buffer-pool and disk activity attributed to one measured operation.
struct IoStats {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_writebacks = 0;
  uint64_t disk_page_reads = 0;
  uint64_t disk_page_writes = 0;
  uint64_t disk_bytes_read = 0;
  uint64_t disk_bytes_written = 0;
};

/// Absolute counter values for `engine`'s pool + disk: engine-lifetime
/// totals across all sessions. For attributing I/O to one operation under
/// concurrency, use ThreadIoSnapshot() deltas instead.
IoStats CaptureIoStats(const engines::XmlDbms& engine);

/// The calling thread's attributed pool/disk activity so far (see
/// common/thread_io.h). Deltas between two snapshots cover exactly the
/// work this thread did in between — other sessions' traffic and
/// ColdRestart calls cannot perturb them.
IoStats ThreadIoSnapshot();

/// Virtual I/O time charged by the calling thread so far (milliseconds).
double ThreadIoMillis();

/// Per-field difference `after - before`.
IoStats IoStatsDelta(const IoStats& before, const IoStats& after);

/// Common outcome of one measured engine operation (a bulk load, a query
/// execution): status plus the cpu/io time split and the I/O attributed
/// to the operation.
struct OpOutcome {
  Status status;
  /// Wall time spent by the operation. The simulated disk adds no wall
  /// time; its latency is charged separately as io_millis.
  double cpu_millis = 0;
  /// Simulated disk time charged during the operation.
  double io_millis = 0;
  /// Pool/disk traffic attributed to the operation.
  IoStats io;

  double TotalMillis() const { return cpu_millis + io_millis; }
};

/// Load outcomes carry nothing beyond the common fields.
using TimedStatus = OpOutcome;

/// Bulk-loads `db` into `engine` (timed) — the Table 4 measurement.
TimedStatus BulkLoad(engines::XmlDbms& engine,
                     const datagen::GeneratedDatabase& db);

/// Creates the class's Table 3 value indexes (untimed in the paper's
/// tables, done after load).
Status CreateTable3Indexes(engines::XmlDbms& engine,
                           datagen::DbClass db_class);

/// Per-execution knobs for running one benchmark query.
struct RunOptions {
  /// Cold-restart the engine before the timed region (paper §3.1 cold-run
  /// methodology). Warm runs reuse whatever the pool and document caches
  /// hold.
  bool cold = true;
  /// Copy the run's per-operator counters into ExecutionResult::plan_stats
  /// (native compiled path).
  bool collect_plan_stats = true;
  /// Collect phase-boundary timings into ExecutionResult::profile
  /// (native engine path).
  bool profile = false;
  /// Structured compilation options for the native compiled path:
  /// access-path policy (auto / force-guided / force-scan /
  /// force-index) and cost-model knobs. The plan cache keys on the mode +
  /// catalog epoch, so differently-optioned plans coexist in the statement
  /// cache.
  xquery::plan::CompilationOptions compile;
};

/// Phase-boundary timings for one statement, native engine path. Compile
/// phases are measured outside the timed region (statement-prepare work)
/// and are zero on a plan-cache hit; `exec_millis` is the operator-tree
/// wall time (per-operator self times sum to it), `engine_millis` the
/// whole engine call around it (adds binding/materialization work), and
/// `serialize_millis` the result text rendering after the engine call.
struct QueryProfile {
  bool collected = false;
  double parse_millis = 0;
  double analyze_millis = 0;
  double plan_millis = 0;
  bool compile_cache_hit = false;
  double engine_millis = 0;
  double exec_millis = 0;
  double serialize_millis = 0;
};

struct ExecutionResult : OpOutcome {
  std::vector<std::string> lines;  // canonical answer, one line per item
  /// Compiled-plan path (native engine): `compiled` is set when the timed
  /// region executed a physical plan, `plan_cache_hit` when that plan came
  /// from the engine's statement cache instead of being compiled for this
  /// run, and `plan_stats` carries the run's per-operator counters in plan
  /// pre-order.
  bool compiled = false;
  bool plan_cache_hit = false;
  /// The compiled plan's one-line access-path decision summary (comma-
  /// joined probe choices such as "IndexScan(item_id)", or
  /// "guided-walk"/"full-scan"); empty on non-compiled paths. Reports
  /// surface this next to the per-operator estimated-vs-actual rows.
  std::string access_path;
  xquery::exec::ExecStats plan_stats;
  /// Filled when RunOptions::profile was set (native path).
  QueryProfile profile;
};

/// Parses `xquery` and type-checks it against the canonical schema of
/// `db_class` (see analysis::CanonicalClassSchema). Returns the parsed
/// AST or
/// InvalidArgument when the query references names/axes the class DTD can
/// never satisfy. The native engine path runs every canned query through
/// this before the timed region, so a query against the wrong class
/// surfaces a hard error instead of a silently empty answer.
Result<xquery::ExprPtr> AnalyzeForClass(const std::string& xquery,
                                        datagen::DbClass db_class);

/// An analyzed query: the AST together with the analysis report whose
/// `annotations` the planner consumes. The annotations are keyed by AST
/// node identity, so the pair must travel (and stay alive) together.
struct AnalyzedQuery {
  xquery::ExprPtr ast;
  analysis::AnalysisReport report;
};

/// Like AnalyzeForClass, but also hands back the analysis report so a
/// compile phase can feed `report.annotations` to plan::Compile. When the
/// timing out-params are non-null they receive the parse and analyze
/// phase wall times (for QueryProfile).
Result<AnalyzedQuery> AnalyzeForClassFull(const std::string& xquery,
                                          datagen::DbClass db_class,
                                          double* parse_millis = nullptr,
                                          double* analyze_millis = nullptr);

/// Executes query `id` against `engine` for class `db_class`. Convenience
/// wrapper over a one-shot workload::Session (see workload/session.h);
/// multi-statement clients and concurrent clients should hold a Session.
ExecutionResult RunQuery(engines::XmlDbms& engine, QueryId id,
                         datagen::DbClass db_class, const QueryParams& params,
                         const RunOptions& options = {});

/// Canonicalizes answer lines for cross-engine comparison under the
/// query's AnswerShape (sorts kValueSet shapes, trims empties).
std::vector<std::string> CanonicalizeAnswer(QueryId id,
                                            std::vector<std::string> lines);

/// FNV-1a 64-bit hash of the canonicalized answer ('\n'-joined). Stored in
/// run reports so perf trajectories can assert answers did not change.
uint64_t AnswerHash(const std::vector<std::string>& lines);

}  // namespace xbench::workload

#endif  // XBENCH_WORKLOAD_RUNNER_H_
