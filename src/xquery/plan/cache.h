#ifndef XBENCH_XQUERY_PLAN_CACHE_H_
#define XBENCH_XQUERY_PLAN_CACHE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "xquery/ast.h"
#include "xquery/exec/exec.h"
#include "xquery/plan/logical.h"

namespace xbench::xquery::plan {

/// A fully compiled query: the analyzed AST (the plans reference its
/// expressions, so it must stay alive exactly as long as they do), the
/// logical plan, and the executable physical plan. Shared immutably via
/// shared_ptr so a cache invalidation cannot pull a plan out from under an
/// in-flight execution.
struct CompiledQuery {
  ExprPtr ast;
  LogicalPlan logical;
  exec::PhysicalPlan physical;
  /// The options the plan was compiled under (access-path decisions in
  /// explain output report the mode alongside the per-node choices).
  CompilationOptions options;
  /// When the whole plan is driven by exactly one index probe over the
  /// workload's `$input`, this points at that probe node (inside
  /// `logical`, so it lives as long as the compiled query). Engines use it
  /// to prefilter which documents they bind `$input` over — the index has
  /// already proven the others produce nothing. Null when no single
  /// driving probe exists.
  const LogicalNode* prefilter_probe = nullptr;
};

/// Compiles an analyzed AST into a logical + physical plan, taking
/// ownership of the AST. `catalog` (nullable) enables index probes under
/// kAuto/kForceIndex. Increments xbench.plan.compiles and records a
/// "xquery.plan.compile" span.
Result<std::shared_ptr<const CompiledQuery>> Compile(
    ExprPtr ast, const PlanAnnotations* notes,
    const CompilationOptions& options, const IndexCatalog* catalog = nullptr);

/// Parses ad-hoc query text and compiles it unanalyzed under the default
/// (kAuto) options. `catalog` (nullable) lets the planner choose index
/// probes.
Result<std::shared_ptr<const CompiledQuery>> CompileText(
    std::string_view text, const IndexCatalog* catalog = nullptr);

/// Cache key: (query id, database class, engine kind, access-path mode,
/// index-catalog epoch). The ints mirror workload::QueryId / workload::DbClass /
/// engines::EngineKind / plan::AccessPathMode without depending on those
/// headers. The epoch ties a plan to the catalog snapshot it was costed
/// against: index DDL or a document mutation bumps the engine's epoch, so
/// stale index choices miss instead of being served.
struct PlanCacheKey {
  int query_id = 0;
  int db_class = 0;
  int engine = 0;
  int access_mode = 0;
  uint64_t index_epoch = 0;

  bool operator<(const PlanCacheKey& other) const {
    return std::tie(query_id, db_class, engine, access_mode, index_epoch) <
           std::tie(other.query_id, other.db_class, other.engine,
                    other.access_mode, other.index_epoch);
  }
};

/// Per-engine compiled-plan cache. Engines own one and invalidate it on
/// document mutations (BulkLoad / InsertDocument / DeleteDocument): the
/// data change can shift the statistics underlying plan choices, so every
/// compiled plan for that engine is dropped.
/// ColdRestart does NOT invalidate — compiled plans model the DBMS's
/// statement cache, which survives buffer-pool flushes.
///
/// Thread-safe: lookups/inserts from concurrent sessions serialize on an
/// internal mutex; the shared_ptr payloads are immutable, so a plan
/// fetched by one session stays valid even if another invalidates.
class PlanCache {
 public:
  /// Returns the cached plan or nullptr, counting
  /// xbench.plan.cache_hits / cache_misses.
  std::shared_ptr<const CompiledQuery> Lookup(const PlanCacheKey& key) const;

  void Insert(const PlanCacheKey& key,
              std::shared_ptr<const CompiledQuery> plan);

  /// Drops every cached plan; counts xbench.plan.invalidations when the
  /// cache was non-empty.
  void Invalidate();

  size_t size() const {
    MutexLock lock(mu_);
    return plans_.size();
  }

 private:
  mutable Mutex mu_{LockRank::kPlanCache, "plan.cache"};
  std::map<PlanCacheKey, std::shared_ptr<const CompiledQuery>> plans_
      XBENCH_GUARDED_BY(mu_);
};

}  // namespace xbench::xquery::plan

#endif  // XBENCH_XQUERY_PLAN_CACHE_H_
