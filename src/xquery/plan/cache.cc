#include "xquery/plan/cache.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "xquery/parser.h"
#include "xquery/verify/verifier.h"

namespace xbench::xquery::plan {

Result<std::shared_ptr<const CompiledQuery>> Compile(
    ExprPtr ast, const PlanAnnotations* notes,
    const CompilationOptions& options, const IndexCatalog* catalog) {
  if (ast == nullptr) {
    return Status::InvalidArgument("cannot compile a null query");
  }
  obs::ScopedSpan span("xquery.plan.compile");
  auto compiled = std::make_shared<CompiledQuery>();
  compiled->ast = std::move(ast);
  compiled->options = options;
  XBENCH_ASSIGN_OR_RETURN(
      compiled->logical,
      BuildLogicalPlan(*compiled->ast, notes, options, catalog));
  // The prefilter is only sound when the probed scan is the query's sole
  // read of $input: any other use must still see the full collection.
  if (CountVariableUses(*compiled->ast, "input") == 1) {
    compiled->prefilter_probe = SingleInputProbe(compiled->logical);
  }
  XBENCH_ASSIGN_OR_RETURN(compiled->physical,
                          exec::BuildPhysicalPlan(compiled->logical));
  // Static plan verification (DESIGN.md §14): contract-check the frozen
  // plan before it can reach the cache or an executor. A violation here
  // is a compiler bug, not a user error.
  if (options.verify) {
    verify::VerifyResult verified = verify::VerifyPlan(
        compiled->logical, compiled->physical, options, catalog);
    if (!verified.ok()) {
      return Status::Internal("plan verification failed: " +
                              verified.diagnostics.front().ToString());
    }
  }
  obs::MetricsRegistry::Default()
      .GetCounter("xbench.plan.compiles")
      .Increment();
  return {std::shared_ptr<const CompiledQuery>(std::move(compiled))};
}

Result<std::shared_ptr<const CompiledQuery>> CompileText(
    std::string_view text, const IndexCatalog* catalog) {
  XBENCH_ASSIGN_OR_RETURN(ExprPtr ast, ParseQuery(text));
  return Compile(std::move(ast), /*notes=*/nullptr, CompilationOptions{},
                 catalog);
}

std::shared_ptr<const CompiledQuery> PlanCache::Lookup(
    const PlanCacheKey& key) const {
  MutexLock lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    obs::MetricsRegistry::Default()
        .GetCounter("xbench.plan.cache_misses")
        .Increment();
    return nullptr;
  }
  obs::MetricsRegistry::Default()
      .GetCounter("xbench.plan.cache_hits")
      .Increment();
  return it->second;
}

void PlanCache::Insert(const PlanCacheKey& key,
                       std::shared_ptr<const CompiledQuery> plan) {
  MutexLock lock(mu_);
  plans_[key] = std::move(plan);
}

void PlanCache::Invalidate() {
  MutexLock lock(mu_);
  if (plans_.empty()) return;
  plans_.clear();
  obs::MetricsRegistry::Default()
      .GetCounter("xbench.plan.invalidations")
      .Increment();
}

}  // namespace xbench::xquery::plan
