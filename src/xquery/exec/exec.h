#ifndef XBENCH_XQUERY_EXEC_EXEC_H_
#define XBENCH_XQUERY_EXEC_EXEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "xquery/evaluator.h"
#include "xquery/exec/index_provider.h"
#include "xquery/plan/logical.h"

namespace xbench::xquery::exec {

/// Per-operator execution counters for one Execute() call. `millis` is
/// inclusive (a pipeline operator's time contains its inputs');
/// `self_millis` subtracts the direct children's inclusive time.
///
/// Attribution is top-down with each subtree capped at its parent's
/// effective window: when the direct children's measured inclusive times
/// sum past the parent's (an index probe re-running its fallback books
/// every re-run into the same child slots; under DESIGN.md §12 morsel
/// parallelism pool lanes run child-attributed work while the parent's
/// stopwatch is live), the children are scaled down proportionally
/// rather than the parent's self time clamping at 0 — so Σ self_millis
/// telescopes to exactly the root's inclusive time for every plan.
struct OperatorStats {
  std::string label;
  /// Nesting depth in the plan tree (root = 0).
  int depth = 0;
  uint64_t rows_out = 0;
  /// Item operators: evaluations (once per driving tuple). Tuple
  /// operators: cursor opens.
  uint64_t invocations = 0;
  double millis = 0;
  double self_millis = 0;
  /// Morsels this operator's wide regions executed on the worker pool
  /// (0 = every region was small enough to run inline).
  uint64_t morsels = 0;
  /// Cost-model row estimate frozen into the plan for this operator
  /// (index probes only); -1 = no estimate. Reported next to the
  /// measured rows_out so explain output can show estimated vs. actual.
  double estimated_rows = -1;
};

/// Snapshot of every operator's counters, in plan pre-order (root first).
struct ExecStats {
  std::vector<OperatorStats> operators;
  /// Wall time of the whole operator-tree run on this host's cores,
  /// parallel regions included; the per-operator self times sum to the
  /// root operator's inclusive share of it.
  double total_millis = 0;
};

class ItemOp;

/// A compiled physical plan: a tree of pull-based operators mirroring the
/// logical plan 1:1, with descendant access paths (full scan vs. guided
/// walk) frozen in. Immutable after construction — one plan may be
/// executed many times (and is shared through the plan cache).
struct PhysicalPlan {
  PhysicalPlan();
  ~PhysicalPlan();
  PhysicalPlan(PhysicalPlan&&) noexcept;
  PhysicalPlan& operator=(PhysicalPlan&&) noexcept;

  std::unique_ptr<ItemOp> root;
  /// Stats slot index -> operator label, plan pre-order.
  std::vector<std::string> labels;
  /// Stats slot index -> tree depth (parallel to `labels`); pre-order plus
  /// depth reconstructs the tree shape for self-time attribution.
  std::vector<int> depths;
  /// Stats slot index -> cost-model row estimate (-1 = none); parallel to
  /// `labels`, copied into OperatorStats::estimated_rows per execution.
  std::vector<double> estimated_rows;

  /// Indented operator-tree rendering (for `xqlint --explain`).
  std::string ToString() const { return rendered; }

  std::string rendered;
};

/// Lowers a logical plan to physical operators.
Result<PhysicalPlan> BuildPhysicalPlan(const plan::LogicalPlan& logical);

/// Runs a compiled plan. `options.guide` (nullable) is the path guide of
/// the collection the bindings come from: guided-walk operators and
/// interpreter-core leaves (nested `//` steps inside predicates) both
/// walk its chains, and without it every `//` step scans. When `stats` is
/// non-null, this execution's per-operator counters are copied into it.
/// `indexes` (nullable) gives probe operators runtime index access; with
/// it null every probe runs its compiled fallback access path.
/// The result's ToText() is byte-identical to the interpreter's for the
/// same query, bindings and options — differential tests enforce this.
Result<QueryResult> Execute(const PhysicalPlan& plan, const Bindings& bindings,
                            const EvalOptions& options,
                            ExecStats* stats = nullptr,
                            const IndexProvider* indexes = nullptr);

}  // namespace xbench::xquery::exec

#endif  // XBENCH_XQUERY_EXEC_EXEC_H_
