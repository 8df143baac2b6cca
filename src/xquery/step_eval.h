#ifndef XBENCH_XQUERY_STEP_EVAL_H_
#define XBENCH_XQUERY_STEP_EVAL_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "xml/node.h"
#include "xquery/ast.h"
#include "xquery/sequence.h"

namespace xbench::xquery {

/// Candidate collection for path steps, shared between the tree-walking
/// interpreter (xquery/evaluator.cc) and the compiled physical operators
/// (xquery/exec/). Keeping a single implementation is what makes the
/// compiled path's byte-identical-output guarantee cheap to maintain:
/// both executors select exactly the same candidate nodes.

/// A caller-local tally of visited nodes, added to its counter
/// (xbench.xquery.nodes_visited) once when it goes out of scope, error
/// paths included — one atomic add per operator call instead of one per
/// node.
class VisitTally {
 public:
  explicit VisitTally(obs::Counter& counter) : counter_(counter) {}
  ~VisitTally() {
    if (count != 0) counter_.Increment(count);
  }
  VisitTally(const VisitTally&) = delete;
  VisitTally& operator=(const VisitTally&) = delete;

  uint64_t count = 0;

 private:
  obs::Counter& counter_;
};

/// Whether `node` matches a step name test ("*", "text()", or a name).
bool ElementMatches(const xml::Node& node, const std::string& name_test);

/// Appends every descendant of `node` matching `name_test` in document
/// order; with `include_self`, `node` itself may match too. Each visited
/// node adds one to `visited`, a caller-local tally that the caller adds
/// to the xbench.xquery.nodes_visited counter once per operator call.
void CollectDescendants(const xml::Node& node, const std::string& name_test,
                        bool include_self, Sequence& out,
                        uint64_t& visited);

/// Schema-guided descendant collection: descends only along the label
/// chains the analyzer proved possible, emitting matches in document order
/// (pre-order). `chains` are the expansions applicable to the context
/// element; `depth` indexes into their labels.
void GuidedCollect(const xml::Node& node, size_t depth,
                   const std::vector<const StepExpansion*>& chains,
                   Sequence& out, uint64_t& visited);

/// Per-parent variant of GuidedCollect for fused steps that carry
/// predicates: each group holds every chain-final match under one parent
/// element, so positional predicates ([1], position(), last()) see the
/// same candidate list the unfused child step would build for that parent.
void GuidedCollectGroups(const xml::Node& node, size_t depth,
                         const std::vector<const StepExpansion*>& chains,
                         std::vector<Sequence>& groups, uint64_t& visited);

/// Full-scan counterpart of GuidedCollectGroups: for `node` and every
/// descendant element, the children matching `name_test` form one group —
/// exactly the candidate lists of an unfused descendant-or-self::* /
/// child::name pair.
void CollectChildGroups(const xml::Node& node, const std::string& name_test,
                        std::vector<Sequence>& groups, uint64_t& visited);

/// The candidate nodes one axis step selects from a single context
/// element, before predicates (the per-context body of the interpreter's
/// step evaluation).
Sequence AxisCandidates(const xml::Node& node, Axis axis,
                        const std::string& name_test, uint64_t& visited);

}  // namespace xbench::xquery

#endif  // XBENCH_XQUERY_STEP_EVAL_H_
