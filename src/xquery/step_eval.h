#ifndef XBENCH_XQUERY_STEP_EVAL_H_
#define XBENCH_XQUERY_STEP_EVAL_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "xml/node.h"
#include "xquery/ast.h"
#include "xquery/path_guide.h"
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

/// The fused `//name` step (descendant-or-self::* / child::name) from one
/// element context, appending matches to `out` in document order. With a
/// `guide` (nullable) that covers `node`, the walk descends only along
/// the guide's label chains below it; otherwise it scans the whole
/// subtree, so the guided walk can never drop a match. Each visited node
/// adds one to `visited`, a caller-local tally that the caller adds to
/// the xbench.xquery.nodes_visited counter once per operator call.
void CollectFusedDescendants(const xml::Node& node, const PathGuide* guide,
                             const std::string& name_test, Sequence& out,
                             uint64_t& visited);

/// Grouped form of CollectFusedDescendants for fused steps that carry
/// predicates: each group holds the matches under one parent element —
/// exactly the candidate list the unfused child step builds for that
/// parent — so positional predicates ([1], position(), last()) keep
/// their meaning. Groups are not in document order; callers sort the
/// union of the kept candidates.
void CollectFusedGroups(const xml::Node& node, const PathGuide* guide,
                        const std::string& name_test,
                        std::vector<Sequence>& groups, uint64_t& visited);

/// The candidate nodes one axis step selects from a single context
/// element, before predicates (the per-context body of the interpreter's
/// step evaluation).
Sequence AxisCandidates(const xml::Node& node, Axis axis,
                        const std::string& name_test, uint64_t& visited);

}  // namespace xbench::xquery

#endif  // XBENCH_XQUERY_STEP_EVAL_H_
