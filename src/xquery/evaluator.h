#ifndef XBENCH_XQUERY_EVALUATOR_H_
#define XBENCH_XQUERY_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xml/node.h"
#include "xquery/ast.h"
#include "xquery/sequence.h"

namespace xbench::xquery {

/// The result of a query: the item sequence plus the arena that owns any
/// nodes built by element constructors (result items may point into it, so
/// it must outlive the items). Null when nothing could be constructed.
struct QueryResult {
  Sequence items;
  std::unique_ptr<xml::Arena> constructed;

  /// Serializes every item: elements as XML, atomics/attributes as their
  /// string value — one line per item. Used for answer comparison.
  std::string ToText() const;
};

/// External variable bindings (e.g. $input = collection roots).
using Bindings = std::map<std::string, Sequence>;

/// Evaluation switches.
struct EvalOptions {
  /// When false, analyzer-provided `Step::expansions` annotations are
  /// ignored and descendant steps always run the full subtree scan.
  /// Engines must disable expansions unless the collection they evaluate
  /// over has been validated against the schema the expansions were
  /// resolved from — a parent→child edge present in the data but missing
  /// from that schema would make the guided walk silently drop matches.
  bool use_step_expansions = true;
};

/// One lexical-scope binding (FLWOR/quantifier variable → value). The
/// innermost binding of a name is the last matching entry.
using ScopeBinding = std::pair<std::string, Sequence>;

/// Evaluates a parsed query with the tree-walking interpreter. This is
/// the semantic reference: the compiled pipeline (xquery/plan/ +
/// xquery/exec/) must produce byte-identical ToText() output, and
/// differential tests hold it to that. The documents referenced by
/// `bindings` must outlive the result.
Result<QueryResult> Evaluate(const Expr& query, const Bindings& bindings,
                             const EvalOptions& options = {});

/// Interpreter-core hook for the compiled physical operators: evaluates
/// one expression exactly as the tree-walking interpreter would, under
/// `bindings` plus an explicit variable scope and an optional dynamic
/// focus (`context_item` null = no focus; `position`/`size` are 1-based
/// when a focus exists). Constructed nodes are appended to `arena`, which
/// must outlive the returned items. Physical operators delegate every
/// scalar leaf (predicates, where clauses, order keys, constructor
/// content) here, so compiled plans cannot diverge from the interpreter
/// on expression semantics.
Result<Sequence> EvalWithEnv(const Expr& expr, const Bindings& bindings,
                             const std::vector<ScopeBinding>& scope,
                             const Item* context_item, size_t position,
                             size_t size, const EvalOptions& options,
                             xml::Arena& arena);

/// Parse + evaluate convenience (one-shot callers only; the workload
/// runner and engines hold parsed ASTs / compiled plans instead of
/// re-parsing query text per execution).
Result<QueryResult> EvaluateQuery(std::string_view query,
                                  const Bindings& bindings);

}  // namespace xbench::xquery

#endif  // XBENCH_XQUERY_EVALUATOR_H_
