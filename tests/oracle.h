// The differential oracle: the tree-walking interpreter over a native
// engine's collection. Every engine query runs a compiled plan; tests and
// tools/plan_differential_fuzz check those plans against this reference.
#ifndef XBENCH_TESTS_ORACLE_H_
#define XBENCH_TESTS_ORACLE_H_

#include <utility>

#include "common/status.h"
#include "engines/native_engine.h"
#include "xquery/evaluator.h"
#include "xquery/plan/cache.h"

namespace xbench::oracle {

/// Evaluates `query` with the interpreter, $input bound to `engine`'s
/// document roots in collection order (fetched by running the compiled
/// plan of `$input`). No path guide is passed, so every `//` step is a full
/// subtree scan: the oracle shares no access-path code with the plans it
/// checks. The roots live in the engine's document cache, so the caller
/// must not restart or mutate the engine while it reads the result.
inline Result<xquery::QueryResult> Interpret(engines::NativeEngine& engine,
                                             const xquery::Expr& query) {
  XBENCH_ASSIGN_OR_RETURN(auto input, xquery::plan::CompileText("$input"));
  XBENCH_ASSIGN_OR_RETURN(xquery::QueryResult roots,
                          engine.ExecutePlan(*input));
  xquery::Bindings bindings;
  bindings["input"] = std::move(roots.items);
  return xquery::Evaluate(query, bindings);
}

}  // namespace xbench::oracle

#endif  // XBENCH_TESTS_ORACLE_H_
