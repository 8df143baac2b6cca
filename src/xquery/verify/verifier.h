#ifndef XBENCH_XQUERY_VERIFY_VERIFIER_H_
#define XBENCH_XQUERY_VERIFY_VERIFIER_H_

#include <string>
#include <vector>

#include "xquery/exec/exec.h"
#include "xquery/plan/catalog.h"
#include "xquery/plan/logical.h"

namespace xbench::xquery::verify {

/// Derived properties of one operator's output.
struct Properties {
  /// No node appears twice in the output (steps and probes dedupe via
  /// the document-order-unique sort; Eval/Return sequences may repeat).
  bool unique = false;
  /// Analysis cardinality class the output provably satisfies.
  plan::Card card = plan::Card::kUnknown;
};

/// Everything a contract violation needs to be actionable: where in the
/// plan, which operator, and the expected-vs-derived property pair.
enum class DiagnosticKind {
  /// Operator has the wrong number of inputs for its kind.
  kArityMismatch,
  /// An index probe's root source may bind the same node twice, which
  /// would double-count its candidates.
  kNonUniqueRoots,
  /// estimated_rows contradicts the analysis cardinality bound (only
  /// checked when the plan was compiled with trust_statistics).
  kCardinalityBound,
  /// An index probe's frozen catalog epoch differs from the catalog
  /// snapshot the plan claims to be compiled against.
  kEpochMismatch,
  /// An index probe dropped a residual predicate of the subtree it
  /// replaced (probe ∧ residual would no longer imply the original).
  kMissingResidualPredicate,
  /// The frozen physical operator (label / depth / estimate slot) does
  /// not mirror its logical node.
  kLabelMismatch,
};

const char* DiagnosticKindName(DiagnosticKind kind);

struct Diagnostic {
  DiagnosticKind kind = DiagnosticKind::kLabelMismatch;
  /// Pre-order slot index of the offending operator in the physical
  /// plan (-1 when the plans disagree about shape).
  int slot = -1;
  /// Label path from the root to the operator ("Return / ForLoop($o) /
  /// Filter").
  std::string path;
  /// The offending operator's label.
  std::string op;
  std::string expected;
  std::string derived;

  /// "kind @ path: op — expected …, derived …" (one line).
  std::string ToString() const;
};

struct VerifyResult {
  std::vector<Diagnostic> diagnostics;
  /// One line per operator in plan pre-order: depth-indented label plus
  /// the derived properties. Pinned as the xqlint --verify golden.
  std::vector<std::string> derived;

  bool ok() const { return diagnostics.empty(); }
};

/// Statically verifies a frozen physical plan against its logical plan:
/// per-kind operator contracts (arity, unique probe roots, provided
/// uniqueness and cardinality), index-epoch validity and residual-predicate
/// coverage of every probe (against `catalog`, skipped when null), and the
/// 1:1 logical↔physical mirror. Counts xbench.verify.plans per call
/// and xbench.verify.violations per diagnostic. Never mutates the plan.
VerifyResult VerifyPlan(const plan::LogicalPlan& logical,
                        const exec::PhysicalPlan& physical,
                        const plan::CompilationOptions& options,
                        const plan::IndexCatalog* catalog = nullptr);

}  // namespace xbench::xquery::verify

#endif  // XBENCH_XQUERY_VERIFY_VERIFIER_H_
