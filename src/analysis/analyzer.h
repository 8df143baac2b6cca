#ifndef XBENCH_ANALYSIS_ANALYZER_H_
#define XBENCH_ANALYSIS_ANALYZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "xml/dtd.h"
#include "xml/schema_summary.h"
#include "xquery/ast.h"
#include "xquery/plan/logical.h"

namespace xbench::analysis {

/// What a diagnostic says about a query, ordered from "the name is a typo"
/// to "the path is legal but provably selects nothing".
enum class DiagnosticKind {
  /// Name test matches no element or attribute declared in the DTD at all
  /// (a typo'd element, paper §2.2 validation concern).
  kUnknownName,
  /// The name is declared, but this axis can never select it from the
  /// possible context types (wrong axis, child under an EMPTY/#PCDATA
  /// model, attribute on the wrong element, ...).
  kImpossibleStep,
  /// A `//name` step whose target is declared but outside the descendant
  /// closure of every possible context type.
  kUnreachableDescendant,
  /// The DTD admits the path but the instance statistics bound its
  /// cardinality to zero — a Q14-style always-empty branch.
  kAlwaysEmptyPath,
};

/// "unknown-name", "impossible-step", ...
const char* DiagnosticKindName(DiagnosticKind kind);

enum class Severity { kError, kWarning };

struct Diagnostic {
  DiagnosticKind kind = DiagnosticKind::kUnknownName;
  Severity severity = Severity::kError;
  /// Rendered path prefix up to and including the offending step.
  std::string path;
  std::string message;

  std::string ToString() const;
};

/// Occurrence classification of a path relative to one context item,
/// propagated from SchemaSummary min/max bounds (paper Figures 1–4).
enum class Cardinality { kEmpty, kAtMostOne, kMany, kUnknown };
const char* CardinalityName(Cardinality cardinality);

/// Per-path explain record (one per path expression with steps).
struct PathInfo {
  std::string rendered;                   // "$input/item/@id"
  Cardinality cardinality = Cardinality::kUnknown;
  std::vector<std::string> result_types;  // possible result element types
  /// Rendered `//`-step expansions, e.g. "item -> authors/author/first_name".
  std::vector<std::string> expansions;
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  std::vector<PathInfo> paths;
  /// Number of descendant (`//`) steps resolved to concrete child chains.
  int resolved_steps = 0;
  /// Planner-facing annotations keyed by AST node identity (valid only
  /// while the analyzed AST is alive): the path cardinality classes behind
  /// the kAlwaysEmptyPath diagnostics, consumed by plan::BuildLogicalPlan.
  xquery::plan::PlanAnnotations annotations;

  bool HasErrors() const;
  /// Explain-style rendering: diagnostics first, then one line per path.
  std::string ToString() const;
};

/// The schema a query is checked against: the class DTD, optional instance
/// statistics (enables cardinality bounds), and the element types `$input`
/// may be bound to (the collection's document-root types).
struct SchemaContext {
  const xml::Dtd* dtd = nullptr;
  /// May be null: path typing still runs, cardinality stays kUnknown.
  const xml::SchemaSummary* summary = nullptr;
  std::vector<std::string> roots;
};

/// Type-checks `query` against `context`: walks every path expression
/// through the DTD's element graph, flags steps that can never match,
/// resolves `//` steps into the concrete label chains the DTD admits
/// (reported in PathInfo::expansions), and classifies path
/// cardinality from the schema summary. Non-path expressions are traversed
/// so every embedded path (predicates, FLWOR clauses, constructors) is
/// covered.
AnalysisReport Analyze(const xquery::Expr& query, const SchemaContext& context);

/// Status form threaded through the workload runner: Ok when no error
/// diagnostics, InvalidArgument listing them otherwise. `summary` may be
/// null. When `report_out` is non-null the full report is moved into it
/// (the planner consumes `report_out->annotations`).
Status AnalyzeQuery(const xquery::Expr& query, const xml::Dtd& dtd,
                    const xml::SchemaSummary* summary,
                    const std::vector<std::string>& roots,
                    AnalysisReport* report_out = nullptr);

}  // namespace xbench::analysis

#endif  // XBENCH_ANALYSIS_ANALYZER_H_
