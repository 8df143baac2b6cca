#include "xquery/verify/verifier.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace xbench::xquery::verify {
namespace {

using plan::LogicalKind;
using plan::LogicalNode;

bool IsProbe(LogicalKind kind) {
  return kind == LogicalKind::kIndexScan ||
         kind == LogicalKind::kIndexRangeScan ||
         kind == LogicalKind::kTextProbe;
}

/// Expected input count per operator — the arity half of the contract
/// table (DESIGN.md §14). A constructor takes one input per enclosed
/// expression and nested constructor of its AST.
size_t ExpectedArity(const LogicalNode& n) {
  switch (n.kind) {
    case LogicalKind::kConstruct:
      return n.expr != nullptr ? plan::ConstructInputCount(*n.expr) : 0;
    case LogicalKind::kScan:
    case LogicalKind::kEval:
    case LogicalKind::kSingleton:
      return 0;
    case LogicalKind::kChildStep:
    case LogicalKind::kAxisStep:
    case LogicalKind::kDescendantStep:
    case LogicalKind::kFilter:
    case LogicalKind::kAggregate:
    case LogicalKind::kWhere:
    case LogicalKind::kSort:
      return 1;
    case LogicalKind::kIndexScan:
    case LogicalKind::kIndexRangeScan:
    case LogicalKind::kTextProbe:
    case LogicalKind::kHashGroupCount:
    case LogicalKind::kReturn:
    case LogicalKind::kFor:
    case LogicalKind::kJoin:
    case LogicalKind::kLet:
      return 2;
  }
  return 0;
}

/// Whether the operator's output carries the unique-node-bindings
/// property. Steps and probes dedupe through the document-order-unique
/// sort; scans enumerate distinct bindings; filters preserve whatever
/// their input had (handled by the caller).
bool ProvidesUnique(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kScan:
    case LogicalKind::kChildStep:
    case LogicalKind::kAxisStep:
    case LogicalKind::kDescendantStep:
    case LogicalKind::kIndexScan:
    case LogicalKind::kIndexRangeScan:
    case LogicalKind::kTextProbe:
      return true;
    default:
      return false;
  }
}

std::string PredicateSuffix(const LogicalNode& n) {
  if (n.predicates.empty()) return "";
  return " [" + std::to_string(n.predicates.size()) +
         (n.predicates.size() == 1 ? " pred]" : " preds]");
}

std::string FormatEstimate(double rows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", rows);
  return buf;
}

/// Recomputes the label PhysicalBuilder freezes for `n` — the mirror
/// check compares this against the physical plan's stored label.
std::string ExpectedLabel(const LogicalNode& n) {
  switch (n.kind) {
    case LogicalKind::kScan:
      return "Scan($" + n.name + ")";
    case LogicalKind::kEval:
      return std::string("Eval(") + plan::ExprKindLabel(n.expr) + ")";
    case LogicalKind::kConstruct:
      return "Construct(<" + n.name + ">)";
    case LogicalKind::kHashGroupCount:
      return plan::GroupCountLabel(n);
    case LogicalKind::kChildStep:
      return "ChildStep(" + n.name + ")" + PredicateSuffix(n);
    case LogicalKind::kAxisStep:
      return std::string("AxisStep(") + plan::AxisLabel(n.axis) + "::" +
             n.name + ")" + PredicateSuffix(n);
    case LogicalKind::kDescendantStep:
      return (n.access == plan::AccessPath::kGuidedWalk ? "GuidedWalk("
                                                        : "DescendantScan(") +
             n.name + ")" + PredicateSuffix(n);
    case LogicalKind::kFilter:
      return "Filter" + PredicateSuffix(n);
    case LogicalKind::kAggregate:
      return "Aggregate(" + n.name + ")";
    case LogicalKind::kIndexScan:
    case LogicalKind::kIndexRangeScan:
    case LogicalKind::kTextProbe: {
      if (!n.probe.has_value()) return "IndexProbe(?)";
      const plan::IndexProbe& probe = *n.probe;
      std::string label;
      if (n.kind == LogicalKind::kIndexScan) {
        label = "IndexScan(" + probe.index + " = \"" + probe.key + "\")";
      } else if (n.kind == LogicalKind::kIndexRangeScan) {
        label = "IndexRangeScan(" + probe.index + " in [\"" + probe.lo +
                "\" .. \"" + probe.hi + "\"])";
      } else {
        label = "TextIndexProbe(" + probe.index + " ~ \"" + probe.word +
                "\")";
      }
      return label + PredicateSuffix(n);
    }
    case LogicalKind::kReturn:
      return "Return";
    case LogicalKind::kSingleton:
      return "Singleton";
    case LogicalKind::kFor:
      return "ForLoop($" + n.name +
             (n.position_variable.empty() ? ""
                                          : " at $" + n.position_variable) +
             ")";
    case LogicalKind::kJoin:
      return "NestedLoopJoin($" + n.name + ")";
    case LogicalKind::kLet:
      return "Let($" + n.name + ")";
    case LogicalKind::kWhere:
      return "Where";
    case LogicalKind::kSort: {
      const size_t keys =
          n.order_source != nullptr ? n.order_source->order_by.size() : 0;
      return "SortMaterialize(" + std::to_string(keys) +
             (keys == 1 ? " key)" : " keys)");
    }
  }
  return "?";
}

class Verifier {
 public:
  Verifier(const exec::PhysicalPlan& physical,
           const plan::CompilationOptions& options,
           const plan::IndexCatalog* catalog, VerifyResult& result)
      : physical_(physical),
        options_(options),
        catalog_(catalog),
        result_(result) {}

  Properties Visit(const LogicalNode& n, int depth, const std::string& path) {
    const std::string expected_label = ExpectedLabel(n);
    const std::string here =
        path.empty() ? expected_label : path + " / " + expected_label;
    const size_t slot = next_slot_++;
    const bool slot_ok = slot < physical_.labels.size();
    const std::string& actual_label =
        slot_ok ? physical_.labels[slot] : expected_label;

    // 1:1 logical↔physical mirror: label, depth and frozen estimate.
    if (!slot_ok) {
      Report(DiagnosticKind::kLabelMismatch, slot, here, expected_label,
             "one physical operator per logical node",
             "physical plan ran out of operator slots");
    } else {
      if (actual_label != expected_label) {
        Report(DiagnosticKind::kLabelMismatch, slot, here, actual_label,
               "label \"" + expected_label + "\"",
               "label \"" + actual_label + "\"");
      }
      if (slot < physical_.depths.size() &&
          physical_.depths[slot] != depth) {
        Report(DiagnosticKind::kLabelMismatch, slot, here, actual_label,
               "depth " + std::to_string(depth),
               "depth " + std::to_string(physical_.depths[slot]));
      }
      const double expected_rows =
          IsProbe(n.kind) ? n.estimated_rows : -1;
      if (slot < physical_.estimated_rows.size() &&
          std::abs(physical_.estimated_rows[slot] - expected_rows) > 1e-9) {
        Report(DiagnosticKind::kLabelMismatch, slot, here, actual_label,
               "frozen estimate " + FormatEstimate(expected_rows),
               "frozen estimate " +
                   FormatEstimate(physical_.estimated_rows[slot]));
      }
    }

    // Arity.
    const size_t arity = ExpectedArity(n);
    if (n.inputs.size() != arity) {
      Report(DiagnosticKind::kArityMismatch, slot, here, actual_label,
             std::to_string(arity) + " input(s)",
             std::to_string(n.inputs.size()) + " input(s)");
    }

    // Reserve this operator's derived-property line (pre-order position),
    // filled in once the children's properties are known.
    const size_t line = result_.derived.size();
    result_.derived.emplace_back();

    std::vector<Properties> children;
    children.reserve(n.inputs.size());
    for (const plan::LogicalNodePtr& input : n.inputs) {
      children.push_back(Visit(*input, depth + 1, here));
    }

    if (IsProbe(n.kind)) {
      // The probe validates index candidates against its root source;
      // a duplicated root would double-count candidates.
      if (children.size() == 2 && !children[1].unique) {
        Report(DiagnosticKind::kNonUniqueRoots, slot, here, actual_label,
               "unique root-source bindings",
               "non-unique root-source bindings");
      }
      if (n.probe.has_value() && catalog_ != nullptr &&
          n.probe->catalog_epoch != catalog_->epoch) {
        Report(DiagnosticKind::kEpochMismatch, slot, here, actual_label,
               "catalog epoch " + std::to_string(catalog_->epoch),
               "catalog epoch " + std::to_string(n.probe->catalog_epoch));
      }
      // Residual coverage: the wrapper must re-check every predicate of
      // the subtree it replaced, so probe ∧ residual ⇒ original.
      if (!n.inputs.empty()) {
        for (const Expr* pred : n.inputs[0]->predicates) {
          bool covered = false;
          for (const Expr* residual : n.predicates) {
            if (residual == pred) {
              covered = true;
              break;
            }
          }
          if (!covered) {
            Report(DiagnosticKind::kMissingResidualPredicate, slot, here,
                   actual_label,
                   std::to_string(n.inputs[0]->predicates.size()) +
                       " residual predicate(s)",
                   "fallback predicate missing from the probe's residual "
                   "re-checks");
          }
        }
      }
    }

    // Cardinality bounds: a trusted analysis class is a hard bound on
    // the frozen cost estimate.
    if (options_.cost_model.trust_statistics && n.estimated_rows >= 0) {
      const char* expected = nullptr;
      if (n.cardinality == plan::Card::kEmpty && n.estimated_rows > 0) {
        expected = "estimated_rows == 0 (analysis: empty)";
      } else if (n.cardinality == plan::Card::kAtMostOne &&
                 n.estimated_rows > 1.0 + 1e-9) {
        expected = "estimated_rows <= 1 (analysis: at-most-one)";
      }
      if (expected != nullptr) {
        Report(DiagnosticKind::kCardinalityBound, slot, here, actual_label,
               expected, "estimated_rows " + FormatEstimate(n.estimated_rows));
      }
    }

    // Provided properties.
    Properties props;
    props.card = n.cardinality;
    props.unique = ProvidesUnique(n.kind) ||
                   (n.kind == LogicalKind::kFilter && !children.empty() &&
                    children[0].unique);

    std::string rendered(static_cast<size_t>(depth) * 2, ' ');
    rendered += actual_label;
    rendered += props.unique ? " :: unique=yes" : " :: unique=no";
    rendered += " card=";
    rendered += plan::CardName(props.card);
    if (IsProbe(n.kind) && n.probe.has_value()) {
      rendered += " epoch=" + std::to_string(n.probe->catalog_epoch);
      rendered += " est=" + FormatEstimate(n.estimated_rows);
    }
    result_.derived[line] = std::move(rendered);
    return props;
  }

  size_t slots_visited() const { return next_slot_; }

 private:
  void Report(DiagnosticKind kind, size_t slot, const std::string& path,
              const std::string& op, std::string expected,
              std::string derived) {
    Diagnostic diag;
    diag.kind = kind;
    diag.slot = slot < physical_.labels.size() ? static_cast<int>(slot) : -1;
    diag.path = path;
    diag.op = op;
    diag.expected = std::move(expected);
    diag.derived = std::move(derived);
    result_.diagnostics.push_back(std::move(diag));
  }

  const exec::PhysicalPlan& physical_;
  const plan::CompilationOptions& options_;
  const plan::IndexCatalog* catalog_;
  VerifyResult& result_;
  size_t next_slot_ = 0;
};

}  // namespace

const char* DiagnosticKindName(DiagnosticKind kind) {
  switch (kind) {
    case DiagnosticKind::kArityMismatch:
      return "arity-mismatch";
    case DiagnosticKind::kNonUniqueRoots:
      return "non-unique-roots";
    case DiagnosticKind::kCardinalityBound:
      return "cardinality-bound";
    case DiagnosticKind::kEpochMismatch:
      return "epoch-mismatch";
    case DiagnosticKind::kMissingResidualPredicate:
      return "missing-residual-predicate";
    case DiagnosticKind::kLabelMismatch:
      return "label-mismatch";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::string out = DiagnosticKindName(kind);
  out += " @ ";
  out += path;
  out += ": ";
  out += op;
  out += " — expected ";
  out += expected;
  out += ", derived ";
  out += derived;
  return out;
}

VerifyResult VerifyPlan(const plan::LogicalPlan& logical,
                        const exec::PhysicalPlan& physical,
                        const plan::CompilationOptions& options,
                        const plan::IndexCatalog* catalog) {
  VerifyResult result;
  obs::MetricsRegistry::Default()
      .GetCounter(obs::metric_names::kVerifyPlans)
      .Increment();
  if (logical.root == nullptr) {
    Diagnostic diag;
    diag.kind = DiagnosticKind::kArityMismatch;
    diag.path = "(root)";
    diag.op = "(none)";
    diag.expected = "a plan root";
    diag.derived = "empty logical plan";
    result.diagnostics.push_back(std::move(diag));
  } else {
    Verifier verifier(physical, options, catalog, result);
    verifier.Visit(*logical.root, 0, "");
    if (verifier.slots_visited() != physical.labels.size()) {
      Diagnostic diag;
      diag.kind = DiagnosticKind::kLabelMismatch;
      diag.path = "(root)";
      diag.op = physical.labels.empty() ? "(none)" : physical.labels[0];
      diag.expected =
          std::to_string(verifier.slots_visited()) + " operator slot(s)";
      diag.derived = std::to_string(physical.labels.size()) + " slot(s)";
      result.diagnostics.push_back(std::move(diag));
    }
  }
  if (!result.diagnostics.empty()) {
    obs::Counter& violations = obs::MetricsRegistry::Default().GetCounter(
        obs::metric_names::kVerifyViolations);
    for (const Diagnostic& diag : result.diagnostics) {
      violations.Increment();
      obs::MetricsRegistry::Default()
          .GetCounter(std::string(obs::metric_names::kVerifyViolationsPrefix) +
                      DiagnosticKindName(diag.kind))
          .Increment();
    }
  }
  return result;
}

}  // namespace xbench::xquery::verify
