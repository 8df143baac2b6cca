#include "xquery/plan/logical.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "common/strings.h"

namespace xbench::xquery::plan {
namespace {

/// Sequence functions whose single argument compiles to an item sub-plan
/// (the argument is the operator input; the function body stays the
/// interpreter's CallFunction).
const std::set<std::string>& AggregateFunctions() {
  static const auto* kFns = new std::set<std::string>{
      "count", "sum",    "avg",   "min",           "max",
      "data",  "empty",  "exists", "distinct-values"};
  return *kFns;
}

void CollectFree(const Expr& e, std::set<std::string> bound,
                 std::set<std::string>& free);

void CollectFreePredicates(const std::vector<Step>& steps,
                           const std::set<std::string>& bound,
                           std::set<std::string>& free) {
  for (const Step& step : steps) {
    for (const auto& pred : step.predicates) {
      CollectFree(*pred, bound, free);
    }
  }
}

void CollectFree(const Expr& e, std::set<std::string> bound,
                 std::set<std::string>& free) {
  switch (e.kind) {
    case ExprKind::kVariable:
      if (bound.count(e.variable) == 0) free.insert(e.variable);
      return;
    case ExprKind::kFlwor: {
      size_t fi = 0;
      size_t li = 0;
      for (char kind : e.clause_order) {
        if (kind == 'f') {
          const ForClause& clause = e.for_clauses[fi++];
          CollectFree(*clause.input, bound, free);
          bound.insert(clause.variable);
          if (!clause.position_variable.empty()) {
            bound.insert(clause.position_variable);
          }
        } else {
          const LetClause& clause = e.let_clauses[li++];
          CollectFree(*clause.value, bound, free);
          bound.insert(clause.variable);
        }
      }
      if (e.where != nullptr) CollectFree(*e.where, bound, free);
      for (const OrderSpec& spec : e.order_by) {
        CollectFree(*spec.key, bound, free);
      }
      CollectFree(*e.return_expr, bound, free);
      return;
    }
    case ExprKind::kQuantified:
      CollectFree(*e.quant_input, bound, free);
      bound.insert(e.quant_variable);
      CollectFree(*e.quant_satisfies, bound, free);
      return;
    default:
      break;
  }
  if (e.path_root != nullptr) CollectFree(*e.path_root, bound, free);
  CollectFreePredicates(e.steps, bound, free);
  for (const auto& child : e.children) CollectFree(*child, bound, free);
  if (e.lhs != nullptr) CollectFree(*e.lhs, bound, free);
  if (e.rhs != nullptr) CollectFree(*e.rhs, bound, free);
  if (e.then_branch != nullptr) CollectFree(*e.then_branch, bound, free);
  if (e.else_branch != nullptr) CollectFree(*e.else_branch, bound, free);
  for (const ConstructorAttr& attr : e.constructor_attrs) {
    for (const ConstructorContent& part : attr.value_parts) {
      if (part.expr != nullptr) CollectFree(*part.expr, bound, free);
    }
  }
  for (const ConstructorContent& part : e.constructor_content) {
    if (part.expr != nullptr) CollectFree(*part.expr, bound, free);
    if (part.child != nullptr) CollectFree(*part.child, bound, free);
  }
}

std::string FormatEstimate(double rows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", rows);
  return buf;
}

std::string NodeLabel(const LogicalNode& n) {
  std::string label;
  switch (n.kind) {
    case LogicalKind::kScan:
      label = "Scan($" + n.name + ")";
      break;
    case LogicalKind::kEval:
      label = std::string("Eval(") + ExprKindLabel(n.expr) + ")";
      break;
    case LogicalKind::kChildStep:
      label = "ChildStep(" + n.name + ")";
      break;
    case LogicalKind::kAxisStep:
      label = std::string("AxisStep(") + AxisLabel(n.axis) + "::" + n.name +
              ")";
      break;
    case LogicalKind::kDescendantStep:
      label = "DescendantStep(" + n.name + ")";
      label += n.access == AccessPath::kGuidedWalk
                   ? " [guided, " + std::to_string(n.expansions.size()) +
                         (n.expansions.size() == 1 ? " chain]" : " chains]")
                   : " [full-scan]";
      break;
    case LogicalKind::kFilter:
      label = "Filter";
      break;
    case LogicalKind::kAggregate:
      label = "Aggregate(" + n.name + ")";
      break;
    case LogicalKind::kConstruct:
      label = "Construct(<" + n.name + ">)";
      break;
    case LogicalKind::kEmpty:
      label = "Empty [statically empty]";
      break;
    case LogicalKind::kIndexScan:
      label = "IndexScan(" + n.probe->index + " = \"" + n.probe->key + "\")";
      break;
    case LogicalKind::kIndexRangeScan:
      label = "IndexRangeScan(" + n.probe->index + " in [\"" + n.probe->lo +
              "\" .. \"" + n.probe->hi + "\"])";
      break;
    case LogicalKind::kTextProbe:
      label = "TextIndexProbe(" + n.probe->index + " ~ \"" + n.probe->word +
              "\")";
      break;
    case LogicalKind::kReturn:
      label = "Return";
      break;
    case LogicalKind::kSingleton:
      label = "Singleton";
      break;
    case LogicalKind::kFor:
      label = "For($" + n.name +
              (n.position_variable.empty() ? ""
                                           : " at $" + n.position_variable) +
              ")";
      break;
    case LogicalKind::kJoin:
      label = "Join($" + n.name + ")";
      break;
    case LogicalKind::kLet:
      label = "Let($" + n.name + ")";
      break;
    case LogicalKind::kWhere:
      label = "Where";
      break;
    case LogicalKind::kSort: {
      const size_t keys =
          n.order_source == nullptr ? 0 : n.order_source->order_by.size();
      label = "Sort(" + std::to_string(keys) +
              (keys == 1 ? " key)" : " keys)");
      break;
    }
  }
  if (!n.predicates.empty()) {
    label += " [" + std::to_string(n.predicates.size()) +
             (n.predicates.size() == 1 ? " pred]" : " preds]");
  }
  if (n.cardinality != Card::kUnknown) {
    label += std::string(" {card=") + CardName(n.cardinality) + "}";
  }
  if (n.estimated_rows >= 0) {
    label += " {est=" + FormatEstimate(n.estimated_rows) + "}";
  }
  return label;
}

void Render(const LogicalNode& n, int depth, std::string& out) {
  out.append(static_cast<size_t>(depth) * 2, ' ');
  out += NodeLabel(n);
  out.push_back('\n');
  for (const LogicalNodePtr& input : n.inputs) {
    Render(*input, depth + 1, out);
  }
}

class Builder {
 public:
  Builder(const PlanAnnotations* notes, const CompilationOptions& options,
          bool guided_allowed)
      : notes_(notes), options_(options), guided_allowed_(guided_allowed) {}

  LogicalNodePtr BuildItem(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kVariable: {
        auto node = std::make_unique<LogicalNode>(LogicalKind::kScan);
        node->name = e.variable;
        return node;
      }
      case ExprKind::kPath:
        return BuildPath(e);
      case ExprKind::kFilter: {
        auto node = std::make_unique<LogicalNode>(LogicalKind::kFilter);
        for (const auto& pred : e.children) {
          node->predicates.push_back(pred.get());
        }
        node->inputs.push_back(BuildItem(*e.lhs));
        return node;
      }
      case ExprKind::kFlwor:
        return BuildFlwor(e);
      case ExprKind::kConstructor: {
        auto node = std::make_unique<LogicalNode>(LogicalKind::kConstruct);
        node->name = e.element_name;
        node->expr = &e;
        return node;
      }
      case ExprKind::kFunctionCall:
        if (e.children.size() == 1 &&
            AggregateFunctions().count(e.function_name) != 0) {
          LogicalNodePtr arg = BuildItem(*e.children.front());
          if (arg->kind != LogicalKind::kEval) {
            auto node =
                std::make_unique<LogicalNode>(LogicalKind::kAggregate);
            node->name = e.function_name;
            node->inputs.push_back(std::move(arg));
            return node;
          }
        }
        return Fallback(e);
      default:
        return Fallback(e);
    }
  }

 private:
  LogicalNodePtr Fallback(const Expr& e) {
    auto node = std::make_unique<LogicalNode>(LogicalKind::kEval);
    node->expr = &e;
    return node;
  }

  std::vector<StepExpansion> ExpansionsFor(const Step& step) const {
    if (notes_ != nullptr) {
      auto it = notes_->step_expansions.find(&step);
      if (it != notes_->step_expansions.end()) return it->second;
    }
    return step.expansions;
  }

  Card CardinalityFor(const Expr& e) const {
    if (notes_ == nullptr) return Card::kUnknown;
    auto it = notes_->path_cardinality.find(&e);
    return it == notes_->path_cardinality.end() ? Card::kUnknown : it->second;
  }

  LogicalNodePtr BuildPath(const Expr& e) {
    if (e.path_from_root || e.path_root == nullptr) {
      // Absolute and context-relative paths need the interpreter's
      // document-node / dynamic-focus handling; no canned query takes
      // this shape at the top level.
      return Fallback(e);
    }
    LogicalNodePtr current = BuildItem(*e.path_root);
    for (size_t i = 0; i < e.steps.size(); ++i) {
      const Step& step = e.steps[i];
      // `//name` fusion, mirroring the interpreter's condition — except
      // that the plan fuses even without analyzer chains (the full-scan
      // descendant operator selects the same nodes the unfused step pair
      // does, per-parent groups preserving predicate positions).
      if (step.axis == Axis::kDescendantOrSelf && step.name_test == "*" &&
          step.predicates.empty() && i + 1 < e.steps.size() &&
          e.steps[i + 1].axis == Axis::kChild) {
        const Step& target = e.steps[i + 1];
        auto node =
            std::make_unique<LogicalNode>(LogicalKind::kDescendantStep);
        node->name = target.name_test;
        for (const auto& pred : target.predicates) {
          node->predicates.push_back(pred.get());
        }
        node->expansions = ExpansionsFor(target);
        node->access = guided_allowed_ && !node->expansions.empty()
                           ? AccessPath::kGuidedWalk
                           : AccessPath::kFullScan;
        node->inputs.push_back(std::move(current));
        current = std::move(node);
        ++i;
        continue;
      }
      auto node = std::make_unique<LogicalNode>(
          step.axis == Axis::kChild ? LogicalKind::kChildStep
                                    : LogicalKind::kAxisStep);
      node->name = step.name_test;
      node->axis = step.axis;
      for (const auto& pred : step.predicates) {
        node->predicates.push_back(pred.get());
      }
      node->inputs.push_back(std::move(current));
      current = std::move(node);
    }
    current->cardinality = CardinalityFor(e);
    if (options_.cost_model.trust_statistics &&
        current->cardinality == Card::kEmpty) {
      // Cardinality rewrite: the instance statistics bound this path to
      // zero matches. The pruned subtree stays attached for explain
      // output; execution never opens it.
      auto empty = std::make_unique<LogicalNode>(LogicalKind::kEmpty);
      empty->cardinality = Card::kEmpty;
      empty->inputs.push_back(std::move(current));
      return empty;
    }
    return current;
  }

  LogicalNodePtr BuildFlwor(const Expr& e) {
    auto pipe = std::make_unique<LogicalNode>(LogicalKind::kSingleton);
    LogicalNodePtr pipeline = std::move(pipe);
    const size_t scope_mark = scope_vars_.size();
    size_t fi = 0;
    size_t li = 0;
    bool first_for = true;
    for (char kind : e.clause_order) {
      if (kind == 'f') {
        const ForClause& clause = e.for_clauses[fi++];
        // An input with no free variable bound anywhere in the enclosing
        // pipeline is tuple-invariant: evaluate it once (nested-loop join
        // with a materialized right side) instead of once per tuple.
        bool independent = !first_for && !scope_vars_.empty();
        if (independent) {
          for (const std::string& name : FreeVariables(*clause.input)) {
            if (InScope(name)) {
              independent = false;
              break;
            }
          }
        }
        auto node = std::make_unique<LogicalNode>(
            independent ? LogicalKind::kJoin : LogicalKind::kFor);
        node->name = clause.variable;
        node->position_variable = clause.position_variable;
        node->inputs.push_back(std::move(pipeline));
        node->inputs.push_back(BuildItem(*clause.input));
        pipeline = std::move(node);
        scope_vars_.push_back(clause.variable);
        if (!clause.position_variable.empty()) {
          scope_vars_.push_back(clause.position_variable);
        }
        first_for = false;
      } else {
        const LetClause& clause = e.let_clauses[li++];
        auto node = std::make_unique<LogicalNode>(LogicalKind::kLet);
        node->name = clause.variable;
        node->inputs.push_back(std::move(pipeline));
        node->inputs.push_back(BuildItem(*clause.value));
        pipeline = std::move(node);
        scope_vars_.push_back(clause.variable);
      }
    }
    if (e.where != nullptr) {
      auto node = std::make_unique<LogicalNode>(LogicalKind::kWhere);
      node->expr = e.where.get();
      node->inputs.push_back(std::move(pipeline));
      pipeline = std::move(node);
    }
    if (!e.order_by.empty()) {
      auto node = std::make_unique<LogicalNode>(LogicalKind::kSort);
      node->order_source = &e;
      node->inputs.push_back(std::move(pipeline));
      pipeline = std::move(node);
    }
    auto ret = std::make_unique<LogicalNode>(LogicalKind::kReturn);
    ret->inputs.push_back(std::move(pipeline));
    ret->inputs.push_back(BuildItem(*e.return_expr));
    scope_vars_.resize(scope_mark);
    return ret;
  }

  bool InScope(const std::string& name) const {
    for (const std::string& var : scope_vars_) {
      if (var == name) return true;
    }
    return false;
  }

  const PlanAnnotations* notes_;
  const CompilationOptions& options_;
  const bool guided_allowed_;
  /// FLWOR variables visible at the point being compiled (outer pipelines
  /// included) — the set a kJoin input must be disjoint from.
  std::vector<std::string> scope_vars_;
};

// ---------------------------------------------------------------------------
// Access-path selection: pattern matching + costing of index probes.
// ---------------------------------------------------------------------------

/// True when `text` parses as a number. Probes are restricted to
/// non-numeric literals: the evaluator's general comparison switches to
/// numeric semantics when both operands atomize to numbers, which a
/// string-keyed B+-tree cannot answer ("42" vs "042").
bool IsNumericText(const std::string& text) {
  return !std::isnan(ParseDouble(text));
}

bool IsWordChar(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c == '_';
}

/// True when `word` tokenizes to itself — the only literals a word probe
/// against the inverted index can answer (ContainsWord's boundaries and
/// the index tokenizer agree on [A-Za-z0-9_] runs).
bool IsWordToken(const std::string& word) {
  if (word.empty()) return false;
  for (char c : word) {
    if (!IsWordChar(c)) return false;
  }
  return true;
}

/// Predicates whose static form can never yield a numeric singleton, so
/// the evaluator's positional-predicate rule ((double)(pos) == value)
/// cannot trigger. Index probes re-apply predicates against a candidate
/// set with different positions than the original enumeration, which is
/// only sound when every predicate on the step is value-based.
bool PredicateStaticallyNonPositional(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kComparison:
    case ExprKind::kLogical:
    case ExprKind::kQuantified:
      return true;
    case ExprKind::kPath:
    case ExprKind::kFilter:
      // Node-sequence existence tests.
      return true;
    case ExprKind::kFunctionCall:
      return e.function_name == "empty" || e.function_name == "exists" ||
             e.function_name == "not" || e.function_name == "contains" ||
             e.function_name == "contains-word" ||
             e.function_name == "starts-with";
    default:
      return false;
  }
}

bool AllPredicatesNonPositional(const LogicalNode& node) {
  for (const Expr* pred : node.predicates) {
    if (pred == nullptr || !PredicateStaticallyNonPositional(*pred)) {
      return false;
    }
  }
  return true;
}

/// A context-relative single step ("hw", "@id"): returns the step, else
/// null.
const Step* SingleRelativeStep(const Expr& e) {
  if (e.kind != ExprKind::kPath || e.path_from_root ||
      e.path_root != nullptr || e.steps.size() != 1) {
    return nullptr;
  }
  const Step& step = e.steps.front();
  if (!step.predicates.empty() || step.name_test == "*") return nullptr;
  return &step;
}

/// `[self::N]` predicate: returns N, else "".
std::string SelfTestName(const Expr& pred) {
  const Step* step = SingleRelativeStep(pred);
  if (step != nullptr && step->axis == Axis::kSelf) return step->name_test;
  return "";
}

/// Matched `rel-path = "literal"` equality (either operand order).
struct ValueEqMatch {
  const Step* step = nullptr;  // child:: or attribute:: single step
  std::string literal;
};

std::optional<ValueEqMatch> MatchValueEq(const Expr& pred) {
  if (pred.kind != ExprKind::kComparison ||
      pred.compare_op != CompareOp::kEq || pred.lhs == nullptr ||
      pred.rhs == nullptr) {
    return std::nullopt;
  }
  const Expr* path = pred.lhs.get();
  const Expr* lit = pred.rhs.get();
  if (path->kind == ExprKind::kStringLiteral) std::swap(path, lit);
  if (lit->kind != ExprKind::kStringLiteral ||
      IsNumericText(lit->string_value)) {
    return std::nullopt;
  }
  const Step* step = SingleRelativeStep(*path);
  if (step == nullptr ||
      (step->axis != Axis::kChild && step->axis != Axis::kAttribute)) {
    return std::nullopt;
  }
  return ValueEqMatch{step, lit->string_value};
}

/// Matched `$v/child >= "lo"` / `$v/child <= "hi"` bound (either operand
/// order; `"lo" <= $v/child` normalizes to a lower bound).
struct RangeBoundMatch {
  std::string variable;
  std::string child;
  std::string literal;
  bool lower = false;
};

std::optional<RangeBoundMatch> MatchRangeBound(const Expr& e) {
  if (e.kind != ExprKind::kComparison || e.lhs == nullptr ||
      e.rhs == nullptr) {
    return std::nullopt;
  }
  if (e.compare_op != CompareOp::kGe && e.compare_op != CompareOp::kLe) {
    return std::nullopt;
  }
  const Expr* path = e.lhs.get();
  const Expr* lit = e.rhs.get();
  bool lower = e.compare_op == CompareOp::kGe;  // path >= lit
  if (path->kind == ExprKind::kStringLiteral) {
    std::swap(path, lit);
    lower = !lower;  // lit <= path  ==  path >= lit
  }
  if (lit->kind != ExprKind::kStringLiteral ||
      IsNumericText(lit->string_value)) {
    return std::nullopt;
  }
  if (path->kind != ExprKind::kPath || path->path_from_root ||
      path->path_root == nullptr ||
      path->path_root->kind != ExprKind::kVariable ||
      path->steps.size() != 1) {
    return std::nullopt;
  }
  const Step& step = path->steps.front();
  if (step.axis != Axis::kChild || !step.predicates.empty() ||
      step.name_test == "*") {
    return std::nullopt;
  }
  return RangeBoundMatch{path->path_root->variable, step.name_test,
                         lit->string_value, lower};
}

/// True when `e` is a downward path (child/descendant/self/attribute axes
/// only) rooted at one of `vars` — or a bare variable reference. Probing
/// text from such expressions is complete: every word they can see lives
/// in the subtree of the bound element.
bool IsDownwardFromVars(const Expr& e, const std::set<std::string>& vars) {
  if (e.kind == ExprKind::kVariable) return vars.count(e.variable) != 0;
  if (e.kind != ExprKind::kPath || e.path_from_root ||
      e.path_root == nullptr || e.path_root->kind != ExprKind::kVariable ||
      vars.count(e.path_root->variable) == 0) {
    return false;
  }
  for (const Step& step : e.steps) {
    if (step.axis != Axis::kChild && step.axis != Axis::kDescendant &&
        step.axis != Axis::kDescendantOrSelf && step.axis != Axis::kSelf &&
        step.axis != Axis::kAttribute) {
      return false;
    }
  }
  return true;
}

/// Finds a `contains-word(<downward path from vars>, "word")` call in `e`,
/// descending through and-conjunctions and some-quantifiers whose input is
/// itself downward from `vars` (the quantified variable joins the set).
std::string FindContainsWord(const Expr& e, std::set<std::string> vars) {
  switch (e.kind) {
    case ExprKind::kFunctionCall:
      if (e.function_name == "contains-word" && e.children.size() == 2 &&
          IsDownwardFromVars(*e.children[0], vars) &&
          e.children[1]->kind == ExprKind::kStringLiteral &&
          IsWordToken(e.children[1]->string_value)) {
        return e.children[1]->string_value;
      }
      return "";
    case ExprKind::kLogical: {
      if (e.logical_op != LogicalOp::kAnd) return "";
      if (e.lhs != nullptr) {
        std::string word = FindContainsWord(*e.lhs, vars);
        if (!word.empty()) return word;
      }
      return e.rhs != nullptr ? FindContainsWord(*e.rhs, vars) : "";
    }
    case ExprKind::kQuantified: {
      if (e.quantifier_every || e.quant_input == nullptr ||
          e.quant_satisfies == nullptr ||
          !IsDownwardFromVars(*e.quant_input, vars)) {
        return "";
      }
      vars.insert(e.quant_variable);
      return FindContainsWord(*e.quant_satisfies, vars);
    }
    default:
      return "";
  }
}

/// Flattens a where expression's top-level and-conjunction.
void FlattenConjuncts(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == ExprKind::kLogical && e.logical_op == LogicalOp::kAnd) {
    if (e.lhs != nullptr) FlattenConjuncts(*e.lhs, out);
    if (e.rhs != nullptr) FlattenConjuncts(*e.rhs, out);
    return;
  }
  out.push_back(&e);
}

/// The shapes an index probe can replace: a step or filter directly over
/// a variable scan. The probe validates every index candidate against the
/// scanned root set plus this structural context, so its output is always
/// the subset of index postings the replaced subtree would have produced.
struct DrivingShape {
  bool ok = false;
  ProbeContext context = ProbeContext::kRoots;
  std::string target;  // step name test; "" for kRoots
  std::string source;  // scanned variable name
};

DrivingShape MatchDrivingShape(const LogicalNode& node) {
  DrivingShape shape;
  if (node.kind == LogicalKind::kScan) {
    shape.ok = node.predicates.empty();
    shape.context = ProbeContext::kRoots;
    shape.source = node.name;
    return shape;
  }
  if (node.inputs.size() != 1 ||
      node.inputs[0]->kind != LogicalKind::kScan ||
      !AllPredicatesNonPositional(node)) {
    return shape;
  }
  shape.source = node.inputs[0]->name;
  switch (node.kind) {
    case LogicalKind::kFilter:
      shape.ok = true;
      shape.context = ProbeContext::kRoots;
      return shape;
    case LogicalKind::kChildStep:
      shape.ok = node.name != "*";
      shape.context = ProbeContext::kRootChildren;
      shape.target = node.name;
      return shape;
    case LogicalKind::kDescendantStep:
      shape.ok = node.name != "*";
      shape.context = ProbeContext::kRootDescendants;
      shape.target = node.name;
      return shape;
    default:
      return shape;
  }
}

/// Cost-based probe selection over a built logical plan. Runs only for
/// AccessPathMode::kAuto (probe when estimated cheaper than the best
/// walk) and kForceIndex (probe wherever eligible).
class AccessPathSelector {
 public:
  AccessPathSelector(const CompilationOptions& options,
                     const IndexCatalog& catalog)
      : options_(options), catalog_(catalog) {}

  void Run(LogicalPlan& plan) {
    if (plan.root != nullptr) Visit(plan.root);
    plan.access_path_summary = Summary(plan);
  }

  const std::vector<std::string>& chosen() const { return chosen_; }

 private:
  bool ForceIndex() const {
    return options_.access_path.mode == AccessPathMode::kForceIndex;
  }

  bool IndexAllowed(const std::string& name) const {
    const std::string& forced = options_.access_path.forced_index;
    return forced.empty() || forced == name;
  }

  uint64_t CountOf(const std::string& name) const {
    auto it = catalog_.collection.elements_by_name.find(name);
    return it == catalog_.collection.elements_by_name.end() ? 0 : it->second;
  }

  /// Estimated cost of running the replaced subtree once (node visits).
  double WalkCost(const LogicalNode& node) const {
    const CostModelOptions& cm = options_.cost_model;
    const double docs =
        static_cast<double>(catalog_.collection.documents);
    switch (node.kind) {
      case LogicalKind::kScan:
      case LogicalKind::kFilter:
        return docs * cm.node_visit_cost;
      case LogicalKind::kChildStep:
        return (docs + static_cast<double>(CountOf(node.name))) *
               cm.node_visit_cost;
      case LogicalKind::kDescendantStep: {
        if (node.access == AccessPath::kGuidedWalk) {
          double visits = docs;
          for (const StepExpansion& chain : node.expansions) {
            for (const std::string& label : chain.labels) {
              visits += static_cast<double>(CountOf(label));
            }
          }
          return visits * cm.node_visit_cost;
        }
        return static_cast<double>(catalog_.collection.total_elements) *
               cm.node_visit_cost;
      }
      default:
        return static_cast<double>(catalog_.collection.total_elements) *
               cm.node_visit_cost;
    }
  }

  double ProbeCost(const IndexStats& stats, double estimated_rows) const {
    const CostModelOptions& cm = options_.cost_model;
    return static_cast<double>(stats.height) * cm.page_read_cost +
           estimated_rows * cm.posting_resolve_cost;
  }

  bool Beats(double probe_cost, double walk_cost) const {
    if (ForceIndex()) return true;
    return probe_cost <
           options_.cost_model.index_advantage_margin * walk_cost;
  }

  /// Wraps `node` (moving it under the wrapper as runtime fallback) with
  /// a probe of `kind`; the wrapper inherits the original's predicates as
  /// residual re-checks and gets a fresh scan of the source variable to
  /// validate candidates against.
  void Wrap(LogicalNodePtr& node, LogicalKind kind, IndexProbe probe,
            double estimated_rows, const std::string& source) {
    auto wrapper = std::make_unique<LogicalNode>(kind);
    probe.catalog_epoch = catalog_.epoch;
    wrapper->probe = std::move(probe);
    wrapper->estimated_rows = estimated_rows;
    wrapper->predicates = node->predicates;
    wrapper->cardinality = node->cardinality;
    auto roots = std::make_unique<LogicalNode>(LogicalKind::kScan);
    roots->name = source;
    wrapper->inputs.push_back(std::move(node));
    wrapper->inputs.push_back(std::move(roots));
    node = std::move(wrapper);
    chosen_.push_back(NodeLabel(*node));
  }

  /// Equality probe on a step/filter whose input is a variable scan
  /// (Q5/Q8/Q12-style `item[@id = "…"]`, `//entry[hw = "…"]`,
  /// `$input[self::order][@id = "…"]`).
  bool TryValueProbe(LogicalNodePtr& node) {
    const DrivingShape shape = MatchDrivingShape(*node);
    if (!shape.ok || node->predicates.empty()) return false;
    for (const Expr* pred : node->predicates) {
      auto eq = MatchValueEq(*pred);
      if (!eq.has_value()) continue;
      std::string path;
      bool is_attribute = eq->step->axis == Axis::kAttribute;
      if (is_attribute) {
        // Attribute postings are keyed by owning element name; resolve it
        // from the step target, a [self::N] predicate, or — for a bare
        // root filter — the collection's single root tag.
        std::string owner = shape.target;
        if (owner.empty()) {
          for (const Expr* p : node->predicates) {
            std::string self_name = SelfTestName(*p);
            if (!self_name.empty()) {
              owner = self_name;
              break;
            }
          }
        }
        if (owner.empty() &&
            catalog_.collection.root_names.size() == 1) {
          owner = catalog_.collection.root_names.front();
        }
        if (owner.empty()) continue;
        path = owner + "/@" + eq->step->name_test;
      } else {
        path = eq->step->name_test;
      }
      const IndexStats* stats = catalog_.FindValueIndexForPath(path);
      if (stats == nullptr || !IndexAllowed(stats->name)) continue;
      const double est =
          static_cast<double>(stats->entries) /
          static_cast<double>(std::max<uint64_t>(stats->distinct_keys, 1));
      if (!Beats(ProbeCost(*stats, est), WalkCost(*node))) continue;
      IndexProbe probe;
      probe.kind = ProbeKind::kValueEquals;
      probe.context = shape.context;
      probe.index = stats->name;
      probe.key = eq->literal;
      probe.key_is_attribute = is_attribute;
      probe.target_name = shape.target;
      Wrap(node, LogicalKind::kIndexScan, std::move(probe), est,
           shape.source);
      return true;
    }
    return false;
  }

  /// Walks a tuple pipeline (inputs[0] chain) looking for the kFor that
  /// binds `variable` with an index-eligible driving input.
  LogicalNode* FindFor(LogicalNode& pipeline, const std::string& variable) {
    for (LogicalNode* node = &pipeline; node != nullptr;
         node = node->inputs.empty() ? nullptr : node->inputs[0].get()) {
      if (node->kind == LogicalKind::kFor && node->name == variable) {
        // Probing filters the for's item sequence early, which is only
        // sound when tuple positions cannot be observed.
        if (!node->position_variable.empty()) return nullptr;
        return node;
      }
      switch (node->kind) {
        case LogicalKind::kFor:
        case LogicalKind::kJoin:
        case LogicalKind::kLet:
        case LogicalKind::kWhere:
        case LogicalKind::kSort:
          continue;
        default:
          return nullptr;
      }
    }
    return nullptr;
  }

  /// Range + text probes driven from a where clause. The where stays in
  /// the pipeline and re-checks every conjunct exactly, so the probe only
  /// needs to produce a superset of the items that can pass — which lets
  /// it drop whole documents/subtrees the index proves word- or key-free.
  void TryWhereProbes(LogicalNode& where) {
    if (where.expr == nullptr || where.inputs.empty()) return;
    std::vector<const Expr*> conjuncts;
    FlattenConjuncts(*where.expr, conjuncts);
    TryRangeProbe(where, conjuncts);
    TryTextProbe(where, conjuncts);
  }

  void TryRangeProbe(LogicalNode& where,
                     const std::vector<const Expr*>& conjuncts) {
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      auto lo = MatchRangeBound(*conjuncts[i]);
      if (!lo.has_value() || !lo->lower) continue;
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        auto hi = MatchRangeBound(*conjuncts[j]);
        if (!hi.has_value() || hi->lower || hi->variable != lo->variable ||
            hi->child != lo->child || hi->literal < lo->literal) {
          continue;
        }
        LogicalNode* for_node = FindFor(*where.inputs[0], lo->variable);
        if (for_node == nullptr || for_node->inputs.size() != 2) continue;
        LogicalNodePtr& driving = for_node->inputs[1];
        const DrivingShape shape = MatchDrivingShape(*driving);
        if (!shape.ok) continue;
        const IndexStats* stats = catalog_.FindValueIndexForPath(lo->child);
        // A conjunction pair only decomposes into one interval probe when
        // the path is single-valued per element (`d >= lo and d <= hi`
        // with two different d's has no witness in [lo, hi]).
        if (stats == nullptr || !stats->single_valued ||
            !IndexAllowed(stats->name)) {
          continue;
        }
        const double est = static_cast<double>(stats->entries) / 3.0;
        if (!Beats(ProbeCost(*stats, est), WalkCost(*driving))) continue;
        IndexProbe probe;
        probe.kind = ProbeKind::kValueRange;
        probe.context = shape.context;
        probe.index = stats->name;
        probe.lo = lo->literal;
        probe.hi = hi->literal;
        probe.key_is_attribute = false;
        probe.target_name = shape.target;
        Wrap(driving, LogicalKind::kIndexRangeScan, std::move(probe), est,
             shape.source);
        return;
      }
    }
  }

  void TryTextProbe(LogicalNode& where,
                    const std::vector<const Expr*>& conjuncts) {
    const IndexStats* stats = catalog_.FindByKind(IndexKind::kText);
    if (stats == nullptr || !IndexAllowed(stats->name)) return;
    for (const Expr* conjunct : conjuncts) {
      // The conjunct must pin the word to $v's subtree; which variable it
      // is rooted at falls out of the quantifier scan.
      for (LogicalNode* node = where.inputs[0].get(); node != nullptr;
           node = node->inputs.empty() ? nullptr : node->inputs[0].get()) {
        if (node->kind != LogicalKind::kFor &&
            node->kind != LogicalKind::kJoin &&
            node->kind != LogicalKind::kLet &&
            node->kind != LogicalKind::kWhere &&
            node->kind != LogicalKind::kSort) {
          break;
        }
        if (node->kind != LogicalKind::kFor ||
            !node->position_variable.empty() || node->inputs.size() != 2 ||
            node->inputs[1]->kind == LogicalKind::kTextProbe) {
          continue;
        }
        const std::string word =
            FindContainsWord(*conjunct, {node->name});
        if (word.empty()) continue;
        LogicalNodePtr& driving = node->inputs[1];
        const DrivingShape shape = MatchDrivingShape(*driving);
        if (!shape.ok) continue;
        const double est =
            static_cast<double>(stats->entries) /
            static_cast<double>(std::max<uint64_t>(stats->distinct_keys, 1));
        // Without the probe, the where clause has to tokenize every text
        // node under each driven element to test the word — across all
        // candidates that is roughly the whole collection, regardless of
        // how cheap producing the driven elements themselves is (a bare
        // `for $x in $input` driver costs only `documents` visits but
        // still forces the full-subtree word search).
        const double word_search_cost =
            static_cast<double>(catalog_.collection.total_elements) *
            options_.cost_model.node_visit_cost;
        if (!Beats(ProbeCost(*stats, est),
                   WalkCost(*driving) + word_search_cost)) {
          continue;
        }
        IndexProbe probe;
        probe.kind = ProbeKind::kTextWord;
        probe.context = shape.context;
        probe.index = stats->name;
        probe.word = word;
        probe.target_name = shape.target;
        Wrap(driving, LogicalKind::kTextProbe, std::move(probe), est,
             shape.source);
        return;
      }
    }
  }

  void Visit(LogicalNodePtr& node) {
    switch (node->kind) {
      case LogicalKind::kIndexScan:
      case LogicalKind::kIndexRangeScan:
      case LogicalKind::kTextProbe:
        // Already probed; the fallback subtree stays as compiled.
        return;
      case LogicalKind::kWhere:
        TryWhereProbes(*node);
        break;
      case LogicalKind::kChildStep:
      case LogicalKind::kDescendantStep:
      case LogicalKind::kFilter:
        if (TryValueProbe(node)) return;
        break;
      default:
        break;
    }
    for (LogicalNodePtr& input : node->inputs) {
      Visit(input);
    }
  }

  std::string Summary(const LogicalPlan& plan) const {
    if (!chosen_.empty()) {
      std::string out;
      for (const std::string& choice : chosen_) {
        if (!out.empty()) out += ", ";
        out += choice;
      }
      return out;
    }
    return PlanUsesGuidedWalk(plan) ? "guided-walk" : "full-scan";
  }

  static bool NodeUsesGuidedWalk(const LogicalNode& node) {
    if (node.kind == LogicalKind::kDescendantStep &&
        node.access == AccessPath::kGuidedWalk) {
      return true;
    }
    for (const LogicalNodePtr& input : node.inputs) {
      if (NodeUsesGuidedWalk(*input)) return true;
    }
    return false;
  }

  static bool PlanUsesGuidedWalk(const LogicalPlan& plan) {
    return plan.root != nullptr && NodeUsesGuidedWalk(*plan.root);
  }

  const CompilationOptions& options_;
  const IndexCatalog& catalog_;
  std::vector<std::string> chosen_;
};

bool NodeUsesGuided(const LogicalNode& node) {
  if (node.kind == LogicalKind::kDescendantStep &&
      node.access == AccessPath::kGuidedWalk) {
    return true;
  }
  for (const LogicalNodePtr& input : node.inputs) {
    if (NodeUsesGuided(*input)) return true;
  }
  return false;
}

void CountProbes(const LogicalNode& node, const LogicalNode*& single,
                 int& count) {
  if (node.probe.has_value()) {
    ++count;
    single = &node;
  }
  for (const LogicalNodePtr& input : node.inputs) {
    CountProbes(*input, single, count);
  }
}

void CountUses(const Expr& e, const std::string& name, int& count) {
  if (e.kind == ExprKind::kVariable && e.variable == name) ++count;
  if (e.path_root != nullptr) CountUses(*e.path_root, name, count);
  for (const Step& step : e.steps) {
    for (const auto& pred : step.predicates) CountUses(*pred, name, count);
  }
  for (const auto& child : e.children) CountUses(*child, name, count);
  if (e.lhs != nullptr) CountUses(*e.lhs, name, count);
  if (e.rhs != nullptr) CountUses(*e.rhs, name, count);
  if (e.then_branch != nullptr) CountUses(*e.then_branch, name, count);
  if (e.else_branch != nullptr) CountUses(*e.else_branch, name, count);
  for (const ForClause& clause : e.for_clauses) {
    if (clause.input != nullptr) CountUses(*clause.input, name, count);
  }
  for (const LetClause& clause : e.let_clauses) {
    if (clause.value != nullptr) CountUses(*clause.value, name, count);
  }
  if (e.where != nullptr) CountUses(*e.where, name, count);
  for (const OrderSpec& spec : e.order_by) {
    if (spec.key != nullptr) CountUses(*spec.key, name, count);
  }
  if (e.return_expr != nullptr) CountUses(*e.return_expr, name, count);
  if (e.quant_input != nullptr) CountUses(*e.quant_input, name, count);
  if (e.quant_satisfies != nullptr) {
    CountUses(*e.quant_satisfies, name, count);
  }
  for (const ConstructorAttr& attr : e.constructor_attrs) {
    for (const ConstructorContent& part : attr.value_parts) {
      if (part.expr != nullptr) CountUses(*part.expr, name, count);
    }
  }
  for (const ConstructorContent& part : e.constructor_content) {
    if (part.expr != nullptr) CountUses(*part.expr, name, count);
    if (part.child != nullptr) CountUses(*part.child, name, count);
  }
}

}  // namespace

const char* ExprKindLabel(const Expr* e) {
  if (e == nullptr) return "expr";
  switch (e->kind) {
    case ExprKind::kStringLiteral:
      return "string-literal";
    case ExprKind::kNumberLiteral:
      return "number-literal";
    case ExprKind::kVariable:
      return "variable";
    case ExprKind::kContextItem:
      return "context-item";
    case ExprKind::kSequence:
      return "sequence";
    case ExprKind::kPath:
      return "path";
    case ExprKind::kComparison:
      return "comparison";
    case ExprKind::kArithmetic:
      return "arithmetic";
    case ExprKind::kLogical:
      return "logical";
    case ExprKind::kFunctionCall:
      return "function-call";
    case ExprKind::kFlwor:
      return "flwor";
    case ExprKind::kQuantified:
      return "quantified";
    case ExprKind::kIfThenElse:
      return "if-then-else";
    case ExprKind::kConstructor:
      return "constructor";
    case ExprKind::kFilter:
      return "filter";
    case ExprKind::kRange:
      return "range";
    case ExprKind::kUnion:
      return "union";
  }
  return "expr";
}

const char* AxisLabel(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kSelf:
      return "self";
    case Axis::kParent:
      return "parent";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
  }
  return "?";
}

const char* CardName(Card card) {
  switch (card) {
    case Card::kUnknown:
      return "unknown";
    case Card::kEmpty:
      return "empty";
    case Card::kAtMostOne:
      return "at-most-one";
    case Card::kMany:
      return "many";
  }
  return "?";
}

const char* AccessPathModeName(AccessPathMode mode) {
  switch (mode) {
    case AccessPathMode::kAuto:
      return "auto";
    case AccessPathMode::kForceGuided:
      return "force-guided";
    case AccessPathMode::kForceScan:
      return "force-scan";
    case AccessPathMode::kForceIndex:
      return "force-index";
  }
  return "?";
}

std::vector<std::string> FreeVariables(const Expr& expr) {
  std::set<std::string> free;
  CollectFree(expr, {}, free);
  return {free.begin(), free.end()};
}

int CountVariableUses(const Expr& expr, const std::string& name) {
  int count = 0;
  CountUses(expr, name, count);
  return count;
}

const LogicalNode* SingleInputProbe(const LogicalPlan& plan) {
  if (plan.root == nullptr) return nullptr;
  const LogicalNode* single = nullptr;
  int count = 0;
  CountProbes(*plan.root, single, count);
  if (count != 1 || single == nullptr || single->inputs.size() != 2 ||
      single->inputs[1]->name != "input") {
    return nullptr;
  }
  return single;
}

std::string LogicalPlan::ToString() const {
  std::string out;
  if (root != nullptr) Render(*root, 0, out);
  return out;
}

Result<LogicalPlan> BuildLogicalPlan(const Expr& query,
                                     const PlanAnnotations* notes,
                                     const CompilationOptions& options,
                                     const IndexCatalog* catalog) {
  const AccessPathMode mode = options.access_path.mode;
  const bool guided_allowed =
      mode == AccessPathMode::kForceGuided ||
      (mode != AccessPathMode::kForceScan && options.access_path.allow_guided);
  Builder builder(notes, options, guided_allowed);
  LogicalPlan plan;
  plan.root = builder.BuildItem(query);
  if (plan.root == nullptr) {
    return Status::Internal("logical planning produced no root");
  }
  if (catalog != nullptr && (mode == AccessPathMode::kAuto ||
                             mode == AccessPathMode::kForceIndex)) {
    AccessPathSelector selector(options, *catalog);
    selector.Run(plan);
  } else {
    plan.access_path_summary =
        NodeUsesGuided(*plan.root) ? "guided-walk" : "full-scan";
  }
  return plan;
}

}  // namespace xbench::xquery::plan
