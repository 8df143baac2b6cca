#include "xquery/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/serializer.h"
#include "xquery/functions.h"
#include "xquery/parser.h"
#include "xquery/step_eval.h"

namespace xbench::xquery {
namespace {

/// The dynamic focus: context item, position and size.
struct Focus {
  Item item;
  size_t position = 0;
  size_t size = 0;
  bool valid = false;
};

/// General comparison on two atomized values: numeric when both parse as
/// numbers, string otherwise.
bool CompareAtomic(const Item& a, const Item& b, CompareOp op) {
  const auto na = AtomizeToNumber(a);
  const auto nb = AtomizeToNumber(b);
  int cmp;
  if (na.has_value() && nb.has_value()) {
    cmp = *na < *nb ? -1 : (*na > *nb ? 1 : 0);
  } else {
    const std::string sa = AtomizeToString(a);
    const std::string sb = AtomizeToString(b);
    cmp = sa < sb ? -1 : (sa > sb ? 1 : 0);
  }
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// Span name for the operator kinds worth tracing individually (the ones
/// that dominate query time); others return nullptr and get no span.
const char* OperatorSpanName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kPath:
      return "xquery.op.path";
    case ExprKind::kFlwor:
      return "xquery.op.flwor";
    case ExprKind::kQuantified:
      return "xquery.op.quantified";
    case ExprKind::kFunctionCall:
      return "xquery.op.function";
    case ExprKind::kConstructor:
      return "xquery.op.constructor";
    default:
      return nullptr;
  }
}

/// The interpreter's counters, resolved once: compiled plans build one
/// evaluator per predicate decision, where condition and order key, so a
/// registry lookup (a mutex and a map probe) per construction would be
/// paid once per node on every lane. The registry never frees a counter
/// (ResetAll only zeroes it), so the references stay valid.
obs::Counter& OperatorEvalsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "xbench.xquery.operator_evals");
  return counter;
}

obs::Counter& NodesVisitedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "xbench.xquery.nodes_visited");
  return counter;
}

class Evaluator {
 public:
  /// `outer_scope` (nullable) holds the bindings of enclosing plan
  /// tuples; it is read in place, never copied, and must outlive the
  /// evaluator.
  Evaluator(const Bindings& bindings, const EvalOptions& options,
            xml::Arena& arena,
            const std::vector<ScopeBinding>* outer_scope = nullptr)
      : bindings_(bindings),
        options_(options),
        arena_(arena),
        outer_scope_(outer_scope),
        operator_evals_(OperatorEvalsCounter()),
        nodes_visited_(NodesVisitedCounter()),
        trace_operators_(obs::Tracer::Default().enabled()) {}

  Result<Sequence> Eval(const Expr& e, const Focus& focus) {
    ++operator_evals_.count;
    if (trace_operators_) {
      if (const char* span_name = OperatorSpanName(e.kind)) {
        obs::ScopedSpan span(span_name);
        return EvalDispatch(e, focus);
      }
    }
    return EvalDispatch(e, focus);
  }

  Result<Sequence> EvalDispatch(const Expr& e, const Focus& focus) {
    switch (e.kind) {
      case ExprKind::kStringLiteral:
        return Sequence{Item::String(e.string_value)};
      case ExprKind::kNumberLiteral:
        return Sequence{Item::Number(e.number_value)};
      case ExprKind::kVariable:
        return LookupVariable(e.variable);
      case ExprKind::kContextItem:
        if (!focus.valid) {
          return Status::InvalidArgument("context item is undefined");
        }
        return Sequence{focus.item};
      case ExprKind::kSequence: {
        Sequence out;
        for (const auto& child : e.children) {
          XBENCH_ASSIGN_OR_RETURN(Sequence part, Eval(*child, focus));
          out.insert(out.end(), part.begin(), part.end());
        }
        return out;
      }
      case ExprKind::kPath:
        return EvalPath(e, focus);
      case ExprKind::kFilter:
        return EvalFilter(e, focus);
      case ExprKind::kComparison: {
        XBENCH_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.lhs, focus));
        XBENCH_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.rhs, focus));
        for (const Item& a : lhs) {
          for (const Item& b : rhs) {
            if (CompareAtomic(a, b, e.compare_op)) {
              return Sequence{Item::Bool(true)};
            }
          }
        }
        return Sequence{Item::Bool(false)};
      }
      case ExprKind::kArithmetic: {
        XBENCH_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.lhs, focus));
        XBENCH_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.rhs, focus));
        if (lhs.empty() || rhs.empty()) return Sequence{};
        const auto a = AtomizeToNumber(lhs.front());
        const auto b = AtomizeToNumber(rhs.front());
        if (!a.has_value() || !b.has_value()) {
          return Status::InvalidArgument("arithmetic on non-numeric values");
        }
        double r = 0;
        switch (e.arith_op) {
          case ArithOp::kAdd:
            r = *a + *b;
            break;
          case ArithOp::kSub:
            r = *a - *b;
            break;
          case ArithOp::kMul:
            r = *a * *b;
            break;
          case ArithOp::kDiv:
            r = *a / *b;
            break;
          case ArithOp::kMod:
            r = std::fmod(*a, *b);
            break;
        }
        return Sequence{Item::Number(r)};
      }
      case ExprKind::kLogical: {
        XBENCH_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.lhs, focus));
        XBENCH_ASSIGN_OR_RETURN(bool lv, EffectiveBooleanValue(lhs));
        if (e.logical_op == LogicalOp::kAnd && !lv) {
          return Sequence{Item::Bool(false)};
        }
        if (e.logical_op == LogicalOp::kOr && lv) {
          return Sequence{Item::Bool(true)};
        }
        XBENCH_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.rhs, focus));
        XBENCH_ASSIGN_OR_RETURN(bool rv, EffectiveBooleanValue(rhs));
        return Sequence{Item::Bool(rv)};
      }
      case ExprKind::kFunctionCall: {
        if (IsContextFunction(e.function_name)) {
          if (!focus.valid) {
            return Status::InvalidArgument(e.function_name +
                                           "(): no dynamic focus");
          }
          const double v = e.function_name == "position"
                               ? static_cast<double>(focus.position)
                               : static_cast<double>(focus.size);
          return Sequence{Item::Number(v)};
        }
        std::vector<Sequence> args;
        args.reserve(e.children.size());
        for (const auto& child : e.children) {
          XBENCH_ASSIGN_OR_RETURN(Sequence arg, Eval(*child, focus));
          args.push_back(std::move(arg));
        }
        return CallFunction(e.function_name, std::move(args));
      }
      case ExprKind::kFlwor:
        return EvalFlwor(e, focus);
      case ExprKind::kQuantified:
        return EvalQuantified(e, focus);
      case ExprKind::kIfThenElse: {
        XBENCH_ASSIGN_OR_RETURN(Sequence cond, Eval(*e.lhs, focus));
        XBENCH_ASSIGN_OR_RETURN(bool cv, EffectiveBooleanValue(cond));
        return Eval(cv ? *e.then_branch : *e.else_branch, focus);
      }
      case ExprKind::kRange: {
        XBENCH_ASSIGN_OR_RETURN(Sequence lhs, Eval(*e.lhs, focus));
        XBENCH_ASSIGN_OR_RETURN(Sequence rhs, Eval(*e.rhs, focus));
        if (lhs.empty() || rhs.empty()) return Sequence{};
        const auto lo = AtomizeToNumber(lhs.front());
        const auto hi = AtomizeToNumber(rhs.front());
        if (!lo.has_value() || !hi.has_value()) {
          return Status::InvalidArgument("'to' requires numeric operands");
        }
        // Bound the operands before converting: double→int64 is undefined
        // outside int64's range, and an unbounded range would OOM.
        constexpr double kInt64Lo = -9223372036854775808.0;
        constexpr double kInt64Hi = 9223372036854775808.0;
        if (!std::isfinite(*lo) || !std::isfinite(*hi) || *lo < kInt64Lo ||
            *lo >= kInt64Hi || *hi < kInt64Lo || *hi >= kInt64Hi) {
          return Status::InvalidArgument("'to' operands out of integer range");
        }
        const int64_t first = static_cast<int64_t>(*lo);
        const int64_t last = static_cast<int64_t>(*hi);
        if (first > last) return Sequence{};
        constexpr uint64_t kMaxRangeItems = 1u << 24;
        if (static_cast<uint64_t>(last) - static_cast<uint64_t>(first) >=
            kMaxRangeItems) {
          return Status::InvalidArgument("'to' range too large");
        }
        Sequence out;
        for (int64_t v = first;; ++v) {
          out.push_back(Item::Number(static_cast<double>(v)));
          if (v == last) break;
        }
        return out;
      }
      case ExprKind::kUnion: {
        Sequence out;
        for (const auto& child : e.children) {
          XBENCH_ASSIGN_OR_RETURN(Sequence part, Eval(*child, focus));
          for (const Item& item : part) {
            if (!item.is_node_kind()) {
              return Status::InvalidArgument(
                  "'|' operands must be node sequences");
            }
            out.push_back(item);
          }
        }
        SortDocumentOrderUnique(out);
        return out;
      }
      case ExprKind::kConstructor: {
        XBENCH_ASSIGN_OR_RETURN(xml::Node* node,
                                BuildConstructed(e, focus, nullptr));
        // Constructed trees get order ids so document-order operations on
        // them behave.
        uint32_t next = 1;
        AssignOrder(*node, next);
        return Sequence{Item::Node(node)};
      }
    }
    return Status::Internal("unhandled expression kind");
  }

 private:
  static void AssignOrder(xml::Node& node, uint32_t& next) {
    node.set_order(next++);
    for (xml::Node* child : node.children()) AssignOrder(*child, next);
  }

  Result<Sequence> LookupVariable(const std::string& name) const {
    // Innermost first: local bindings, then the outer tuples, then globals.
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    if (outer_scope_ != nullptr) {
      for (auto it = outer_scope_->rbegin(); it != outer_scope_->rend(); ++it) {
        if (it->first == name) return it->second;
      }
    }
    auto it = bindings_.find(name);
    if (it != bindings_.end()) return it->second;
    return Status::NotFound("unbound variable $" + name);
  }

  // --- paths ------------------------------------------------------------

  Result<Sequence> EvalPath(const Expr& e, const Focus& focus) {
    Sequence current;
    if (e.path_root != nullptr) {
      XBENCH_ASSIGN_OR_RETURN(current, Eval(*e.path_root, focus));
    } else if (e.path_from_root) {
      if (!focus.valid || !focus.item.is_node_kind()) {
        return Status::InvalidArgument("'/' with no context node");
      }
      const xml::Node* root = focus.item.node;
      while (root->parent() != nullptr) root = root->parent();
      current.push_back(Item::Node(root));
      // An absolute path selects from the (virtual) document node, so the
      // first child step must be able to match the root element itself.
      // We model this by evaluating the first step against a synthetic
      // self-or-child union below.
      return EvalStepsFromDocumentNode(e, current);
    } else {
      if (!focus.valid) {
        return Status::InvalidArgument("relative path with no context item");
      }
      current.push_back(focus.item);
    }
    for (size_t i = 0; i < e.steps.size(); ++i) {
      const Step& step = e.steps[i];
      // `//name` fusion: with a path guide, walk its label chains instead
      // of scanning every subtree node (the paper's Q8/Q9 "unknown step").
      if (options_.guide != nullptr &&
          step.axis == Axis::kDescendantOrSelf && step.name_test == "*" &&
          step.predicates.empty() && i + 1 < e.steps.size() &&
          e.steps[i + 1].axis == Axis::kChild) {
        XBENCH_ASSIGN_OR_RETURN(
            current, EvalExpandedDescendant(e.steps[i + 1], current));
        ++i;
        continue;
      }
      XBENCH_ASSIGN_OR_RETURN(current, EvalStep(step, current, focus));
    }
    return current;
  }

  /// Evaluates the fused `//name` pair through the path guide. Contexts
  /// the guide does not cover fall back to a full subtree scan, so the
  /// fast path can never drop results. Predicates evaluate per parent
  /// element — the same candidate lists the unfused child step builds —
  /// so positional predicates keep their meaning.
  Result<Sequence> EvalExpandedDescendant(const Step& step,
                                          const Sequence& input) {
    VisitTally visited(nodes_visited_);
    Sequence result;
    for (const Item& context : input) {
      if (!context.is_node_kind()) {
        return Status::InvalidArgument("path step applied to an atomic value");
      }
      if (context.kind == Item::Kind::kAttribute) continue;
      if (step.predicates.empty()) {
        CollectFusedDescendants(*context.node, options_.guide, step.name_test,
                                result, visited.count);
        continue;
      }
      std::vector<Sequence> groups;
      CollectFusedGroups(*context.node, options_.guide, step.name_test,
                         groups, visited.count);
      for (Sequence& group : groups) {
        XBENCH_ASSIGN_OR_RETURN(
            group, ApplyPredicates(step.predicates, std::move(group)));
        result.insert(result.end(), group.begin(), group.end());
      }
    }
    SortDocumentOrderUnique(result);
    return result;
  }

  /// Handles absolute paths: the context is the document node (the parent
  /// of the root element), which our tree model does not materialize. The
  /// first child step therefore matches against the root element.
  Result<Sequence> EvalStepsFromDocumentNode(const Expr& e,
                                             Sequence roots) {
    Sequence current = std::move(roots);
    bool first = true;
    for (const Step& step : e.steps) {
      if (first && step.axis == Axis::kChild) {
        // Match the root element itself instead of its children.
        Step self_step;
        self_step.axis = Axis::kSelf;
        self_step.name_test = step.name_test;
        Sequence matched;
        for (const Item& item : current) {
          if (item.kind == Item::Kind::kNode &&
              ElementMatches(*item.node, step.name_test)) {
            matched.push_back(item);
          }
        }
        XBENCH_ASSIGN_OR_RETURN(
            current, ApplyPredicates(step.predicates, std::move(matched)));
        first = false;
        continue;
      }
      first = false;
      XBENCH_ASSIGN_OR_RETURN(current, EvalStep(step, current, Focus{}));
    }
    return current;
  }

  Result<Sequence> EvalStep(const Step& step, const Sequence& input,
                            const Focus&) {
    VisitTally visited(nodes_visited_);
    Sequence result;
    for (const Item& context : input) {
      if (!context.is_node_kind()) {
        return Status::InvalidArgument("path step applied to an atomic value");
      }
      if (context.kind == Item::Kind::kAttribute) {
        // Only self::* is meaningful on attributes.
        if (step.axis == Axis::kSelf) result.push_back(context);
        continue;
      }
      Sequence candidates =
          AxisCandidates(*context.node, step.axis, step.name_test,
                         visited.count);
      XBENCH_ASSIGN_OR_RETURN(
          candidates, ApplyPredicates(step.predicates, std::move(candidates)));
      result.insert(result.end(), candidates.begin(), candidates.end());
    }
    SortDocumentOrderUnique(result);
    return result;
  }

  /// Applies a predicate list to a candidate sequence, with positional
  /// semantics (a numeric predicate value selects by position).
  Result<Sequence> ApplyPredicates(const std::vector<ExprPtr>& predicates,
                                   Sequence candidates) {
    for (const auto& pred : predicates) {
      Sequence kept;
      const size_t n = candidates.size();
      for (size_t i = 0; i < n; ++i) {
        Focus pf;
        pf.item = candidates[i];
        pf.position = i + 1;
        pf.size = n;
        pf.valid = true;
        XBENCH_ASSIGN_OR_RETURN(Sequence value, Eval(*pred, pf));
        bool keep;
        if (value.size() == 1 && value.front().kind == Item::Kind::kNumber) {
          keep = static_cast<double>(i + 1) == value.front().num;
        } else {
          XBENCH_ASSIGN_OR_RETURN(keep, EffectiveBooleanValue(value));
        }
        if (keep) kept.push_back(candidates[i]);
      }
      candidates = std::move(kept);
    }
    return candidates;
  }

  Result<Sequence> EvalFilter(const Expr& e, const Focus& focus) {
    XBENCH_ASSIGN_OR_RETURN(Sequence base, Eval(*e.lhs, focus));
    return ApplyPredicates(e.children, std::move(base));
  }

  // --- FLWOR --------------------------------------------------------------

  struct Binding {
    std::string name;
    Sequence value;
  };
  using Env = std::vector<Binding>;

  template <typename Fn>
  Result<Sequence> WithEnv(const Env& env, Fn&& fn) {
    const size_t mark = scope_.size();
    for (const Binding& b : env) scope_.emplace_back(b.name, b.value);
    auto result = fn();
    scope_.resize(mark);
    return result;
  }

  Result<Sequence> EvalFlwor(const Expr& e, const Focus& focus) {
    std::vector<Env> envs;
    envs.emplace_back();
    size_t fi = 0;
    size_t li = 0;
    for (char kind : e.clause_order) {
      std::vector<Env> next;
      if (kind == 'f') {
        const ForClause& clause = e.for_clauses[fi++];
        for (Env& env : envs) {
          XBENCH_ASSIGN_OR_RETURN(
              Sequence input,
              WithEnv(env, [&] { return Eval(*clause.input, focus); }));
          for (size_t i = 0; i < input.size(); ++i) {
            Env extended = env;
            extended.push_back({clause.variable, Sequence{input[i]}});
            if (!clause.position_variable.empty()) {
              extended.push_back(
                  {clause.position_variable,
                   Sequence{Item::Number(static_cast<double>(i + 1))}});
            }
            next.push_back(std::move(extended));
          }
        }
        envs = std::move(next);
      } else {
        const LetClause& clause = e.let_clauses[li++];
        for (Env& env : envs) {
          XBENCH_ASSIGN_OR_RETURN(
              Sequence value,
              WithEnv(env, [&] { return Eval(*clause.value, focus); }));
          env.push_back({clause.variable, std::move(value)});
        }
      }
    }

    if (e.where != nullptr) {
      std::vector<Env> kept;
      for (Env& env : envs) {
        XBENCH_ASSIGN_OR_RETURN(
            Sequence cond,
            WithEnv(env, [&] { return Eval(*e.where, focus); }));
        XBENCH_ASSIGN_OR_RETURN(bool keep, EffectiveBooleanValue(cond));
        if (keep) kept.push_back(std::move(env));
      }
      envs = std::move(kept);
    }

    if (!e.order_by.empty()) {
      struct Keyed {
        size_t index;
        std::vector<std::pair<bool, double>> numeric_keys;  // (has, value)
        std::vector<std::string> string_keys;
      };
      std::vector<Keyed> keyed(envs.size());
      for (size_t i = 0; i < envs.size(); ++i) {
        keyed[i].index = i;
        for (const OrderSpec& spec : e.order_by) {
          XBENCH_ASSIGN_OR_RETURN(
              Sequence key,
              WithEnv(envs[i], [&] { return Eval(*spec.key, focus); }));
          if (spec.numeric) {
            std::optional<double> v;
            if (!key.empty()) v = AtomizeToNumber(key.front());
            keyed[i].numeric_keys.emplace_back(v.has_value(),
                                               v.value_or(0.0));
            keyed[i].string_keys.emplace_back();
          } else {
            keyed[i].numeric_keys.emplace_back(false, 0.0);
            keyed[i].string_keys.push_back(
                key.empty() ? "" : AtomizeToString(key.front()));
          }
        }
      }
      std::stable_sort(
          keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
            for (size_t k = 0; k < e.order_by.size(); ++k) {
              const OrderSpec& spec = e.order_by[k];
              int cmp = 0;
              if (spec.numeric) {
                const auto& [ha, va] = a.numeric_keys[k];
                const auto& [hb, vb] = b.numeric_keys[k];
                if (ha != hb) {
                  cmp = ha ? 1 : -1;  // empty sorts first
                } else {
                  cmp = va < vb ? -1 : (va > vb ? 1 : 0);
                }
              } else {
                cmp = a.string_keys[k].compare(b.string_keys[k]);
                cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
              }
              if (cmp == 0) continue;
              return spec.ascending ? cmp < 0 : cmp > 0;
            }
            return false;
          });
      std::vector<Env> ordered;
      ordered.reserve(envs.size());
      for (const Keyed& k : keyed) ordered.push_back(std::move(envs[k.index]));
      envs = std::move(ordered);
    }

    Sequence out;
    for (Env& env : envs) {
      XBENCH_ASSIGN_OR_RETURN(
          Sequence part,
          WithEnv(env, [&] { return Eval(*e.return_expr, focus); }));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  Result<Sequence> EvalQuantified(const Expr& e, const Focus& focus) {
    XBENCH_ASSIGN_OR_RETURN(Sequence input, Eval(*e.quant_input, focus));
    for (const Item& item : input) {
      Env env;
      env.push_back({e.quant_variable, Sequence{item}});
      XBENCH_ASSIGN_OR_RETURN(
          Sequence value,
          WithEnv(env, [&] { return Eval(*e.quant_satisfies, focus); }));
      XBENCH_ASSIGN_OR_RETURN(bool v, EffectiveBooleanValue(value));
      if (e.quantifier_every && !v) return Sequence{Item::Bool(false)};
      if (!e.quantifier_every && v) return Sequence{Item::Bool(true)};
    }
    return Sequence{Item::Bool(e.quantifier_every)};
  }

  // --- constructors -------------------------------------------------------

  Result<std::string> EvalContentParts(
      const std::vector<ConstructorContent>& parts, const Focus& focus) {
    std::string out;
    for (const ConstructorContent& part : parts) {
      switch (part.kind) {
        case ConstructorContent::kText:
          out += part.text;
          break;
        case ConstructorContent::kExpr: {
          XBENCH_ASSIGN_OR_RETURN(Sequence value, Eval(*part.expr, focus));
          for (size_t i = 0; i < value.size(); ++i) {
            if (i != 0) out += " ";
            out += AtomizeToString(value[i]);
          }
          break;
        }
        case ConstructorContent::kChild:
          return Status::InvalidArgument(
              "element constructor in attribute value");
      }
    }
    return out;
  }

  /// Builds the element `e` constructs in the result arena: as the last
  /// child of `parent`, or as a new tree root when `parent` is null.
  Result<xml::Node*> BuildConstructed(const Expr& e, const Focus& focus,
                                      xml::Node* parent) {
    xml::Node* element = parent != nullptr
                             ? parent->AddElement(e.element_name)
                             : arena_.NewElement(e.element_name);
    for (const ConstructorAttr& attr : e.constructor_attrs) {
      XBENCH_ASSIGN_OR_RETURN(std::string value,
                              EvalContentParts(attr.value_parts, focus));
      element->SetAttribute(attr.name, std::move(value));
    }
    std::vector<std::string> atomics;
    auto flush_atomics = [&]() {
      if (atomics.empty()) return;
      element->AddText(Join(atomics, " "));
      atomics.clear();
    };
    for (const ConstructorContent& part : e.constructor_content) {
      switch (part.kind) {
        case ConstructorContent::kText:
          flush_atomics();
          element->AddText(part.text);
          break;
        case ConstructorContent::kChild: {
          flush_atomics();
          XBENCH_RETURN_IF_ERROR(
              BuildConstructed(*part.child, focus, element).status());
          break;
        }
        case ConstructorContent::kExpr: {
          XBENCH_ASSIGN_OR_RETURN(Sequence value, Eval(*part.expr, focus));
          for (const Item& item : value) {
            if (item.kind == Item::Kind::kNode) {
              flush_atomics();
              element->AppendCopy(*item.node);
            } else if (item.kind == Item::Kind::kAttribute) {
              // Attribute items in content contribute their value as text.
              atomics.push_back(AtomizeToString(item));
            } else {
              atomics.push_back(AtomizeToString(item));
            }
          }
          flush_atomics();
          break;
        }
      }
    }
    flush_atomics();
    return element;
  }

  const Bindings& bindings_;
  const EvalOptions& options_;
  xml::Arena& arena_;
  const std::vector<ScopeBinding>* outer_scope_;
  /// Bindings of the FLWOR clauses this evaluator is inside of.
  std::vector<ScopeBinding> scope_;
  /// AST nodes evaluated, added to the shared counter once when the
  /// evaluator ends rather than once per node.
  VisitTally operator_evals_;
  obs::Counter& nodes_visited_;
  // Sampled once per query: per-operator spans are only recorded when the
  // tracer was enabled at evaluator construction.
  const bool trace_operators_;
};

}  // namespace

std::string QueryResult::ToText() const {
  std::string out;
  for (const Item& item : items) {
    if (item.kind == Item::Kind::kNode && item.node->is_element()) {
      out += xml::Serialize(*item.node);
    } else {
      out += AtomizeToString(item);
    }
    out.push_back('\n');
  }
  return out;
}

Result<QueryResult> Evaluate(const Expr& query, const Bindings& bindings,
                             const EvalOptions& options) {
  obs::ScopedSpan span("xquery.eval");
  QueryResult result;
  result.constructed = std::make_unique<xml::Arena>();
  Evaluator evaluator(bindings, options, *result.constructed);
  Focus focus;  // no initial context item; queries start from variables
  auto items = evaluator.Eval(query, focus);
  if (!items.ok()) return items.status();
  result.items = std::move(items).value();
  return result;
}

Result<Sequence> EvalWithEnv(const Expr& expr, const Bindings& bindings,
                             const std::vector<ScopeBinding>& scope,
                             const Item* context_item, size_t position,
                             size_t size, const EvalOptions& options,
                             xml::Arena& arena) {
  Evaluator evaluator(bindings, options, arena, &scope);
  Focus focus;
  if (context_item != nullptr) {
    focus.item = *context_item;
    focus.position = position;
    focus.size = size;
    focus.valid = true;
  }
  return evaluator.Eval(expr, focus);
}

Result<QueryResult> EvaluateQuery(std::string_view query,
                                  const Bindings& bindings) {
  auto parsed = [&] {
    obs::ScopedSpan span("xquery.parse");
    return ParseQuery(query);
  }();
  if (!parsed.ok()) return parsed.status();
  return Evaluate(**parsed, bindings);
}

}  // namespace xbench::xquery
