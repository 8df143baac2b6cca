#include "analysis/analyzer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"

namespace xbench::analysis {
namespace {

using xml::Dtd;
using xquery::Axis;
using xquery::Expr;
using xquery::ExprKind;
using xquery::Step;

/// Bounds on how far `//` resolution will enumerate before giving up and
/// leaving the step unresolved (its cardinality then stays unknown).
constexpr size_t kMaxChains = 64;
constexpr size_t kMaxChainDepth = 24;

/// Child element types a DTD content model admits.
std::vector<std::string> ChildTypes(const Dtd::ElementDecl& decl) {
  std::vector<std::string> out;
  switch (decl.model) {
    case Dtd::Model::kSequence:
      for (const Dtd::Particle& particle : decl.sequence) {
        if (std::find(out.begin(), out.end(), particle.name) == out.end()) {
          out.push_back(particle.name);
        }
      }
      break;
    case Dtd::Model::kMixed:
      out.assign(decl.mixed.begin(), decl.mixed.end());
      break;
    case Dtd::Model::kEmpty:
    case Dtd::Model::kPcdata:
      break;
  }
  return out;
}

/// The static type of an expression: a set of possible element types, an
/// attribute, an atomized value, or unknown (checking stops there).
struct StaticType {
  enum Kind { kUnknown, kAtomic, kElements, kAttribute };
  Kind kind = kUnknown;
  std::set<std::string> elements;

  static StaticType Unknown() { return {}; }
  static StaticType Atomic() { return {kAtomic, {}}; }
  static StaticType Attribute() { return {kAttribute, {}}; }
  static StaticType Elements(std::set<std::string> set) {
    return {kElements, std::move(set)};
  }
  bool is_elements() const { return kind == kElements; }
};

std::string JoinTypes(const std::set<std::string>& types) {
  std::string out;
  for (const std::string& t : types) {
    if (!out.empty()) out += ", ";
    out += t;
  }
  return out.empty() ? "(none)" : out;
}

/// Occurrence combinators over {0, 1, many, unknown}.
Cardinality CombineCard(Cardinality a, Cardinality b) {
  if (a == Cardinality::kEmpty || b == Cardinality::kEmpty) {
    return Cardinality::kEmpty;
  }
  if (a == Cardinality::kUnknown || b == Cardinality::kUnknown) {
    return Cardinality::kUnknown;
  }
  if (a == Cardinality::kMany || b == Cardinality::kMany) {
    return Cardinality::kMany;
  }
  return Cardinality::kAtMostOne;
}

Cardinality CardFromCount(uint64_t n) {
  if (n == 0) return Cardinality::kEmpty;
  return n == 1 ? Cardinality::kAtMostOne : Cardinality::kMany;
}

xquery::plan::Card ToPlanCard(Cardinality card) {
  switch (card) {
    case Cardinality::kEmpty:
      return xquery::plan::Card::kEmpty;
    case Cardinality::kAtMostOne:
      return xquery::plan::Card::kAtMostOne;
    case Cardinality::kMany:
      return xquery::plan::Card::kMany;
    case Cardinality::kUnknown:
      return xquery::plan::Card::kUnknown;
  }
  return xquery::plan::Card::kUnknown;
}

class Analyzer {
 public:
  explicit Analyzer(const SchemaContext& context) : ctx_(context) {}

  AnalysisReport Run(const Expr& query) {
    scope_.emplace_back("input",
                        StaticType::Elements({ctx_.roots.begin(),
                                              ctx_.roots.end()}));
    AnalyzeExpr(query, StaticType::Unknown());
    return std::move(report_);
  }

 private:
  // --- schema graph helpers ----------------------------------------------

  /// Max occurrences of child type `child` under one instance of `parent`,
  /// from the instance statistics. 0 when the edge (or the parent type)
  /// was never observed; nullopt when no summary is available.
  std::optional<uint64_t> ObservedMax(const std::string& parent,
                                      const std::string& child) const {
    if (ctx_.summary == nullptr) return std::nullopt;
    for (const xml::ChildStats& stats : ctx_.summary->ChildrenOf(parent)) {
      if (stats.name == child) {
        return static_cast<uint64_t>(std::max(stats.max_occurs, 0));
      }
    }
    return 0;
  }

  /// Descendant closure of `from` in the DTD element graph (not including
  /// `from` itself unless reachable through a cycle).
  std::set<std::string> DescendantClosure(
      const std::set<std::string>& from) const {
    std::set<std::string> seen;
    std::vector<std::string> frontier(from.begin(), from.end());
    while (!frontier.empty()) {
      const std::string type = std::move(frontier.back());
      frontier.pop_back();
      const Dtd::ElementDecl* decl = ctx_.dtd->FindElement(type);
      if (decl == nullptr) continue;
      for (const std::string& child : ChildTypes(*decl)) {
        if (seen.insert(child).second) frontier.push_back(child);
      }
    }
    return seen;
  }

  /// Element types that admit `child` as a direct child.
  std::set<std::string> ParentTypes(const std::string& child) const {
    std::set<std::string> out;
    for (const std::string& name : ctx_.dtd->ElementNames()) {
      const Dtd::ElementDecl* decl = ctx_.dtd->FindElement(name);
      const std::vector<std::string> kids = ChildTypes(*decl);
      if (std::find(kids.begin(), kids.end(), child) != kids.end()) {
        out.insert(name);
      }
    }
    return out;
  }

  /// Enumerates every simple label chain from `from` down to `target`.
  /// Returns false (chains untouched) when the subgraph that reaches
  /// `target` is recursive or the enumeration exceeds the size bounds —
  /// the expansion would then under-approximate the real document paths.
  bool EnumerateChains(const std::string& from, const std::string& target,
                       std::vector<std::vector<std::string>>& chains) const {
    // Restrict the graph to nodes that can still reach the target.
    std::set<std::string> reaching = {target};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const std::string& name : ctx_.dtd->ElementNames()) {
        if (reaching.count(name) != 0) continue;
        for (const std::string& child :
             ChildTypes(*ctx_.dtd->FindElement(name))) {
          if (reaching.count(child) != 0) {
            reaching.insert(name);
            grew = true;
            break;
          }
        }
      }
    }
    if (reaching.count(from) == 0 && from != target) return true;  // no chains

    // Any cycle inside the reaching subgraph makes the set of document
    // paths unbounded: bail.
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::pair<std::string, size_t>> stack;
    for (const std::string& start : reaching) {
      if (color[start] != 0) continue;
      stack.emplace_back(start, 0);
      color[start] = 1;
      while (!stack.empty()) {
        auto& [node, next] = stack.back();
        const std::vector<std::string> kids =
            ctx_.dtd->FindElement(node) != nullptr
                ? ChildTypes(*ctx_.dtd->FindElement(node))
                : std::vector<std::string>{};
        bool descended = false;
        while (next < kids.size()) {
          const std::string& kid = kids[next++];
          if (reaching.count(kid) == 0) continue;
          if (color[kid] == 1) return false;  // cycle
          if (color[kid] == 0) {
            color[kid] = 1;
            stack.emplace_back(kid, 0);
            descended = true;
            break;
          }
        }
        if (!descended && next >= kids.size()) {
          color[node] = 2;
          stack.pop_back();
        }
      }
    }

    // Acyclic: depth-first chain enumeration terminates.
    std::vector<std::string> chain;
    return EnumerateFrom(from, target, reaching, chain, chains);
  }

  bool EnumerateFrom(const std::string& at, const std::string& target,
                     const std::set<std::string>& reaching,
                     std::vector<std::string>& chain,
                     std::vector<std::vector<std::string>>& chains) const {
    if (chain.size() > kMaxChainDepth) return false;
    const Dtd::ElementDecl* decl = ctx_.dtd->FindElement(at);
    if (decl == nullptr) return true;
    for (const std::string& child : ChildTypes(*decl)) {
      chain.push_back(child);
      if (child == target) {
        if (chains.size() >= kMaxChains) {
          chain.pop_back();
          return false;
        }
        chains.push_back(chain);
      } else if (reaching.count(child) != 0) {
        if (!EnumerateFrom(child, target, reaching, chain, chains)) {
          chain.pop_back();
          return false;
        }
      }
      chain.pop_back();
    }
    return true;
  }

  // --- diagnostics --------------------------------------------------------

  void Diagnose(DiagnosticKind kind, Severity severity,
                const std::string& path, std::string message) {
    report_.diagnostics.push_back(
        {kind, severity, path, std::move(message)});
    if (severity == Severity::kError) ++path_errors_;
  }

  bool NameDeclared(const std::string& name) const {
    if (ctx_.dtd->FindElement(name) != nullptr) return true;
    // Attribute names share the diagnostic: declared on any element?
    for (const std::string& element : ctx_.dtd->ElementNames()) {
      if (ctx_.dtd->FindElement(element)->attributes.count(name) != 0) {
        return true;
      }
    }
    return false;
  }

  // --- expression analysis ------------------------------------------------

  StaticType Lookup(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return StaticType::Unknown();
  }

  template <typename Fn>
  void WithBinding(const std::string& name, StaticType type, Fn&& fn) {
    scope_.emplace_back(name, std::move(type));
    fn();
    scope_.pop_back();
  }

  /// Item type of a sequence-typed expression (for/quantifier binding).
  static StaticType ItemOf(const StaticType& type) { return type; }

  StaticType AnalyzeExpr(const Expr& e, const StaticType& focus) {
    switch (e.kind) {
      case ExprKind::kStringLiteral:
      case ExprKind::kNumberLiteral:
        return StaticType::Atomic();
      case ExprKind::kVariable:
        return Lookup(e.variable);
      case ExprKind::kContextItem:
        return focus;
      case ExprKind::kSequence:
      case ExprKind::kUnion: {
        StaticType merged = StaticType::Elements({});
        bool all_elements = true;
        for (auto& child : e.children) {
          StaticType t = AnalyzeExpr(*child, focus);
          if (t.is_elements()) {
            merged.elements.insert(t.elements.begin(), t.elements.end());
          } else {
            all_elements = false;
          }
        }
        return all_elements ? merged : StaticType::Unknown();
      }
      case ExprKind::kPath:
        return AnalyzePath(e, focus);
      case ExprKind::kFilter: {
        StaticType base = AnalyzeExpr(*e.lhs, focus);
        return AnalyzePredicates(e.children, std::move(base));
      }
      case ExprKind::kComparison:
      case ExprKind::kArithmetic:
      case ExprKind::kLogical:
      case ExprKind::kRange:
        AnalyzeExpr(*e.lhs, focus);
        AnalyzeExpr(*e.rhs, focus);
        return StaticType::Atomic();
      case ExprKind::kFunctionCall:
        for (auto& child : e.children) AnalyzeExpr(*child, focus);
        return StaticType::Atomic();
      case ExprKind::kFlwor:
        return AnalyzeFlwor(e, focus);
      case ExprKind::kQuantified: {
        StaticType input = AnalyzeExpr(*e.quant_input, focus);
        WithBinding(e.quant_variable, ItemOf(input), [&] {
          AnalyzeExpr(*e.quant_satisfies, focus);
        });
        return StaticType::Atomic();
      }
      case ExprKind::kIfThenElse: {
        AnalyzeExpr(*e.lhs, focus);
        StaticType a = AnalyzeExpr(*e.then_branch, focus);
        StaticType b = AnalyzeExpr(*e.else_branch, focus);
        if (a.is_elements() && b.is_elements()) {
          a.elements.insert(b.elements.begin(), b.elements.end());
          return a;
        }
        return StaticType::Unknown();
      }
      case ExprKind::kConstructor: {
        for (auto& attr : e.constructor_attrs) {
          for (auto& part : attr.value_parts) {
            if (part.expr != nullptr) AnalyzeExpr(*part.expr, focus);
          }
        }
        for (auto& part : e.constructor_content) {
          if (part.expr != nullptr) AnalyzeExpr(*part.expr, focus);
          if (part.child != nullptr) AnalyzeExpr(*part.child, focus);
        }
        // Constructed trees are outside the class schema.
        return StaticType::Unknown();
      }
    }
    return StaticType::Unknown();
  }

  StaticType AnalyzeFlwor(const Expr& e, const StaticType& focus) {
    size_t fi = 0;
    size_t li = 0;
    size_t bound = 0;
    for (char kind : e.clause_order) {
      if (kind == 'f') {
        const xquery::ForClause& clause = e.for_clauses[fi++];
        StaticType input = AnalyzeExpr(*clause.input, focus);
        scope_.emplace_back(clause.variable, ItemOf(input));
        ++bound;
        if (!clause.position_variable.empty()) {
          scope_.emplace_back(clause.position_variable, StaticType::Atomic());
          ++bound;
        }
      } else {
        const xquery::LetClause& clause = e.let_clauses[li++];
        StaticType value = AnalyzeExpr(*clause.value, focus);
        scope_.emplace_back(clause.variable, std::move(value));
        ++bound;
      }
    }
    if (e.where != nullptr) AnalyzeExpr(*e.where, focus);
    for (const xquery::OrderSpec& spec : e.order_by) {
      AnalyzeExpr(*spec.key, focus);
    }
    StaticType result = AnalyzeExpr(*e.return_expr, focus);
    scope_.resize(scope_.size() - bound);
    return result;
  }

  /// Predicates: each is analyzed with the candidate type as focus. A
  /// single `self::name` step narrows the type (the `$input[self::order]`
  /// idiom); a literal-number predicate caps cardinality at one.
  StaticType AnalyzePredicates(const std::vector<xquery::ExprPtr>& predicates,
                               StaticType base) {
    for (auto& pred : predicates) {
      if (pred->kind == ExprKind::kPath && pred->path_root == nullptr &&
          !pred->path_from_root && pred->steps.size() == 1 &&
          pred->steps[0].axis == Axis::kSelf &&
          pred->steps[0].predicates.empty() &&
          pred->steps[0].name_test != "*" && base.is_elements()) {
        std::set<std::string> narrowed;
        if (base.elements.count(pred->steps[0].name_test) != 0) {
          narrowed.insert(pred->steps[0].name_test);
        }
        base = StaticType::Elements(std::move(narrowed));
        continue;
      }
      AnalyzeExpr(*pred, base);
    }
    return base;
  }

  // --- path analysis ------------------------------------------------------

  struct PathState {
    StaticType type;
    Cardinality card = Cardinality::kAtMostOne;
    std::string rendered;
    std::vector<std::string> expansions;
  };

  StaticType AnalyzePath(const Expr& e, const StaticType& focus) {
    PathState state;
    size_t first_step = 0;
    if (e.path_root != nullptr) {
      state.type = AnalyzeExpr(*e.path_root, focus);
      state.rendered = e.path_root->kind == ExprKind::kVariable
                           ? "$" + e.path_root->variable
                           : (e.path_root->kind == ExprKind::kFilter &&
                                      e.path_root->lhs->kind ==
                                          ExprKind::kVariable
                                  ? "$" + e.path_root->lhs->variable + "[...]"
                                  : "(...)");
    } else if (e.path_from_root) {
      // Absolute path: the context is the (virtual) document node, whose
      // leading child step matches the root element itself.
      state.type = StaticType::Elements(
          {ctx_.roots.begin(), ctx_.roots.end()});
      state.rendered = "";
      if (!e.steps.empty() && e.steps.front().axis == Axis::kChild) {
        AnalyzeAbsoluteRootStep(e.steps.front(), state);
        first_step = 1;
      } else {
        state.type = StaticType::Unknown();  // absolute `//`: stay lenient
        state.card = Cardinality::kUnknown;
      }
    } else {
      state.type = focus;
      state.rendered = ".";
    }

    const size_t errors_before = path_errors_;
    for (size_t i = first_step; i < e.steps.size(); ++i) {
      const Step& step = e.steps[i];
      // `//name`: a descendant-or-self::* step followed by a child step.
      if (step.axis == Axis::kDescendantOrSelf && step.name_test == "*" &&
          step.predicates.empty() && i + 1 < e.steps.size() &&
          e.steps[i + 1].axis == Axis::kChild) {
        AnalyzeDescendantPair(e.steps[i + 1], state);
        ++i;
        continue;
      }
      AnalyzeStep(step, state);
    }

    if (state.card == Cardinality::kEmpty && path_errors_ == errors_before &&
        !e.steps.empty()) {
      Diagnose(DiagnosticKind::kAlwaysEmptyPath, Severity::kWarning,
               state.rendered,
               "the schema records zero occurrences along this path; it can "
               "never select anything");
    }

    if (!e.steps.empty()) {
      report_.annotations.path_cardinality[&e] = ToPlanCard(state.card);
      PathInfo info;
      info.rendered = state.rendered;
      info.cardinality = state.card;
      if (state.type.is_elements()) {
        info.result_types.assign(state.type.elements.begin(),
                                 state.type.elements.end());
      }
      info.expansions = state.expansions;
      report_.paths.push_back(std::move(info));
    }
    return state.type;
  }

  /// First child step of an absolute path: matches the root element.
  void AnalyzeAbsoluteRootStep(const Step& step, PathState& state) {
    state.rendered += "/" + step.name_test;
    if (step.name_test != "*" && state.type.is_elements()) {
      std::set<std::string> kept;
      if (state.type.elements.count(step.name_test) != 0) {
        kept.insert(step.name_test);
      }
      if (kept.empty() && !state.type.elements.empty()) {
        DiagnoseMissing(step.name_test, state,
                        "is not a document-root element of this class");
      }
      state.type = StaticType::Elements(std::move(kept));
    }
    state.type = AnalyzePredicates(step.predicates, std::move(state.type));
  }

  void DiagnoseMissing(const std::string& name, const PathState& state,
                       const std::string& why) {
    if (!NameDeclared(name)) {
      Diagnose(DiagnosticKind::kUnknownName, Severity::kError, state.rendered,
               "name test '" + name +
                   "' matches nothing declared in the class DTD");
    } else {
      Diagnose(DiagnosticKind::kImpossibleStep, Severity::kError,
               state.rendered,
               "'" + name + "' " + why + " (context: " +
                   JoinTypes(state.type.elements) + ")");
    }
  }

  /// child/attribute/self/parent/sibling and explicit descendant axes.
  void AnalyzeStep(const Step& step, PathState& state) {
    const std::string& name = step.name_test;
    switch (step.axis) {
      case Axis::kChild:
        state.rendered += "/" + name;
        break;
      case Axis::kAttribute:
        state.rendered += "/@" + name;
        break;
      case Axis::kSelf:
        state.rendered += "/self::" + name;
        break;
      case Axis::kParent:
        state.rendered += "/parent::" + name;
        break;
      case Axis::kFollowingSibling:
        state.rendered += "/following-sibling::" + name;
        break;
      case Axis::kPrecedingSibling:
        state.rendered += "/preceding-sibling::" + name;
        break;
      case Axis::kDescendant:
        state.rendered += "/descendant::" + name;
        break;
      case Axis::kDescendantOrSelf:
        state.rendered += "//" + (name == "*" ? std::string("*") : name);
        break;
    }

    if (!state.type.is_elements()) {
      // Unknown/atomic context: nothing to check, stay unknown.
      state.type = step.axis == Axis::kAttribute ? StaticType::Attribute()
                                                 : StaticType::Unknown();
      state.card = Cardinality::kUnknown;
      AnalyzePredicatesOnly(step, state);
      return;
    }
    if (name == "text()") {
      state.type = StaticType::Atomic();
      state.card = Cardinality::kUnknown;
      return;
    }
    const std::set<std::string>& context = state.type.elements;

    switch (step.axis) {
      case Axis::kChild: {
        std::set<std::string> result;
        bool bound_known = true;
        uint64_t bound = 0;
        for (const std::string& type : context) {
          const Dtd::ElementDecl* decl = ctx_.dtd->FindElement(type);
          if (decl == nullptr) continue;
          for (const std::string& child : ChildTypes(*decl)) {
            if (name != "*" && child != name) continue;
            result.insert(child);
            if (bound_known) {
              std::optional<uint64_t> m = ObservedMax(type, child);
              if (m.has_value()) {
                bound = std::max(bound, *m);
              } else {
                bound_known = false;
              }
            }
          }
        }
        if (result.empty() && !context.empty() && name != "*") {
          DiagnoseMissing(name, state, ImpossibleChildWhy(context));
        }
        state.card = CombineCard(state.card,
                                 bound_known ? CardFromCount(bound)
                                             : Cardinality::kUnknown);
        if (result.empty()) state.card = Cardinality::kEmpty;
        state.type = StaticType::Elements(std::move(result));
        break;
      }
      case Axis::kAttribute: {
        bool possible = false;
        for (const std::string& type : context) {
          const Dtd::ElementDecl* decl = ctx_.dtd->FindElement(type);
          if (decl == nullptr) continue;
          if (name == "*" ? !decl->attributes.empty()
                          : decl->attributes.count(name) != 0) {
            possible = true;
            break;
          }
        }
        if (!possible && !context.empty() && name != "*") {
          DiagnoseMissing(name, state, "is not an attribute of the context");
        }
        state.type = StaticType::Attribute();
        state.card =
            possible ? CombineCard(state.card, Cardinality::kAtMostOne)
                     : Cardinality::kEmpty;
        break;
      }
      case Axis::kSelf: {
        std::set<std::string> result;
        for (const std::string& type : context) {
          if (name == "*" || type == name) result.insert(type);
        }
        if (result.empty() && !context.empty()) {
          DiagnoseMissing(name, state, "can never be the context element");
        }
        if (result.empty()) state.card = Cardinality::kEmpty;
        state.type = StaticType::Elements(std::move(result));
        break;
      }
      case Axis::kParent: {
        std::set<std::string> result;
        for (const std::string& type : context) {
          for (const std::string& parent : ParentTypes(type)) {
            if (name == "*" || parent == name) result.insert(parent);
          }
        }
        if (result.empty() && !context.empty() && name != "*") {
          DiagnoseMissing(name, state,
                          "is not a possible parent of the context");
        }
        state.card = result.empty()
                         ? Cardinality::kEmpty
                         : CombineCard(state.card, Cardinality::kAtMostOne);
        state.type = StaticType::Elements(std::move(result));
        break;
      }
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling: {
        std::set<std::string> result;
        bool bound_known = true;
        uint64_t bound = 0;
        for (const std::string& type : context) {
          for (const std::string& parent : ParentTypes(type)) {
            const Dtd::ElementDecl* decl = ctx_.dtd->FindElement(parent);
            for (const std::string& sibling : ChildTypes(*decl)) {
              if (name != "*" && sibling != name) continue;
              result.insert(sibling);
              if (bound_known) {
                std::optional<uint64_t> m = ObservedMax(parent, sibling);
                if (m.has_value()) {
                  bound = std::max(bound, *m);
                } else {
                  bound_known = false;
                }
              }
            }
          }
        }
        if (result.empty() && !context.empty() && name != "*") {
          DiagnoseMissing(name, state,
                          "is not a possible sibling of the context");
        }
        state.card = CombineCard(state.card,
                                 bound_known ? CardFromCount(bound)
                                             : Cardinality::kUnknown);
        if (result.empty()) state.card = Cardinality::kEmpty;
        state.type = StaticType::Elements(std::move(result));
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        AnalyzeDescendantTarget(name, /*include_self=*/step.axis ==
                                    Axis::kDescendantOrSelf,
                                /*resolve=*/false, state);
        break;
      }
    }
    AnalyzePredicatesOnly(step, state);
  }

  std::string ImpossibleChildWhy(const std::set<std::string>& context) const {
    for (const std::string& type : context) {
      const Dtd::ElementDecl* decl = ctx_.dtd->FindElement(type);
      if (decl != nullptr && decl->model == Dtd::Model::kEmpty) {
        return "cannot be a child of '" + type + "' (declared EMPTY)";
      }
      if (decl != nullptr && decl->model == Dtd::Model::kPcdata) {
        return "cannot be a child of '" + type + "' (declared (#PCDATA))";
      }
    }
    return "is never a child of the context";
  }

  /// The `//name` pair: reachability check, the chains it resolves to (for
  /// explain output), cardinality from the enumerated chains.
  void AnalyzeDescendantPair(const Step& child_step, PathState& state) {
    state.rendered += "//" + child_step.name_test;
    if (!state.type.is_elements() || child_step.name_test == "*") {
      state.type = StaticType::Unknown();
      state.card = Cardinality::kUnknown;
      AnalyzePredicatesOnly(child_step, state);
      return;
    }
    AnalyzeDescendantTarget(child_step.name_test, /*include_self=*/false,
                            /*resolve=*/true, state);
    AnalyzePredicatesOnly(child_step, state);
  }

  void AnalyzeDescendantTarget(const std::string& name, bool include_self,
                               bool resolve, PathState& state) {
    const std::set<std::string>& context = state.type.elements;
    std::set<std::string> closure = DescendantClosure(context);
    bool reachable = closure.count(name) != 0;
    if (include_self && context.count(name) != 0) reachable = true;
    if (!reachable && !context.empty()) {
      if (!NameDeclared(name)) {
        Diagnose(DiagnosticKind::kUnknownName, Severity::kError,
                 state.rendered,
                 "name test '" + name +
                     "' matches nothing declared in the class DTD");
      } else {
        Diagnose(DiagnosticKind::kUnreachableDescendant, Severity::kError,
                 state.rendered,
                 "'" + name + "' is not a descendant of " +
                     JoinTypes(context) + " in the DTD");
      }
      state.type = StaticType::Elements({});
      state.card = Cardinality::kEmpty;
      return;
    }

    // Chain enumeration: per context type, every simple label path the DTD
    // admits down to the target.
    bool exact = true;
    std::vector<std::string> rendered;
    bool bound_known = true;
    uint64_t bound = 0;
    for (const std::string& type : context) {
      std::vector<std::vector<std::string>> chains;
      if (!EnumerateChains(type, name, chains)) {
        exact = false;
        break;
      }
      for (std::vector<std::string>& chain : chains) {
        if (bound_known) {
          uint64_t product = 1;
          std::string parent = type;
          for (const std::string& label : chain) {
            std::optional<uint64_t> m = ObservedMax(parent, label);
            if (!m.has_value()) {
              bound_known = false;
              break;
            }
            product = std::min<uint64_t>(product * *m, 2);
            parent = label;
          }
          if (bound_known) bound = std::min<uint64_t>(bound + product, 2);
        }
        rendered.push_back(type + " -> " + Join(chain, "/"));
      }
    }
    if (exact) {
      if (resolve && !rendered.empty()) {
        state.expansions.insert(state.expansions.end(), rendered.begin(),
                                rendered.end());
        ++report_.resolved_steps;
      }
      if (include_self && context.count(name) != 0 && bound_known) {
        bound = std::min<uint64_t>(bound + 1, 2);
      }
      state.card = CombineCard(state.card,
                               bound_known ? CardFromCount(bound)
                                           : Cardinality::kUnknown);
    } else {
      // Recursive schema (TC/MD nested sections): reachable but unbounded.
      state.card = Cardinality::kUnknown;
    }
    state.type = StaticType::Elements({name});
  }

  void AnalyzePredicatesOnly(const Step& step, PathState& state) {
    StaticType narrowed =
        AnalyzePredicates(step.predicates, state.type);
    for (const auto& pred : step.predicates) {
      if (pred->kind == ExprKind::kNumberLiteral) {
        state.card = CombineCard(state.card, Cardinality::kAtMostOne);
      }
    }
    state.type = std::move(narrowed);
  }

  const SchemaContext& ctx_;
  AnalysisReport report_;
  std::vector<std::pair<std::string, StaticType>> scope_;
  size_t path_errors_ = 0;
};

}  // namespace

const char* DiagnosticKindName(DiagnosticKind kind) {
  switch (kind) {
    case DiagnosticKind::kUnknownName:
      return "unknown-name";
    case DiagnosticKind::kImpossibleStep:
      return "impossible-step";
    case DiagnosticKind::kUnreachableDescendant:
      return "unreachable-descendant";
    case DiagnosticKind::kAlwaysEmptyPath:
      return "always-empty-path";
  }
  return "?";
}

const char* CardinalityName(Cardinality cardinality) {
  switch (cardinality) {
    case Cardinality::kEmpty:
      return "empty";
    case Cardinality::kAtMostOne:
      return "at-most-one";
    case Cardinality::kMany:
      return "many";
    case Cardinality::kUnknown:
      return "unknown";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::string out = severity == Severity::kError ? "error" : "warning";
  out += "[";
  out += DiagnosticKindName(kind);
  out += "] ";
  out += path;
  out += ": ";
  out += message;
  return out;
}

bool AnalysisReport::HasErrors() const {
  for (const Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.severity == Severity::kError) return true;
  }
  return false;
}

std::string AnalysisReport::ToString() const {
  std::string out;
  for (const Diagnostic& diagnostic : diagnostics) {
    out += "  " + diagnostic.ToString() + "\n";
  }
  for (const PathInfo& info : paths) {
    out += "  path " + info.rendered + "  [" +
           CardinalityName(info.cardinality) + "]";
    if (!info.result_types.empty()) {
      out += "  -> {";
      for (size_t i = 0; i < info.result_types.size(); ++i) {
        if (i != 0) out += ", ";
        out += info.result_types[i];
      }
      out += "}";
    }
    out += "\n";
    for (const std::string& expansion : info.expansions) {
      out += "    resolves " + expansion + "\n";
    }
  }
  return out;
}

AnalysisReport Analyze(const xquery::Expr& query, const SchemaContext& context) {
  Analyzer analyzer(context);
  return analyzer.Run(query);
}

Status AnalyzeQuery(const xquery::Expr& query, const xml::Dtd& dtd,
                    const xml::SchemaSummary* summary,
                    const std::vector<std::string>& roots,
                    AnalysisReport* report_out) {
  SchemaContext context;
  context.dtd = &dtd;
  context.summary = summary;
  context.roots = roots;
  AnalysisReport report = Analyze(query, context);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetCounter("xbench.analysis.queries").Increment();
  registry.GetCounter("xbench.analysis.steps_resolved")
      .Increment(static_cast<uint64_t>(report.resolved_steps));
  for (const Diagnostic& diagnostic : report.diagnostics) {
    registry
        .GetCounter(std::string("xbench.analysis.diag.") +
                    DiagnosticKindName(diagnostic.kind))
        .Increment();
    registry
        .GetCounter(diagnostic.severity == Severity::kError
                        ? "xbench.analysis.errors"
                        : "xbench.analysis.warnings")
        .Increment();
  }
  if (!report.HasErrors()) {
    if (report_out != nullptr) *report_out = std::move(report);
    return Status::Ok();
  }
  std::string message = "query fails schema analysis:";
  for (const Diagnostic& diagnostic : report.diagnostics) {
    if (diagnostic.severity != Severity::kError) continue;
    message += " " + diagnostic.ToString() + ";";
  }
  if (!message.empty() && message.back() == ';') message.pop_back();
  return Status::InvalidArgument(std::move(message));
}

}  // namespace xbench::analysis
