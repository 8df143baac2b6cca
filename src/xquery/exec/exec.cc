#include "xquery/exec/exec.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xquery/functions.h"
#include "xquery/step_eval.h"

namespace xbench::xquery::exec {
namespace {

using plan::AccessPath;
using plan::IndexProbe;
using plan::LogicalKind;
using plan::LogicalNode;
using plan::ProbeContext;
using plan::ProbeKind;

/// A tuple of the FLWOR pipeline: the variable bindings accumulated by the
/// for/let operators upstream of the current position.
using Env = std::vector<ScopeBinding>;

/// Owner of constructor-built nodes (QueryResult::constructed and the
/// per-index scratch arenas of a wide region).
using xml::Arena;

/// Tuples pulled per NextBatch() call. Large enough to amortize the
/// per-pull virtual dispatch and to give a parallel where clause a full
/// morsel's worth of conditions, small enough that a selective pipeline
/// never materializes far past what the consumer needs.
constexpr size_t kTupleBatch = 64;

/// One HashGroupCount build: for every distinct group key, the ascending
/// indexes of the items of X with at least one R value carrying that key.
/// Keys follow the interpreter's general comparison (CompareAtomic): a
/// value that parses as a number is keyed by that number (-0 and 0 are
/// one key: they compare, and so hash, equal), any other value by its
/// string. R is a path, so its values are nodes and never atomize to NaN.
struct GroupCountTable {
  std::unordered_map<double, std::vector<uint32_t>> numbers;
  std::unordered_map<std::string, std::vector<uint32_t>> strings;
  /// Items with at least one numeric key: a NaN probe compares equal to
  /// every number.
  std::vector<uint32_t> any_number;
  size_t items = 0;
};

/// Everything one Execute() call threads through the operator tree. The
/// scope holds the bindings of enclosing tuples while a sub-plan runs, so
/// expression leaves see exactly the variables the interpreter would.
///
/// Thread-safety contract for morsel tasks (DESIGN.md §12): while a
/// parallel region runs, tasks may read bindings/options/scope (no
/// operator mutates them mid-region), but must not touch arena, stats,
/// or the scope stack — each task writes only its own index's output slot
/// and a task-private arena that
/// RunParallel adopts into the run arena in a fixed order after the
/// region joins.
struct ExecContext {
  const Bindings* bindings = nullptr;
  const EvalOptions* options = nullptr;
  Arena* arena = nullptr;
  Env scope;
  std::vector<OperatorStats>* stats = nullptr;
  obs::Counter* nodes_visited = nullptr;
  /// Engine index access for probe operators; null = probes run their
  /// fallback access path. Only read on the calling thread (postings are
  /// resolved before any morsel fan-out).
  const IndexProvider* indexes = nullptr;
  bool trace = false;
  /// HashGroupCount tables by operator slot, built on each operator's
  /// first probe of this execution. They live here, never in the shared
  /// frozen plan, because each execution sees its own bindings.
  std::map<size_t, GroupCountTable> group_counts;
};

/// Items each lane of a parallel region must get before the region goes
/// wide. Publishing a region to the pool costs a wake-up and a join per
/// lane, which a handful of microsecond predicate decisions or tuple keys
/// cannot repay; a region with fewer than two lanes' worth of items runs
/// inline on the calling thread.
constexpr size_t kMinItemsPerLane = 16;

/// Lanes a region of `total` items gets: one per kMinItemsPerLane items,
/// capped at the shared pool's thread count.
size_t LanesFor(size_t total) {
  return std::min<size_t>(
      static_cast<size_t>(WorkerPool::Default().thread_count()),
      total / kMinItemsPerLane);
}

/// Runs fn(i, arena) for i in 0..total-1, sizing the region from its
/// input (LanesFor). Below two lanes the region runs inline on the caller
/// with the run arena and books no morsels. Otherwise it runs on the
/// shared worker pool, each index building nodes into its own scratch
/// arena; the run arena adopts the arenas whole (blocks, not nodes) in
/// index order after the join, so node ownership is identical no matter
/// which lane built which node, and the region's morsels are booked
/// against the operator's stats slot. Either way the lowest-index error
/// is returned, matching a sequential loop's first error regardless of
/// lane interleaving.
template <typename Fn>
Status RunParallel(ExecContext& ctx, size_t slot, size_t total, Fn&& fn) {
  const size_t lanes = LanesFor(total);
  if (lanes < 2) {
    for (size_t i = 0; i < total; ++i) {
      XBENCH_RETURN_IF_ERROR(fn(i, *ctx.arena));
    }
    return Status::Ok();
  }
  std::vector<std::unique_ptr<Arena>> arenas(total);
  ParallelRunStats stats;
  const Status status = WorkerPool::Default().ParallelFor(
      total, static_cast<int>(lanes),
      [&](size_t i) {
        arenas[i] = std::make_unique<Arena>();
        return fn(i, *arenas[i]);
      },
      &stats);
  for (auto& arena : arenas) ctx.arena->Adopt(std::move(arena));
  (*ctx.stats)[slot].morsels += stats.morsels;
  return status;
}

/// Pushes a tuple's bindings onto the evaluation scope for the duration of
/// one sub-plan run.
class ScopedTuple {
 public:
  ScopedTuple(ExecContext& ctx, const Env& tuple)
      : scope_(ctx.scope), mark_(ctx.scope.size()) {
    scope_.insert(scope_.end(), tuple.begin(), tuple.end());
  }
  ~ScopedTuple() { scope_.resize(mark_); }

  ScopedTuple(const ScopedTuple&) = delete;
  ScopedTuple& operator=(const ScopedTuple&) = delete;

 private:
  Env& scope_;
  size_t mark_;
};

/// Interpreter-core evaluation of an expression leaf under an explicit
/// scope and arena — the form region bodies use (each passes the arena
/// RunParallel hands it; the shared scope is read-only while a region
/// runs).
Result<Sequence> EvalLeafIn(const ExecContext& ctx, const Env& scope,
                            Arena& arena, const Expr& expr,
                            const Item* context_item = nullptr,
                            size_t position = 0, size_t size = 0) {
  return EvalWithEnv(expr, *ctx.bindings, scope, context_item, position, size,
                     *ctx.options, arena);
}

/// Interpreter-core evaluation of an expression leaf under the current
/// scope (and an optional focus for predicates).
Result<Sequence> EvalLeaf(ExecContext& ctx, const Expr& expr,
                          const Item* context_item = nullptr,
                          size_t position = 0, size_t size = 0) {
  return EvalLeafIn(ctx, ctx.scope, *ctx.arena, expr, context_item, position,
                    size);
}

/// One predicate decision for candidate i of n, byte-compatible with the
/// interpreter's ApplyPredicates (a numeric singleton selects by
/// position, anything else filters by effective boolean value).
Result<bool> PredicateKeeps(const ExecContext& ctx, const Env& scope,
                            Arena& arena, const Expr& pred,
                            const Sequence& candidates, size_t i, size_t n) {
  XBENCH_ASSIGN_OR_RETURN(
      Sequence value, EvalLeafIn(ctx, scope, arena, pred, &candidates[i],
                                 i + 1, n));
  if (value.size() == 1 && value.front().kind == Item::Kind::kNumber) {
    return static_cast<double>(i + 1) == value.front().num;
  }
  return EffectiveBooleanValue(value);
}

/// Predicate application over the current scope: each predicate pass
/// fans the candidate decisions out as one region with the focus (i+1, n)
/// frozen before the fan-out, then keeps survivors in candidate order —
/// answers and error selection are byte-identical to a sequential loop.
Result<Sequence> RunPredicates(ExecContext& ctx, size_t slot,
                               const std::vector<const Expr*>& predicates,
                               Sequence candidates) {
  for (const Expr* pred : predicates) {
    const size_t n = candidates.size();
    std::vector<signed char> keep(n, 0);
    const Status status =
        RunParallel(ctx, slot, n, [&](size_t i, Arena& arena) -> Status {
          auto decision =
              PredicateKeeps(ctx, ctx.scope, arena, *pred, candidates, i, n);
          if (!decision.ok()) return decision.status();
          keep[i] = decision.value() ? 1 : 0;
          return Status::Ok();
        });
    if (!status.ok()) return status;
    Sequence kept;
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) kept.push_back(candidates[i]);
    }
    candidates = std::move(kept);
  }
  return candidates;
}

}  // namespace

/// Item operator: pulls its inputs and produces an item sequence. Run()
/// wraps the subclass body with per-slot counters and an optional span.
class ItemOp {
 public:
  ItemOp(std::string label, size_t slot)
      : label_(std::move(label)), slot_(slot) {}
  virtual ~ItemOp() = default;

  Result<Sequence> Run(ExecContext& ctx) const {
    return Measured<Sequence>(ctx, [&] { return DoRun(ctx); });
  }

 protected:
  virtual Result<Sequence> DoRun(ExecContext& ctx) const = 0;
  size_t slot() const { return slot_; }

  /// Runs `body` under this operator's stats slot and optional span.
  template <typename T, typename Body>
  Result<T> Measured(ExecContext& ctx, Body&& body) const {
    OperatorStats& stats = (*ctx.stats)[slot_];
    ++stats.invocations;
    Stopwatch watch;
    Result<T> result = [&]() -> Result<T> {
      if (ctx.trace) {
        obs::ScopedSpan span("plan.op." + label_);
        return body();
      }
      return body();
    }();
    stats.millis += watch.ElapsedMillis();
    if (result.ok()) stats.rows_out += RowsOf(result.value());
    return result;
  }

 private:
  static size_t RowsOf(const Sequence& items) { return items.size(); }
  static size_t RowsOf(const xml::Node*) { return 1; }

  std::string label_;
  size_t slot_;
};

namespace {

class ScanOp final : public ItemOp {
 public:
  ScanOp(std::string label, size_t slot, std::string name)
      : ItemOp(std::move(label), slot), name_(std::move(name)) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    // Innermost tuple binding wins; globals ($input) come from Bindings.
    for (auto it = ctx.scope.rbegin(); it != ctx.scope.rend(); ++it) {
      if (it->first == name_) return it->second;
    }
    auto it = ctx.bindings->find(name_);
    if (it != ctx.bindings->end()) return it->second;
    return Status::NotFound("unbound variable $" + name_);
  }

 private:
  std::string name_;
};

/// Interpreter-core leaf: any expression the planner did not decompose
/// (literals, comparisons, constructors, fallback shapes).
class EvalExprOp final : public ItemOp {
 public:
  EvalExprOp(std::string label, size_t slot, const Expr* expr)
      : ItemOp(std::move(label), slot), expr_(expr) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    return EvalLeaf(ctx, *expr_);
  }

 private:
  const Expr* expr_;
};

class AxisStepOp final : public ItemOp {
 public:
  AxisStepOp(std::string label, size_t slot, std::unique_ptr<ItemOp> input,
             Axis axis, std::string name_test,
             std::vector<const Expr*> predicates)
      : ItemOp(std::move(label), slot),
        input_(std::move(input)),
        axis_(axis),
        name_test_(std::move(name_test)),
        predicates_(std::move(predicates)) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    XBENCH_ASSIGN_OR_RETURN(Sequence input, input_->Run(ctx));
    VisitTally visited(*ctx.nodes_visited);
    Sequence result;
    for (const Item& context : input) {
      if (!context.is_node_kind()) {
        return Status::InvalidArgument("path step applied to an atomic value");
      }
      if (context.kind == Item::Kind::kAttribute) {
        // Only self::* is meaningful on attributes.
        if (axis_ == Axis::kSelf) result.push_back(context);
        continue;
      }
      Sequence candidates = AxisCandidates(*context.node, axis_, name_test_,
                                           visited.count);
      XBENCH_ASSIGN_OR_RETURN(
          candidates,
          RunPredicates(ctx, slot(), predicates_, std::move(candidates)));
      result.insert(result.end(), candidates.begin(), candidates.end());
    }
    SortDocumentOrderUnique(result);
    return result;
  }

 private:
  std::unique_ptr<ItemOp> input_;
  Axis axis_;
  std::string name_test_;
  std::vector<const Expr*> predicates_;
};

/// The fused `//name` operator. The access path is frozen at plan time:
/// kGuidedWalk descends only along the label chains of the path guide
/// passed in EvalOptions (falling back to the full scan for contexts the
/// guide does not cover, so it can never drop results); kFullScan always
/// scans the subtree. Predicates evaluate per parent element — the
/// candidate lists the unfused child step would build — so positional
/// predicates keep their meaning.
///
/// The walk itself is a memory-bound tree walk and runs on the calling
/// thread; only predicate decisions, which evaluate interpreter leaves,
/// may go wide (RunPredicates, one region per parent group).
class DescendantStepOp final : public ItemOp {
 public:
  DescendantStepOp(std::string label, size_t slot,
                   std::unique_ptr<ItemOp> input, std::string name_test,
                   std::vector<const Expr*> predicates, bool guided)
      : ItemOp(std::move(label), slot),
        input_(std::move(input)),
        name_test_(std::move(name_test)),
        predicates_(std::move(predicates)),
        guided_(guided) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    XBENCH_ASSIGN_OR_RETURN(Sequence input, input_->Run(ctx));
    const PathGuide* guide = guided_ ? ctx.options->guide : nullptr;
    VisitTally visited(*ctx.nodes_visited);
    Sequence result;
    for (const Item& context : input) {
      if (!context.is_node_kind()) {
        return Status::InvalidArgument("path step applied to an atomic value");
      }
      if (context.kind == Item::Kind::kAttribute) continue;
      if (predicates_.empty()) {
        CollectFusedDescendants(*context.node, guide, name_test_, result,
                                visited.count);
        continue;
      }
      std::vector<Sequence> groups;
      CollectFusedGroups(*context.node, guide, name_test_, groups,
                         visited.count);
      for (Sequence& group : groups) {
        XBENCH_ASSIGN_OR_RETURN(
            group, RunPredicates(ctx, slot(), predicates_, std::move(group)));
        result.insert(result.end(), group.begin(), group.end());
      }
    }
    SortDocumentOrderUnique(result);
    return result;
  }

 private:
  std::unique_ptr<ItemOp> input_;
  std::string name_test_;
  std::vector<const Expr*> predicates_;
  bool guided_;
};

class FilterOp final : public ItemOp {
 public:
  FilterOp(std::string label, size_t slot, std::unique_ptr<ItemOp> input,
           std::vector<const Expr*> predicates)
      : ItemOp(std::move(label), slot),
        input_(std::move(input)),
        predicates_(std::move(predicates)) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    XBENCH_ASSIGN_OR_RETURN(Sequence input, input_->Run(ctx));
    return RunPredicates(ctx, slot(), predicates_, std::move(input));
  }

 private:
  std::unique_ptr<ItemOp> input_;
  std::vector<const Expr*> predicates_;
};

class AggregateOp final : public ItemOp {
 public:
  AggregateOp(std::string label, size_t slot, std::unique_ptr<ItemOp> input,
              std::string function)
      : ItemOp(std::move(label), slot),
        input_(std::move(input)),
        function_(std::move(function)) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    XBENCH_ASSIGN_OR_RETURN(Sequence input, input_->Run(ctx));
    std::vector<Sequence> args;
    args.push_back(std::move(input));
    return CallFunction(function_, std::move(args));
  }

 private:
  std::unique_ptr<ItemOp> input_;
  std::string function_;
};

/// Direct element constructor, built into the run arena exactly as the
/// interpreter's BuildConstructed builds it: attributes from their text
/// and enclosed-expression parts, then content in order — text parts,
/// nested constructors built in place, atomics joined with one space and
/// flushed around node items, nodes copied. A top-level tree gets
/// pre-order ids from 1 and no collection rank.
class ConstructOp final : public ItemOp {
 public:
  ConstructOp(std::string label, size_t slot, const Expr* constructor,
              std::vector<std::unique_ptr<ItemOp>> inputs)
      : ItemOp(std::move(label), slot),
        constructor_(constructor),
        inputs_(std::move(inputs)) {}

  /// Builds the element as the last child of `parent` (a nested
  /// constructor), under this operator's counters.
  Result<xml::Node*> BuildUnder(ExecContext& ctx, xml::Node* parent) const {
    return Measured<xml::Node*>(ctx, [&] { return Build(ctx, parent); });
  }

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    XBENCH_ASSIGN_OR_RETURN(xml::Node * element, Build(ctx, nullptr));
    uint32_t next = 1;
    AssignOrder(*element, next);
    return Sequence{Item::Node(element)};
  }

 private:
  static void AssignOrder(xml::Node& node, uint32_t& next) {
    node.set_order(next++);
    for (xml::Node* child : node.children()) AssignOrder(*child, next);
  }

  Result<xml::Node*> Build(ExecContext& ctx, xml::Node* parent) const {
    const Expr& e = *constructor_;
    xml::Node* element = parent != nullptr
                             ? parent->AddElement(e.element_name)
                             : ctx.arena->NewElement(e.element_name);
    size_t input = 0;
    for (const ConstructorAttr& attr : e.constructor_attrs) {
      std::string value;
      for (const ConstructorContent& part : attr.value_parts) {
        if (part.kind == ConstructorContent::kText) {
          value += part.text;
        } else if (part.kind == ConstructorContent::kExpr) {
          XBENCH_ASSIGN_OR_RETURN(Sequence items, inputs_[input++]->Run(ctx));
          for (size_t i = 0; i < items.size(); ++i) {
            if (i != 0) value += " ";
            value += AtomizeToString(items[i]);
          }
        } else {
          return Status::InvalidArgument(
              "element constructor in attribute value");
        }
      }
      element->SetAttribute(attr.name, value);
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
          // PhysicalBuilder only builds a ConstructOp whose nested
          // constructor inputs are ConstructOps (ConstructInputsMatch).
          const auto& child =
              static_cast<const ConstructOp&>(*inputs_[input++]);
          XBENCH_RETURN_IF_ERROR(child.BuildUnder(ctx, element).status());
          break;
        }
        case ConstructorContent::kExpr: {
          XBENCH_ASSIGN_OR_RETURN(Sequence items, inputs_[input++]->Run(ctx));
          for (const Item& item : items) {
            if (item.kind == Item::Kind::kNode) {
              flush_atomics();
              element->AppendCopy(*item.node);
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

  const Expr* constructor_;
  /// One per enclosed expression and nested constructor, in the order
  /// Build consumes them (plan::ConstructInputCount).
  std::vector<std::unique_ptr<ItemOp>> inputs_;
};

/// `count(X[R = $v])` as a hash group count. On its first probe of an
/// execution it runs X once and keys every item by its distinct R values
/// (GroupCountTable); each probe then counts the items whose keys compare
/// equal to $v, exactly as the interpreter's general comparison would.
/// The planner only matches shapes where X and R read no FLWOR variable,
/// so one table serves every tuple of the execution.
class HashGroupCountOp final : public ItemOp {
 public:
  HashGroupCountOp(std::string label, size_t slot,
                   std::unique_ptr<ItemOp> items, std::unique_ptr<ItemOp> probe,
                   const Expr* key)
      : ItemOp(std::move(label), slot),
        items_(std::move(items)),
        probe_(std::move(probe)),
        key_(key) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    auto it = ctx.group_counts.find(slot());
    if (it == ctx.group_counts.end()) {
      XBENCH_ASSIGN_OR_RETURN(GroupCountTable table, BuildTable(ctx));
      it = ctx.group_counts.emplace(slot(), std::move(table)).first;
    }
    const GroupCountTable& table = it->second;
    XBENCH_ASSIGN_OR_RETURN(Sequence probe, probe_->Run(ctx));
    std::vector<const std::vector<uint32_t>*> matches;
    for (const Item& value : probe) AddMatches(table, value, matches);
    size_t count = 0;
    if (matches.size() == 1) {
      count = matches.front()->size();
    } else if (matches.size() > 1) {
      // General comparison is existential: an item counts once however
      // many of its keys match.
      std::vector<char> seen(table.items, 0);
      for (const std::vector<uint32_t>* list : matches) {
        for (uint32_t i : *list) {
          if (!seen[i]) {
            seen[i] = 1;
            ++count;
          }
        }
      }
    }
    return Sequence{Item::Number(static_cast<double>(count))};
  }

 private:
  struct Key {
    bool numeric = false;
    double number = 0;
    std::string text;
  };

  /// One pass over X: each item's R values (the interpreter evaluates R
  /// with the item as focus, as the replaced predicate did), fanned out
  /// as one region, then merged into the table in item order.
  Result<GroupCountTable> BuildTable(ExecContext& ctx) const {
    XBENCH_ASSIGN_OR_RETURN(Sequence items, items_->Run(ctx));
    const size_t n = items.size();
    std::vector<std::vector<Key>> keys(n);
    const Status status =
        RunParallel(ctx, slot(), n, [&](size_t i, Arena& arena) -> Status {
          auto values =
              EvalLeafIn(ctx, ctx.scope, arena, *key_, &items[i], i + 1, n);
          if (!values.ok()) return values.status();
          for (const Item& value : values.value()) {
            Key key;
            key.text = AtomizeToString(value);
            const double number = ParseDouble(key.text);
            if (!std::isnan(number)) {
              key.numeric = true;
              key.number = number;
              key.text.clear();
            }
            keys[i].push_back(std::move(key));
          }
          return Status::Ok();
        });
    if (!status.ok()) return status;
    GroupCountTable table;
    table.items = n;
    auto add = [](std::vector<uint32_t>& list, uint32_t i) {
      if (list.empty() || list.back() != i) list.push_back(i);
    };
    for (size_t i = 0; i < n; ++i) {
      const auto index = static_cast<uint32_t>(i);
      for (const Key& key : keys[i]) {
        if (key.numeric) {
          add(table.numbers[key.number], index);
          add(table.any_number, index);
        } else {
          add(table.strings[key.text], index);
        }
      }
    }
    return table;
  }

  /// The posting lists of the items whose keys compare equal to `value`.
  /// A number matches equal numeric keys (NaN matches all of them); a
  /// value whose string does not parse as a number (a string, a boolean,
  /// NaN) also matches that string's key.
  static void AddMatches(const GroupCountTable& table, const Item& value,
                         std::vector<const std::vector<uint32_t>*>& out) {
    const std::optional<double> number = AtomizeToNumber(value);
    if (number.has_value()) {
      if (std::isnan(*number)) {
        if (!table.any_number.empty()) out.push_back(&table.any_number);
      } else {
        auto it = table.numbers.find(*number);
        if (it != table.numbers.end()) out.push_back(&it->second);
      }
    }
    const std::string text = AtomizeToString(value);
    if (!std::isnan(ParseDouble(text))) return;
    auto it = table.strings.find(text);
    if (it != table.strings.end()) out.push_back(&it->second);
  }

  std::unique_ptr<ItemOp> items_;
  std::unique_ptr<ItemOp> probe_;
  const Expr* key_;
};

/// Index probe: resolves postings through the execution's IndexProvider,
/// maps them to the elements the replaced access path would have
/// enumerated, validates each against the probed root set and structural
/// context, then re-applies the original step's predicates. Falls back to
/// the wrapped access path (inputs[0] of the logical probe node) whenever
/// the index is unavailable or the root set is not a plain set of
/// parentless element nodes — so probe plans answer exactly like their
/// unprobed form on any binding.
class IndexProbeOp final : public ItemOp {
 public:
  IndexProbeOp(std::string label, size_t slot,
               std::unique_ptr<ItemOp> fallback, std::unique_ptr<ItemOp> roots,
               IndexProbe probe, std::vector<const Expr*> predicates)
      : ItemOp(std::move(label), slot),
        fallback_(std::move(fallback)),
        roots_(std::move(roots)),
        probe_(std::move(probe)),
        predicates_(std::move(predicates)) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    if (ctx.indexes == nullptr) return fallback_->Run(ctx);
    XBENCH_ASSIGN_OR_RETURN(Sequence roots, roots_->Run(ctx));
    // The probe's completeness argument assumes the bound sequence is
    // document roots (the indexed collection). Anything else — attributes,
    // mid-tree elements a test harness bound — goes through the fallback.
    for (const Item& item : roots) {
      if (item.kind != Item::Kind::kNode || item.node == nullptr ||
          item.node->parent() != nullptr) {
        return fallback_->Run(ctx);
      }
    }
    std::optional<std::vector<const xml::Node*>> postings;
    switch (probe_.kind) {
      case ProbeKind::kValueEquals:
        postings = ctx.indexes->ValueLookup(probe_.index, probe_.key);
        break;
      case ProbeKind::kValueRange:
        postings = ctx.indexes->ValueRange(probe_.index, probe_.lo, probe_.hi);
        break;
      case ProbeKind::kTextWord:
        postings = ctx.indexes->TextLookup(probe_.word);
        break;
    }
    if (!postings.has_value()) return fallback_->Run(ctx);
    std::set<const xml::Node*> root_set;
    for (const Item& item : roots) root_set.insert(item.node);
    Sequence candidates;
    VisitTally visited(*ctx.nodes_visited);
    for (const xml::Node* posting : *postings) {
      if (posting == nullptr) continue;
      ++visited.count;
      if (probe_.kind == ProbeKind::kTextWord) {
        CollectTextCandidates(posting, root_set, candidates);
        continue;
      }
      const xml::Node* candidate =
          probe_.key_is_attribute ? posting : posting->parent();
      if (Accepts(candidate, root_set)) {
        candidates.push_back(Item::Node(candidate));
      }
    }
    if (probe_.context == ProbeContext::kRoots) {
      // The replaced expression is a filter over the bound variable, which
      // preserves the variable's binding order without a document-order
      // sort — so the probe must too. Re-rank the hit roots by their
      // position in the roots sequence (this also dedups: each root
      // appears once there). A document-order sort here would reorder a
      // binding that is not itself in document order.
      std::set<const xml::Node*> hits;
      for (const Item& item : candidates) hits.insert(item.node);
      Sequence ordered;
      for (const Item& item : roots) {
        if (hits.count(item.node) != 0) ordered.push_back(item);
      }
      candidates = std::move(ordered);
    } else {
      // Child/descendant contexts: the replaced step ends in the same
      // document-order sort, so the probe's candidate order matches it.
      SortDocumentOrderUnique(candidates);
    }
    return RunPredicates(ctx, slot(), predicates_, std::move(candidates));
  }

 private:
  /// Structural-context check: would the replaced access path have
  /// enumerated `candidate` from this root set?
  bool Accepts(const xml::Node* candidate,
               const std::set<const xml::Node*>& root_set) const {
    if (candidate == nullptr) return false;
    switch (probe_.context) {
      case ProbeContext::kRoots:
        return root_set.count(candidate) != 0;
      case ProbeContext::kRootChildren:
        return candidate->name() == probe_.target_name &&
               candidate->parent() != nullptr &&
               root_set.count(candidate->parent()) != 0;
      case ProbeContext::kRootDescendants:
        return candidate->name() == probe_.target_name &&
               candidate->parent() != nullptr &&
               root_set.count(xml::TreeRoot(candidate)) != 0;
    }
    return false;
  }

  /// Text postings name the element directly containing the word; every
  /// ancestor-or-self matching the probe's structural context also
  /// contains it and is a candidate (a superset — the kept predicates and
  /// where clause re-check the containment exactly).
  void CollectTextCandidates(const xml::Node* posting,
                             const std::set<const xml::Node*>& root_set,
                             Sequence& out) const {
    if (probe_.context == ProbeContext::kRoots) {
      const xml::Node* root = xml::TreeRoot(posting);
      if (root_set.count(root) != 0) out.push_back(Item::Node(root));
      return;
    }
    for (const xml::Node* node = posting; node != nullptr;
         node = node->parent()) {
      if (Accepts(node, root_set)) out.push_back(Item::Node(node));
    }
  }

  std::unique_ptr<ItemOp> fallback_;
  std::unique_ptr<ItemOp> roots_;
  IndexProbe probe_;
  std::vector<const Expr*> predicates_;
};

// --- tuple operators ------------------------------------------------------

/// Streaming cursor over a tuple operator's output. Next()/NextBatch()
/// wrap the subclass body with the owning operator's counters.
class TupleCursor {
 public:
  virtual ~TupleCursor() = default;

  /// Emits the next tuple into `out`; false at end of stream.
  Result<bool> Next(ExecContext& ctx, Env* out) {
    Stopwatch watch;
    Result<bool> result = DoNext(ctx, out);
    OperatorStats& stats = (*ctx.stats)[slot_];
    stats.millis += watch.ElapsedMillis();
    if (result.ok() && result.value()) ++stats.rows_out;
    return result;
  }

  /// Emits up to `max` tuples into `out` (cleared first); an empty batch
  /// means end of stream. Batch-aware cursors override DoNextBatch to
  /// amortize per-tuple dispatch and to evaluate whole batches in
  /// parallel; the default loops the scalar DoNext.
  Status NextBatch(ExecContext& ctx, std::vector<Env>* out, size_t max) {
    Stopwatch watch;
    out->clear();
    const Status status = DoNextBatch(ctx, out, max);
    OperatorStats& stats = (*ctx.stats)[slot_];
    stats.millis += watch.ElapsedMillis();
    stats.rows_out += out->size();
    return status;
  }

 protected:
  explicit TupleCursor(size_t slot) : slot_(slot) {}
  virtual Result<bool> DoNext(ExecContext& ctx, Env* out) = 0;

  /// Calls DoNext directly (not Next) so the batch does not double-count
  /// time or rows into the operator's stats slot.
  virtual Status DoNextBatch(ExecContext& ctx, std::vector<Env>* out,
                             size_t max) {
    Env tuple;
    while (out->size() < max) {
      auto more = DoNext(ctx, &tuple);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      out->push_back(std::move(tuple));
    }
    return Status::Ok();
  }

  size_t slot() const { return slot_; }

 private:
  size_t slot_;
};

class TupleOp {
 public:
  TupleOp(std::string label, size_t slot)
      : label_(std::move(label)), slot_(slot) {}
  virtual ~TupleOp() = default;

  std::unique_ptr<TupleCursor> Open(ExecContext& ctx) const {
    ++(*ctx.stats)[slot_].invocations;
    return MakeCursor(ctx);
  }

  const std::string& label() const { return label_; }

 protected:
  virtual std::unique_ptr<TupleCursor> MakeCursor(ExecContext& ctx) const = 0;
  size_t slot() const { return slot_; }

 private:
  std::string label_;
  size_t slot_;
};

class SingletonCursor final : public TupleCursor {
 public:
  explicit SingletonCursor(size_t slot) : TupleCursor(slot) {}

 protected:
  Result<bool> DoNext(ExecContext&, Env* out) override {
    if (done_) return false;
    done_ = true;
    out->clear();
    return true;
  }

 private:
  bool done_ = false;
};

class SingletonOp final : public TupleOp {
 public:
  SingletonOp(std::string label, size_t slot)
      : TupleOp(std::move(label), slot) {}

 protected:
  std::unique_ptr<TupleCursor> MakeCursor(ExecContext&) const override {
    return std::make_unique<SingletonCursor>(slot());
  }
};

/// Dependent for clause: evaluates the input plan once per upstream tuple
/// and fans each item out as a new tuple. Depth-first pulling produces the
/// same lexicographic tuple order as the interpreter's breadth-first env
/// construction.
class ForOp final : public TupleOp {
 public:
  ForOp(std::string label, size_t slot, std::unique_ptr<TupleOp> input,
        std::unique_ptr<ItemOp> items, std::string variable,
        std::string position_variable)
      : TupleOp(std::move(label), slot),
        input_(std::move(input)),
        items_(std::move(items)),
        variable_(std::move(variable)),
        position_variable_(std::move(position_variable)) {}

 protected:
  std::unique_ptr<TupleCursor> MakeCursor(ExecContext& ctx) const override;

 private:
  friend class ForCursor;
  std::unique_ptr<TupleOp> input_;
  std::unique_ptr<ItemOp> items_;
  std::string variable_;
  std::string position_variable_;
};

class ForCursor final : public TupleCursor {
 public:
  ForCursor(size_t slot, const ForOp& op, std::unique_ptr<TupleCursor> input)
      : TupleCursor(slot), op_(op), input_(std::move(input)) {}

 protected:
  Result<bool> DoNext(ExecContext& ctx, Env* out) override {
    while (true) {
      if (have_items_ && index_ < items_.size()) {
        *out = base_;
        out->emplace_back(op_.variable_, Sequence{items_[index_]});
        if (!op_.position_variable_.empty()) {
          out->emplace_back(
              op_.position_variable_,
              Sequence{Item::Number(static_cast<double>(index_ + 1))});
        }
        ++index_;
        return true;
      }
      have_items_ = false;
      XBENCH_ASSIGN_OR_RETURN(bool more, input_->Next(ctx, &base_));
      if (!more) return false;
      Sequence items;
      {
        ScopedTuple tuple(ctx, base_);
        XBENCH_ASSIGN_OR_RETURN(items, op_.items_->Run(ctx));
      }
      items_ = std::move(items);
      index_ = 0;
      have_items_ = true;
    }
  }

 private:
  const ForOp& op_;
  std::unique_ptr<TupleCursor> input_;
  Env base_;
  Sequence items_;
  size_t index_ = 0;
  bool have_items_ = false;
};

std::unique_ptr<TupleCursor> ForOp::MakeCursor(ExecContext& ctx) const {
  return std::make_unique<ForCursor>(slot(), *this, input_->Open(ctx));
}

/// Independent for clause: the right side has no free variable bound by
/// any enclosing pipeline (the planner proved it), so it is materialized
/// once — lazily, on the first upstream tuple — instead of once per tuple.
class JoinOp final : public TupleOp {
 public:
  JoinOp(std::string label, size_t slot, std::unique_ptr<TupleOp> input,
         std::unique_ptr<ItemOp> items, std::string variable,
         std::string position_variable)
      : TupleOp(std::move(label), slot),
        input_(std::move(input)),
        items_(std::move(items)),
        variable_(std::move(variable)),
        position_variable_(std::move(position_variable)) {}

 protected:
  std::unique_ptr<TupleCursor> MakeCursor(ExecContext& ctx) const override;

 private:
  friend class JoinCursor;
  std::unique_ptr<TupleOp> input_;
  std::unique_ptr<ItemOp> items_;
  std::string variable_;
  std::string position_variable_;
};

class JoinCursor final : public TupleCursor {
 public:
  JoinCursor(size_t slot, const JoinOp& op, std::unique_ptr<TupleCursor> input)
      : TupleCursor(slot), op_(op), input_(std::move(input)) {}

 protected:
  Result<bool> DoNext(ExecContext& ctx, Env* out) override {
    while (true) {
      if (have_base_ && index_ < items_.size()) {
        *out = base_;
        out->emplace_back(op_.variable_, Sequence{items_[index_]});
        if (!op_.position_variable_.empty()) {
          out->emplace_back(
              op_.position_variable_,
              Sequence{Item::Number(static_cast<double>(index_ + 1))});
        }
        ++index_;
        return true;
      }
      have_base_ = false;
      XBENCH_ASSIGN_OR_RETURN(bool more, input_->Next(ctx, &base_));
      if (!more) return false;
      if (!materialized_) {
        XBENCH_ASSIGN_OR_RETURN(items_, op_.items_->Run(ctx));
        materialized_ = true;
      }
      index_ = 0;
      have_base_ = true;
    }
  }

 private:
  const JoinOp& op_;
  std::unique_ptr<TupleCursor> input_;
  Env base_;
  Sequence items_;
  size_t index_ = 0;
  bool have_base_ = false;
  bool materialized_ = false;
};

std::unique_ptr<TupleCursor> JoinOp::MakeCursor(ExecContext& ctx) const {
  return std::make_unique<JoinCursor>(slot(), *this, input_->Open(ctx));
}

class LetOp final : public TupleOp {
 public:
  LetOp(std::string label, size_t slot, std::unique_ptr<TupleOp> input,
        std::unique_ptr<ItemOp> value, std::string variable)
      : TupleOp(std::move(label), slot),
        input_(std::move(input)),
        value_(std::move(value)),
        variable_(std::move(variable)) {}

 protected:
  std::unique_ptr<TupleCursor> MakeCursor(ExecContext& ctx) const override;

 private:
  friend class LetCursor;
  std::unique_ptr<TupleOp> input_;
  std::unique_ptr<ItemOp> value_;
  std::string variable_;
};

class LetCursor final : public TupleCursor {
 public:
  LetCursor(size_t slot, const LetOp& op, std::unique_ptr<TupleCursor> input)
      : TupleCursor(slot), op_(op), input_(std::move(input)) {}

 protected:
  Result<bool> DoNext(ExecContext& ctx, Env* out) override {
    Env base;
    XBENCH_ASSIGN_OR_RETURN(bool more, input_->Next(ctx, &base));
    if (!more) return false;
    Sequence value;
    {
      ScopedTuple tuple(ctx, base);
      XBENCH_ASSIGN_OR_RETURN(value, op_.value_->Run(ctx));
    }
    *out = std::move(base);
    out->emplace_back(op_.variable_, std::move(value));
    return true;
  }

 private:
  const LetOp& op_;
  std::unique_ptr<TupleCursor> input_;
};

std::unique_ptr<TupleCursor> LetOp::MakeCursor(ExecContext& ctx) const {
  return std::make_unique<LetCursor>(slot(), *this, input_->Open(ctx));
}

class WhereOp final : public TupleOp {
 public:
  WhereOp(std::string label, size_t slot, std::unique_ptr<TupleOp> input,
          const Expr* condition)
      : TupleOp(std::move(label), slot),
        input_(std::move(input)),
        condition_(condition) {}

 protected:
  std::unique_ptr<TupleCursor> MakeCursor(ExecContext& ctx) const override;

 private:
  friend class WhereCursor;
  std::unique_ptr<TupleOp> input_;
  const Expr* condition_;
};

class WhereCursor final : public TupleCursor {
 public:
  WhereCursor(size_t slot, const WhereOp& op,
              std::unique_ptr<TupleCursor> input)
      : TupleCursor(slot), op_(op), input_(std::move(input)) {}

 protected:
  Result<bool> DoNext(ExecContext& ctx, Env* out) override {
    while (true) {
      Env base;
      XBENCH_ASSIGN_OR_RETURN(bool more, input_->Next(ctx, &base));
      if (!more) return false;
      XBENCH_ASSIGN_OR_RETURN(bool keep, Keep(ctx, base));
      if (keep) {
        *out = std::move(base);
        return true;
      }
    }
  }

  /// Batch pull: evaluates the condition over a whole upstream batch as
  /// one region (wide when the batch is large enough). Survivors keep
  /// upstream order.
  Status DoNextBatch(ExecContext& ctx, std::vector<Env>* out,
                     size_t max) override {
    std::vector<Env> batch;
    while (out->empty()) {
      XBENCH_RETURN_IF_ERROR(input_->NextBatch(ctx, &batch, max));
      if (batch.empty()) return Status::Ok();  // end of stream
      const size_t n = batch.size();
      std::vector<signed char> keep(n, 0);
      const Status status =
          RunParallel(ctx, slot(), n, [&](size_t i, Arena& arena) -> Status {
            // The tuple scope DoNext builds via ScopedTuple, assembled
            // task-privately (ctx.scope is shared read-only).
            Env combined = ctx.scope;
            combined.insert(combined.end(), batch[i].begin(), batch[i].end());
            auto condition = EvalLeafIn(ctx, combined, arena, *op_.condition_);
            if (!condition.ok()) return condition.status();
            auto decision = EffectiveBooleanValue(condition.value());
            if (!decision.ok()) return decision.status();
            keep[i] = decision.value() ? 1 : 0;
            return Status::Ok();
          });
      XBENCH_RETURN_IF_ERROR(status);
      for (size_t i = 0; i < n; ++i) {
        if (keep[i]) out->push_back(std::move(batch[i]));
      }
    }
    return Status::Ok();
  }

 private:
  Result<bool> Keep(ExecContext& ctx, const Env& base) {
    Sequence condition;
    {
      ScopedTuple tuple(ctx, base);
      XBENCH_ASSIGN_OR_RETURN(condition, EvalLeaf(ctx, *op_.condition_));
    }
    return EffectiveBooleanValue(condition);
  }

  const WhereOp& op_;
  std::unique_ptr<TupleCursor> input_;
};

std::unique_ptr<TupleCursor> WhereOp::MakeCursor(ExecContext& ctx) const {
  return std::make_unique<WhereCursor>(slot(), *this, input_->Open(ctx));
}

/// Blocking sort: drains the upstream on first Next(), computes order keys
/// per tuple and stable-sorts with exactly the interpreter's comparator
/// (numeric keys sort empty-first; ties keep arrival order).
class SortOp final : public TupleOp {
 public:
  SortOp(std::string label, size_t slot, std::unique_ptr<TupleOp> input,
         const Expr* order_source)
      : TupleOp(std::move(label), slot),
        input_(std::move(input)),
        order_source_(order_source) {}

 protected:
  std::unique_ptr<TupleCursor> MakeCursor(ExecContext& ctx) const override;

 private:
  friend class SortCursor;
  std::unique_ptr<TupleOp> input_;
  const Expr* order_source_;
};

class SortCursor final : public TupleCursor {
 public:
  SortCursor(size_t slot, const SortOp& op, std::unique_ptr<TupleCursor> input)
      : TupleCursor(slot), op_(op), input_(std::move(input)) {}

 protected:
  Result<bool> DoNext(ExecContext& ctx, Env* out) override {
    if (!loaded_) {
      XBENCH_RETURN_IF_ERROR(Load(ctx));
      loaded_ = true;
    }
    if (position_ >= tuples_.size()) return false;
    *out = std::move(tuples_[position_++]);
    return true;
  }

  /// The sort is blocking, so batches just serve slices of the
  /// materialized output.
  Status DoNextBatch(ExecContext& ctx, std::vector<Env>* out,
                     size_t max) override {
    if (!loaded_) {
      XBENCH_RETURN_IF_ERROR(Load(ctx));
      loaded_ = true;
    }
    while (out->size() < max && position_ < tuples_.size()) {
      out->push_back(std::move(tuples_[position_++]));
    }
    return Status::Ok();
  }

 private:
  struct Keyed {
    size_t index;
    std::vector<std::pair<bool, double>> numeric_keys;  // (has, value)
    std::vector<std::string> string_keys;
  };

  static void AppendKey(const OrderSpec& spec, Sequence key, Keyed& keyed) {
    if (spec.numeric) {
      std::optional<double> v;
      if (!key.empty()) v = AtomizeToNumber(key.front());
      keyed.numeric_keys.emplace_back(v.has_value(), v.value_or(0.0));
      keyed.string_keys.emplace_back();
    } else {
      keyed.numeric_keys.emplace_back(false, 0.0);
      keyed.string_keys.push_back(key.empty() ? ""
                                              : AtomizeToString(key.front()));
    }
  }

  /// Drains the input in batches, so a Where below the sort filters
  /// whole batches (wide when large enough) as it does under a Return.
  Status Load(ExecContext& ctx) {
    std::vector<Env> tuples;
    std::vector<Env> batch;
    while (true) {
      XBENCH_RETURN_IF_ERROR(input_->NextBatch(ctx, &batch, kTupleBatch));
      if (batch.empty()) break;
      std::move(batch.begin(), batch.end(), std::back_inserter(tuples));
    }
    const Expr& e = *op_.order_source_;
    std::vector<Keyed> keyed(tuples.size());
    // Key extraction is per-tuple independent; only the stable sort
    // itself stays sequential (it defines the output order).
    const Status status = RunParallel(
        ctx, slot(), tuples.size(), [&](size_t i, Arena& arena) -> Status {
          keyed[i].index = i;
          Env combined = ctx.scope;
          combined.insert(combined.end(), tuples[i].begin(), tuples[i].end());
          for (const OrderSpec& spec : e.order_by) {
            auto value = EvalLeafIn(ctx, combined, arena, *spec.key);
            if (!value.ok()) return value.status();
            AppendKey(spec, std::move(value).value(), keyed[i]);
          }
          return Status::Ok();
        });
    if (!status.ok()) return status;
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
    tuples_.reserve(tuples.size());
    for (const Keyed& k : keyed) tuples_.push_back(std::move(tuples[k.index]));
    return Status::Ok();
  }

  const SortOp& op_;
  std::unique_ptr<TupleCursor> input_;
  std::vector<Env> tuples_;
  size_t position_ = 0;
  bool loaded_ = false;
};

std::unique_ptr<TupleCursor> SortOp::MakeCursor(ExecContext& ctx) const {
  return std::make_unique<SortCursor>(slot(), *this, input_->Open(ctx));
}

/// Drives the tuple pipeline and concatenates the return plan's output per
/// tuple — the boundary between the tuple and item worlds.
class ReturnOp final : public ItemOp {
 public:
  ReturnOp(std::string label, size_t slot, std::unique_ptr<TupleOp> pipeline,
           std::unique_ptr<ItemOp> item)
      : ItemOp(std::move(label), slot),
        pipeline_(std::move(pipeline)),
        item_(std::move(item)) {}

 protected:
  Result<Sequence> DoRun(ExecContext& ctx) const override {
    std::unique_ptr<TupleCursor> cursor = pipeline_->Open(ctx);
    Sequence out;
    std::vector<Env> batch;
    while (true) {
      XBENCH_RETURN_IF_ERROR(cursor->NextBatch(ctx, &batch, kTupleBatch));
      if (batch.empty()) break;
      // The return expression stays a per-tuple scalar evaluation (its
      // sub-plan writes shared stats slots); batching amortizes the
      // cursor pulls and lets the pipeline filter whole batches at once.
      for (const Env& tuple : batch) {
        ScopedTuple scoped(ctx, tuple);
        XBENCH_ASSIGN_OR_RETURN(Sequence part, item_->Run(ctx));
        out.insert(out.end(), part.begin(), part.end());
      }
    }
    return out;
  }

 private:
  std::unique_ptr<TupleOp> pipeline_;
  std::unique_ptr<ItemOp> item_;
};

// --- lowering -------------------------------------------------------------

std::string PredicateSuffix(const LogicalNode& n) {
  if (n.predicates.empty()) return "";
  return " [" + std::to_string(n.predicates.size()) +
         (n.predicates.size() == 1 ? " pred]" : " preds]");
}

class PhysicalBuilder {
 public:
  explicit PhysicalBuilder(PhysicalPlan& plan) : plan_(plan) {}

  Result<std::unique_ptr<ItemOp>> BuildItem(const LogicalNode& n, int depth) {
    switch (n.kind) {
      case LogicalKind::kScan: {
        const std::string label = "Scan($" + n.name + ")";
        const size_t slot = AddSlot(label, depth);
        return {std::make_unique<ScanOp>(label, slot, n.name)};
      }
      case LogicalKind::kEval: {
        if (n.expr == nullptr) {
          return Status::Internal("plan leaf without an expression");
        }
        const std::string label =
            std::string("Eval(") + plan::ExprKindLabel(n.expr) + ")";
        const size_t slot = AddSlot(label, depth);
        return {std::make_unique<EvalExprOp>(label, slot, n.expr)};
      }
      case LogicalKind::kConstruct: {
        if (!ConstructInputsMatch(n)) {
          return Status::Internal(
              "constructor expects one input per enclosed expression");
        }
        const std::string label = "Construct(<" + n.name + ">)";
        const size_t slot = AddSlot(label, depth);
        std::vector<std::unique_ptr<ItemOp>> inputs;
        for (const plan::LogicalNodePtr& input : n.inputs) {
          XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> op,
                                  BuildItem(*input, depth + 1));
          inputs.push_back(std::move(op));
        }
        return {std::make_unique<ConstructOp>(label, slot, n.expr,
                                              std::move(inputs))};
      }
      case LogicalKind::kHashGroupCount: {
        if (n.inputs.size() != 2 || n.expr == nullptr) {
          return Status::Internal(
              "group count expects items, a probe and a key path");
        }
        const std::string label = plan::GroupCountLabel(n);
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> items,
                                BuildItem(*n.inputs[0], depth + 1));
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> probe,
                                BuildItem(*n.inputs[1], depth + 1));
        return {std::make_unique<HashGroupCountOp>(
            label, slot, std::move(items), std::move(probe), n.expr)};
      }
      case LogicalKind::kChildStep:
      case LogicalKind::kAxisStep: {
        const std::string label =
            n.kind == LogicalKind::kChildStep
                ? "ChildStep(" + n.name + ")" + PredicateSuffix(n)
                : std::string("AxisStep(") + plan::AxisLabel(n.axis) + "::" +
                      n.name + ")" + PredicateSuffix(n);
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> input,
                                BuildInput(n, depth));
        return {std::make_unique<AxisStepOp>(label, slot, std::move(input),
                                             n.axis, n.name, n.predicates)};
      }
      case LogicalKind::kDescendantStep: {
        const bool guided = n.access == AccessPath::kGuidedWalk;
        const std::string label =
            (guided ? "GuidedWalk(" : "DescendantScan(") + n.name + ")" +
            PredicateSuffix(n);
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> input,
                                BuildInput(n, depth));
        return {std::make_unique<DescendantStepOp>(
            label, slot, std::move(input), n.name, n.predicates, guided)};
      }
      case LogicalKind::kFilter: {
        const std::string label = "Filter" + PredicateSuffix(n);
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> input,
                                BuildInput(n, depth));
        return {std::make_unique<FilterOp>(label, slot, std::move(input),
                                           n.predicates)};
      }
      case LogicalKind::kAggregate: {
        const std::string label = "Aggregate(" + n.name + ")";
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> input,
                                BuildInput(n, depth));
        return {std::make_unique<AggregateOp>(label, slot, std::move(input),
                                              n.name)};
      }
      case LogicalKind::kIndexScan:
      case LogicalKind::kIndexRangeScan:
      case LogicalKind::kTextProbe: {
        if (n.inputs.size() != 2 || !n.probe.has_value()) {
          return Status::Internal(
              "index probe expects a fallback and a root source");
        }
        const plan::IndexProbe& probe = *n.probe;
        std::string label;
        switch (n.kind) {
          case LogicalKind::kIndexScan:
            label = "IndexScan(" + probe.index + " = \"" + probe.key + "\")";
            break;
          case LogicalKind::kIndexRangeScan:
            label = "IndexRangeScan(" + probe.index + " in [\"" + probe.lo +
                    "\" .. \"" + probe.hi + "\"])";
            break;
          default:
            label = "TextIndexProbe(" + probe.index + " ~ \"" + probe.word +
                    "\")";
            break;
        }
        label += PredicateSuffix(n);
        const size_t slot = AddSlot(label, depth, n.estimated_rows);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> fallback,
                                BuildItem(*n.inputs[0], depth + 1));
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> roots,
                                BuildItem(*n.inputs[1], depth + 1));
        return {std::make_unique<IndexProbeOp>(
            label, slot, std::move(fallback), std::move(roots), probe,
            n.predicates)};
      }
      case LogicalKind::kReturn: {
        if (n.inputs.size() != 2) {
          return Status::Internal("Return expects a pipeline and an item plan");
        }
        const std::string label = "Return";
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<TupleOp> pipeline,
                                BuildTuple(*n.inputs[0], depth + 1));
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> item,
                                BuildItem(*n.inputs[1], depth + 1));
        return {std::make_unique<ReturnOp>(label, slot, std::move(pipeline),
                                           std::move(item))};
      }
      default:
        return Status::Internal("tuple operator outside a FLWOR pipeline");
    }
  }

 private:
  /// A constructor's inputs line up with its enclosed expressions, and
  /// every nested constructor's input is a constructor (ConstructOp
  /// builds those in place).
  static bool ConstructInputsMatch(const LogicalNode& n) {
    if (n.expr == nullptr ||
        n.inputs.size() != plan::ConstructInputCount(*n.expr)) {
      return false;
    }
    size_t input = n.inputs.size();
    for (auto it = n.expr->constructor_content.rbegin();
         it != n.expr->constructor_content.rend(); ++it) {
      if (it->kind == ConstructorContent::kText) continue;
      --input;
      if (it->kind == ConstructorContent::kChild &&
          n.inputs[input]->kind != LogicalKind::kConstruct) {
        return false;
      }
    }
    return true;
  }

  Result<std::unique_ptr<ItemOp>> BuildInput(const LogicalNode& n, int depth) {
    if (n.inputs.size() != 1) {
      return Status::Internal("item operator expects exactly one input");
    }
    return BuildItem(*n.inputs[0], depth + 1);
  }

  Result<std::unique_ptr<TupleOp>> BuildTuple(const LogicalNode& n,
                                              int depth) {
    switch (n.kind) {
      case LogicalKind::kSingleton: {
        const std::string label = "Singleton";
        const size_t slot = AddSlot(label, depth);
        return {std::make_unique<SingletonOp>(label, slot)};
      }
      case LogicalKind::kFor:
      case LogicalKind::kJoin: {
        if (n.inputs.size() != 2) {
          return Status::Internal("for clause expects a pipeline and an input");
        }
        const bool join = n.kind == LogicalKind::kJoin;
        std::string label = join ? "NestedLoopJoin($" + n.name + ")"
                                 : "ForLoop($" + n.name +
                                       (n.position_variable.empty()
                                            ? ""
                                            : " at $" + n.position_variable) +
                                       ")";
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<TupleOp> input,
                                BuildTuple(*n.inputs[0], depth + 1));
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> items,
                                BuildItem(*n.inputs[1], depth + 1));
        if (join) {
          return {std::make_unique<JoinOp>(label, slot, std::move(input),
                                           std::move(items), n.name,
                                           n.position_variable)};
        }
        return {std::make_unique<ForOp>(label, slot, std::move(input),
                                        std::move(items), n.name,
                                        n.position_variable)};
      }
      case LogicalKind::kLet: {
        if (n.inputs.size() != 2) {
          return Status::Internal("let clause expects a pipeline and a value");
        }
        const std::string label = "Let($" + n.name + ")";
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<TupleOp> input,
                                BuildTuple(*n.inputs[0], depth + 1));
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ItemOp> value,
                                BuildItem(*n.inputs[1], depth + 1));
        return {std::make_unique<LetOp>(label, slot, std::move(input),
                                        std::move(value), n.name)};
      }
      case LogicalKind::kWhere: {
        if (n.inputs.size() != 1 || n.expr == nullptr) {
          return Status::Internal("where clause expects an input and an expr");
        }
        const std::string label = "Where";
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<TupleOp> input,
                                BuildTuple(*n.inputs[0], depth + 1));
        return {std::make_unique<WhereOp>(label, slot, std::move(input),
                                          n.expr)};
      }
      case LogicalKind::kSort: {
        if (n.inputs.size() != 1 || n.order_source == nullptr) {
          return Status::Internal("sort expects an input and order keys");
        }
        const size_t keys = n.order_source->order_by.size();
        const std::string label = "SortMaterialize(" + std::to_string(keys) +
                                  (keys == 1 ? " key)" : " keys)");
        const size_t slot = AddSlot(label, depth);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<TupleOp> input,
                                BuildTuple(*n.inputs[0], depth + 1));
        return {std::make_unique<SortOp>(label, slot, std::move(input),
                                         n.order_source)};
      }
      default:
        return Status::Internal("item operator inside the tuple pipeline");
    }
  }

  size_t AddSlot(const std::string& label, int depth,
                 double estimated_rows = -1) {
    plan_.rendered.append(static_cast<size_t>(depth) * 2, ' ');
    plan_.rendered += label;
    plan_.rendered.push_back('\n');
    plan_.labels.push_back(label);
    plan_.depths.push_back(depth);
    plan_.estimated_rows.push_back(estimated_rows);
    return plan_.labels.size() - 1;
  }

  PhysicalPlan& plan_;
};

}  // namespace

namespace {

/// Index one past the pre-order subtree rooted at `i`.
size_t SkipSubtree(const std::vector<OperatorStats>& ops, size_t i) {
  size_t j = i + 1;
  while (j < ops.size() && ops[j].depth > ops[i].depth) ++j;
  return j;
}

/// Top-down capped self-time attribution over the pre-order stats
/// vector. `budget` is the subtree's effective inclusive time — the
/// slice of the parent's window this subtree may account for. When the
/// direct children's measured inclusive times sum past the budget (an
/// index probe re-running its fallback per tuple books every re-run into
/// the same child slots; parallel regions overlap the parent's clock),
/// the children are scaled proportionally instead of the parent's self
/// time being clamped at zero, so Σ self over the whole tree telescopes
/// to exactly the root's inclusive time. Returns the index one past the
/// subtree.
size_t AttributeSelfTime(std::vector<OperatorStats>& ops, size_t i,
                         double budget) {
  double children = 0;
  for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth;
       j = SkipSubtree(ops, j)) {
    children += ops[j].millis;
  }
  const double scale = children > budget && children > 0
                           ? budget / children
                           : 1.0;
  ops[i].self_millis = budget - children * scale;
  size_t j = i + 1;
  while (j < ops.size() && ops[j].depth > ops[i].depth) {
    j = AttributeSelfTime(ops, j, ops[j].millis * scale);
  }
  return j;
}

}  // namespace

PhysicalPlan::PhysicalPlan() = default;
PhysicalPlan::~PhysicalPlan() = default;
PhysicalPlan::PhysicalPlan(PhysicalPlan&&) noexcept = default;
PhysicalPlan& PhysicalPlan::operator=(PhysicalPlan&&) noexcept = default;

Result<PhysicalPlan> BuildPhysicalPlan(const plan::LogicalPlan& logical) {
  if (logical.root == nullptr) {
    return Status::Internal("logical plan has no root");
  }
  PhysicalPlan physical;
  PhysicalBuilder builder(physical);
  XBENCH_ASSIGN_OR_RETURN(physical.root, builder.BuildItem(*logical.root, 0));
  return physical;
}

Result<QueryResult> Execute(const PhysicalPlan& plan, const Bindings& bindings,
                            const EvalOptions& options, ExecStats* stats,
                            const IndexProvider* indexes) {
  if (plan.root == nullptr) {
    return Status::Internal("physical plan has no root");
  }
  static obs::Counter& executions = obs::MetricsRegistry::Default().GetCounter(
      "xbench.plan.executions");
  static obs::Counter& rows_out = obs::MetricsRegistry::Default().GetCounter(
      "xbench.plan.rows_out");
  QueryResult result;
  std::vector<OperatorStats> op_stats(plan.labels.size());
  for (size_t i = 0; i < plan.labels.size(); ++i) {
    op_stats[i].label = plan.labels[i];
    op_stats[i].depth = i < plan.depths.size() ? plan.depths[i] : 0;
    op_stats[i].estimated_rows =
        i < plan.estimated_rows.size() ? plan.estimated_rows[i] : -1;
  }
  ExecContext ctx;
  ctx.bindings = &bindings;
  ctx.options = &options;
  result.constructed = std::make_unique<Arena>();
  ctx.arena = result.constructed.get();
  ctx.stats = &op_stats;
  ctx.indexes = indexes;
  ctx.nodes_visited = &obs::MetricsRegistry::Default().GetCounter(
      "xbench.xquery.nodes_visited");
  ctx.trace = obs::Tracer::Default().enabled();
  obs::ScopedSpan span("xquery.plan.exec");
  Stopwatch total_watch;
  XBENCH_ASSIGN_OR_RETURN(result.items, plan.root->Run(ctx));
  const double total_millis = total_watch.ElapsedMillis();
  executions.Increment();
  rows_out.Increment(result.items.size());
  if (stats != nullptr) {
    // Self time = inclusive time minus the direct children's inclusive
    // time, attributed top-down with each subtree capped at its parent's
    // effective window (see AttributeSelfTime): Σ self telescopes to
    // exactly the root's inclusive time even when probe fallback re-runs
    // or parallel overlap book more child time than the parent measured.
    if (!op_stats.empty()) {
      AttributeSelfTime(op_stats, 0, op_stats[0].millis);
    }
    stats->operators = std::move(op_stats);
    stats->total_millis = total_millis;
  }
  return result;
}

}  // namespace xbench::xquery::exec
