#ifndef XBENCH_XQUERY_PLAN_LOGICAL_H_
#define XBENCH_XQUERY_PLAN_LOGICAL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "xquery/ast.h"
#include "xquery/plan/catalog.h"

namespace xbench::xquery::plan {

/// Result-size class of a plan node, mirrored from analysis::Cardinality
/// so the planner does not depend on the analyzer headers.
enum class Card { kUnknown, kEmpty, kAtMostOne, kMany };

const char* CardName(Card card);

/// Display label for an expression kind ("path", "flwor", ...); null expr
/// renders as "expr". Shared by the logical and physical plan renderings.
const char* ExprKindLabel(const Expr* e);

/// Display label for an axis ("child", "descendant-or-self", ...).
const char* AxisLabel(Axis axis);

/// Analyzer output the planner consumes, keyed by AST node identity (the
/// maps are valid only while the analyzed AST is alive). This is how the
/// `//`-expansion and cardinality rewrites ride on plans instead of AST
/// field mutations: analysis::Analyze fills these alongside the legacy
/// `Step::expansions` annotations, and BuildLogicalPlan copies what it
/// needs into the plan nodes.
struct PlanAnnotations {
  std::map<const Step*, std::vector<StepExpansion>> step_expansions;
  std::map<const Expr*, Card> path_cardinality;
};

/// The logical algebra. Item operators produce an item sequence; tuple
/// operators (kSingleton through kSort) produce a stream of variable
/// environments threaded through a FLWOR pipeline.
enum class LogicalKind {
  // Item operators.
  kScan,        // variable lookup ($input, FLWOR-bound vars)
  kEval,        // interpreter-core fallback for any expression leaf
  kChildStep,   // child::name over the input sequence
  kAxisStep,    // any other single axis step
  kDescendantStep,  // fused descendant-or-self::* / child::name pair
  kFilter,      // predicate list over the input sequence
  kAggregate,   // single-argument sequence function (count, sum, ...)
  kConstruct,   // direct element constructor
  kEmpty,       // statically provably empty (cardinality rewrite)
  kReturn,      // tuple input × item plan -> concatenated item sequence
  // Index probes (wrap the item subtree they replace; inputs[0] is the
  // original access path kept as runtime fallback, inputs[1] the root
  // source the probe validates its candidates against).
  kIndexScan,       // value-index equality probe
  kIndexRangeScan,  // value-index interval probe
  kTextProbe,       // inverted-text-index word probe
  // Tuple operators.
  kSingleton,   // one empty environment (FLWOR pipeline source)
  kFor,         // dependent for clause: one tuple per input item
  kJoin,        // independent for clause: right side evaluated once
  kLet,         // binds one value per tuple
  kWhere,       // filters tuples by effective boolean value
  kSort,        // materializes + stable-sorts tuples by order keys
};

/// How a descendant step reaches its matches at execution time. Chosen at
/// plan time: the guided walk needs analyzer chains *and* an engine whose
/// collection passed the load-time validation gate (the planner is told
/// via CompilationOptions::access_path).
enum class AccessPath { kFullScan, kGuidedWalk };

/// What an index probe looks up.
enum class ProbeKind { kValueEquals, kValueRange, kTextWord };

/// Which elements, relative to the probed root set, the original access
/// path would have produced; the probe operator re-applies this as a
/// structural check on every index candidate so probe output is always a
/// subset of what the replaced subtree would enumerate.
enum class ProbeContext {
  kRoots,            // the roots themselves (Scan / Filter-over-Scan)
  kRootChildren,     // child::name over the roots
  kRootDescendants,  // fused //name over the roots
};

/// One index probe decision, attached to a kIndexScan / kIndexRangeScan /
/// kTextProbe wrapper node.
struct IndexProbe {
  ProbeKind kind = ProbeKind::kValueEquals;
  ProbeContext context = ProbeContext::kRootDescendants;
  /// Index name in the engine catalog.
  std::string index;
  /// kValueEquals key (string comparison; the planner only probes
  /// non-numeric literals so B+-tree order matches comparison semantics).
  std::string key;
  /// kValueRange inclusive bounds.
  std::string lo;
  std::string hi;
  /// kTextWord token.
  std::string word;
  /// Whether the value index covers an attribute ("N/@a", posting node is
  /// the candidate itself) or a child element value (posting node's
  /// parent is the candidate).
  bool key_is_attribute = false;
  /// Element name candidates must carry; empty = the root itself.
  std::string target_name;
  /// Epoch of the IndexCatalog snapshot this probe was costed against
  /// (the same value PlanCacheKey::index_epoch carries). The plan
  /// verifier rejects a frozen plan whose probes disagree with the
  /// snapshot they claim to have been compiled under.
  uint64_t catalog_epoch = 0;
};

struct LogicalNode;
using LogicalNodePtr = std::unique_ptr<LogicalNode>;

struct LogicalNode {
  explicit LogicalNode(LogicalKind k) : kind(k) {}

  LogicalKind kind;
  /// Step name test, variable name, function name, or element name —
  /// whichever the kind uses for display and execution.
  std::string name;
  /// kFor/kJoin position variable (`at $i`), empty when absent.
  std::string position_variable;
  Axis axis = Axis::kChild;
  AccessPath access = AccessPath::kFullScan;
  /// kDescendantStep: analyzer chains copied off the AST at plan time.
  std::vector<StepExpansion> expansions;
  /// Predicates / where / order-by / fallback expressions stay AST
  /// references; CompiledQuery keeps the analyzed AST alive for them.
  std::vector<const Expr*> predicates;
  const Expr* expr = nullptr;
  /// kSort: the FLWOR whose order_by this node applies.
  const Expr* order_source = nullptr;
  Card cardinality = Card::kUnknown;
  /// kIndexScan/kIndexRangeScan/kTextProbe: the probe decision.
  std::optional<IndexProbe> probe;
  /// Cost-model cardinality estimate (rows out); -1 = no estimate.
  double estimated_rows = -1;
  std::vector<LogicalNodePtr> inputs;
};

struct LogicalPlan {
  LogicalNodePtr root;

  /// One-line access-path decision summary for reports and explain
  /// output: comma-joined probe choices ("IndexScan(item_id)"), or
  /// "guided-walk"/"full-scan" when no probe was chosen.
  std::string access_path_summary;

  /// Indented tree rendering (root first), used by `xqlint --explain` and
  /// the golden-plan snapshots.
  std::string ToString() const;
};

/// How the planner may resolve access paths.
enum class AccessPathMode {
  /// Cost-based: probe where a catalog index beats the estimated scan or
  /// guided-walk cost, guided walks where chains exist and guidance is
  /// allowed, full scans otherwise.
  kAuto,
  /// Guided walks wherever chains exist; never probes. Matches the
  /// pre-index guided plans byte for byte.
  kForceGuided,
  /// Full scans only; never guided, never probes. Matches the
  /// pre-index unguided plans byte for byte.
  kForceScan,
  /// Probe wherever any eligible catalog index exists, regardless of
  /// cost (ablation / testing mode).
  kForceIndex,
};

const char* AccessPathModeName(AccessPathMode mode);

/// Access-path half of the compilation options.
struct AccessPathPolicy {
  AccessPathMode mode = AccessPathMode::kAuto;
  /// kForceIndex: restrict probes to this index name; empty = any index.
  std::string forced_index;
  /// Whether guided walks may be chosen at all. The workload layer clears
  /// this when the engine's collection failed the load-time validation
  /// gate; kForceScan ignores it, kForceGuided implies it.
  bool allow_guided = true;
};

/// Cost-model knobs. Unit is "one node visit"; the defaults model the
/// simulated storage (a B+-tree node fetch costs a page read, resolving
/// one posting to a DOM node costs about two visits).
struct CostModelOptions {
  /// Apply the provably-empty-path rewrite (Card::kEmpty -> kEmpty node).
  /// The cardinality classes come from *instance* statistics of the
  /// canonical sample database, so this is only sound when the data the
  /// plan will run over matches those statistics; the workload runner
  /// leaves it off, `xqlint --explain` and schema-bound tests turn it on.
  bool trust_statistics = false;
  double node_visit_cost = 1.0;
  double page_read_cost = 16.0;
  double posting_resolve_cost = 2.0;
  /// An index probe must beat the best non-index path by this factor
  /// (estimated probe cost < margin × best walk cost) before kAuto picks
  /// it, so near-ties keep the simpler plan.
  double index_advantage_margin = 0.9;
};

/// Everything the compile-then-execute pipeline needs to lower one query:
/// the access-path policy and the cost model it consults under kAuto. The
/// plan cache keys on (mode, forced index, guidance) plus the catalog
/// epoch the plan was costed against.
struct CompilationOptions {
  AccessPathPolicy access_path;
  CostModelOptions cost_model;
  /// Run the static plan verifier (xquery/verify) on every compiled
  /// plan, failing compilation on any contract violation. Defaults on in
  /// debug and sanitizer builds; release builds leave it off so the hot
  /// compile path stays lean, and test fixtures/tools enable it
  /// explicitly.
#if !defined(NDEBUG) || defined(XBENCH_SANITIZE)
  bool verify = true;
#else
  bool verify = false;
#endif
};

/// Free variables of `expr` (names read but not bound within it).
std::vector<std::string> FreeVariables(const Expr& expr);

/// Number of occurrences of variable `name` anywhere in `expr`
/// (rebindings included — callers use this as a conservative "is $input
/// read anywhere else" test).
int CountVariableUses(const Expr& expr, const std::string& name);

/// The plan's single probe node when exactly one probe was chosen and its
/// root source is the workload's `$input` scan; nullptr otherwise. The
/// engine derives its document prefilter (bind `$input` over only the
/// documents holding probe candidates) from this.
const LogicalNode* SingleInputProbe(const LogicalPlan& plan);

/// Lowers an analyzed AST to the logical algebra. `notes` may be null
/// (the planner then reads legacy `Step::expansions` annotations off the
/// AST). `catalog` may be null (no probes are considered). Never fails on
/// canned queries: any unsupported shape lowers to a kEval
/// interpreter-core leaf.
Result<LogicalPlan> BuildLogicalPlan(const Expr& query,
                                     const PlanAnnotations* notes,
                                     const CompilationOptions& options,
                                     const IndexCatalog* catalog = nullptr);

}  // namespace xbench::xquery::plan

#endif  // XBENCH_XQUERY_PLAN_LOGICAL_H_
