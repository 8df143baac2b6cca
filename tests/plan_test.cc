// Tests for the compile-then-execute pipeline: logical planning, physical
// execution, the per-engine plan cache, and — most importantly — the
// differential guarantee that a compiled plan produces byte-identical
// output to the AST interpreter for every canned query of every class,
// with guided descendant walks both on and off — and the path guide those
// walks follow.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "engines/clob_engine.h"
#include "engines/native_engine.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "workload/classes.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "xquery/parser.h"
#include "xquery/plan/cache.h"

namespace xbench {
namespace {

using datagen::DbClass;
using workload::QueryId;
using workload::QueryName;

/// One natively loaded database per class, shared across the test cases
/// (loaded through workload::BulkLoad, as the benchmark runner loads it).
class PlanFixture {
 public:
  static PlanFixture& Get() {
    static auto* instance = new PlanFixture();
    return *instance;
  }

  struct ClassSetup {
    datagen::GeneratedDatabase db;
    workload::QueryParams params;
    std::unique_ptr<engines::XmlDbms> engine;

    engines::NativeEngine& native() {
      return static_cast<engines::NativeEngine&>(*engine);
    }
  };

  ClassSetup& ForClass(DbClass cls) {
    auto it = setups_.find(cls);
    if (it != setups_.end()) return *it->second;
    auto setup = std::make_unique<ClassSetup>();
    datagen::GenConfig config;
    config.target_bytes = 160 * 1024;
    config.seed = 42;
    setup->db = datagen::Generate(cls, config);
    setup->params = workload::DeriveParams(cls, setup->db.seeds);
    setup->engine = workload::MakeEngine(engines::EngineKind::kNative);
    EXPECT_TRUE(workload::BulkLoad(*setup->engine, setup->db).status.ok());
    EXPECT_TRUE(workload::CreateTable3Indexes(*setup->engine, cls).ok());
    // A text index on top of the Table 3 value indexes, so cost-based
    // compiles can choose text probes for the contains-word() queries.
    engines::IndexSpec text;
    text.name = "words";
    text.kind = engines::IndexKind::kText;
    EXPECT_TRUE(setup->engine->CreateIndex(text).ok());
    auto [inserted, ok] = setups_.emplace(cls, std::move(setup));
    return *inserted->second;
  }

 private:
  std::map<DbClass, std::unique_ptr<ClassSetup>> setups_;
};

/// Analyzes + compiles one canned query the way the runner's prepare phase
/// does, with explicit compilation options (and, optionally, an index
/// catalog for cost-based access-path selection).
Result<std::shared_ptr<const xquery::plan::CompiledQuery>> CompileWith(
    const std::string& text, DbClass cls,
    xquery::plan::CompilationOptions options,
    const xquery::plan::IndexCatalog* catalog = nullptr) {
  XBENCH_ASSIGN_OR_RETURN(workload::AnalyzedQuery analyzed,
                          workload::AnalyzeForClassFull(text, cls));
  // Every fixture compile runs the static plan verifier, whatever the
  // build type's default — a contract violation is a test failure here,
  // not just a debug-build crash.
  options.verify = true;
  return xquery::plan::Compile(std::move(analyzed.ast),
                               &analyzed.report.annotations, options,
                               catalog);
}

/// Convenience overload for the classic two-flavour sweep: guided walks
/// forced on or off, never probing.
Result<std::shared_ptr<const xquery::plan::CompiledQuery>> CompileFor(
    const std::string& text, DbClass cls, bool guided) {
  xquery::plan::CompilationOptions options;
  options.access_path.mode = guided
                                 ? xquery::plan::AccessPathMode::kForceGuided
                                 : xquery::plan::AccessPathMode::kForceScan;
  return CompileWith(text, cls, options);
}

// --- Differential equivalence: compiled plans vs the interpreter ------------

struct Cell {
  QueryId query;
  DbClass cls;
};

std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = QueryName(info.param.query);
  name += "_";
  std::string cls = datagen::DbClassName(info.param.cls);
  cls.erase(cls.find('/'), 1);
  return name + cls;
}

class PlanDifferentialTest : public ::testing::TestWithParam<Cell> {};

/// The acceptance bar of the pipeline: for every defined (query, class)
/// cell, the compiled physical plan — full scans forced, guided walks
/// forced, and cost-based against the engine's index catalog (Table 3
/// value indexes plus a text index) — must produce byte-identical
/// QueryResult::ToText() output to the full-scan AST interpreter over the
/// same collection. Regions go wide on their own when their input is
/// large enough; one cell per class must run at least one wide region,
/// so the answer check keeps covering morsel-parallel execution.
TEST_P(PlanDifferentialTest, CompiledPlanMatchesInterpreterByteForByte) {
  const auto [id, cls] = GetParam();
  auto& setup = PlanFixture::Get().ForClass(cls);
  const std::string text = workload::XQueryFor(id, cls, setup.params);
  if (text.empty()) GTEST_SKIP() << "query not defined for this class";
  engines::NativeEngine& engine = setup.native();

  auto ast = workload::AnalyzeForClass(text, cls);
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  auto reference = oracle::Interpret(engine, **ast);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  const xquery::plan::IndexCatalog catalog = engine.IndexCatalogSnapshot();
  struct Flavour {
    const char* label;
    xquery::plan::AccessPathMode mode;
    const xquery::plan::IndexCatalog* catalog;
  };
  const Flavour flavours[] = {
      {"full-scan", xquery::plan::AccessPathMode::kForceScan, nullptr},
      {"guided", xquery::plan::AccessPathMode::kForceGuided, nullptr},
      {"auto+indexes", xquery::plan::AccessPathMode::kAuto, &catalog},
  };
  uint64_t morsels = 0;
  for (const Flavour& flavour : flavours) {
    xquery::plan::CompilationOptions options;
    options.access_path.mode = flavour.mode;
    auto compiled = CompileWith(text, cls, options, flavour.catalog);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    xquery::exec::ExecStats stats;
    auto result = engine.ExecutePlan(**compiled, &stats);
    ASSERT_TRUE(result.ok())
        << flavour.label << ": " << result.status().ToString();
    EXPECT_EQ(result->ToText(), reference->ToText())
        << QueryName(id) << " on " << datagen::DbClassName(cls) << " ("
        << flavour.label << ", access path "
        << (*compiled)->logical.access_path_summary << ")";
    for (const xquery::exec::OperatorStats& op : stats.operators) {
      morsels += op.morsels;
    }
  }
  // The cell with the largest regions at this scale: Q17's where clause
  // filters full tuple batches, but TC/MD holds too few articles for
  // that, so there Q15's where clause, which filters one tuple per
  // (article, author) pair, goes wide instead.
  const QueryId wide_cell =
      cls == DbClass::kTcMd ? QueryId::kQ15 : QueryId::kQ17;
  if (id == wide_cell) {
    EXPECT_GT(morsels, 0u) << "no " << QueryName(id) << " plan went wide on "
                           << datagen::DbClassName(cls);
  }
}

std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (int q = 0; q < 20; ++q) {
    for (DbClass cls : workload::AllClasses()) {
      cells.push_back({static_cast<QueryId>(q), cls});
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(AllQueriesAllClasses, PlanDifferentialTest,
                         ::testing::ValuesIn(AllCells()), CellName);

// --- Plan shapes ------------------------------------------------------------

TEST(PlanShapeTest, Q19CompilesToNestedLoopJoin) {
  auto& setup = PlanFixture::Get().ForClass(DbClass::kDcMd);
  const std::string text =
      workload::XQueryFor(QueryId::kQ19, DbClass::kDcMd, setup.params);
  ASSERT_FALSE(text.empty());
  auto compiled = CompileFor(text, DbClass::kDcMd, /*guided=*/false);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  // Q19's second for clause reads no variable of the first, so the planner
  // proves independence and evaluates the right side once.
  EXPECT_NE((*compiled)->logical.ToString().find("Join($"),
            std::string::npos);
  EXPECT_NE((*compiled)->physical.ToString().find("NestedLoopJoin($"),
            std::string::npos);
}

TEST(PlanShapeTest, GuidedFlagSelectsDescendantAccessPath) {
  auto& setup = PlanFixture::Get().ForClass(DbClass::kDcSd);
  const std::string text =
      workload::XQueryFor(QueryId::kQ8, DbClass::kDcSd, setup.params);
  ASSERT_FALSE(text.empty());
  auto guided = CompileFor(text, DbClass::kDcSd, /*guided=*/true);
  ASSERT_TRUE(guided.ok());
  EXPECT_NE((*guided)->physical.ToString().find("GuidedWalk("),
            std::string::npos);
  auto full = CompileFor(text, DbClass::kDcSd, /*guided=*/false);
  ASSERT_TRUE(full.ok());
  EXPECT_NE((*full)->physical.ToString().find("DescendantScan("),
            std::string::npos);
  EXPECT_EQ((*full)->physical.ToString().find("GuidedWalk("),
            std::string::npos);
}

TEST(PlanShapeTest, AutoModeChoosesIndexProbesOnTheCannedWorkload) {
  // With the Table 3 value indexes plus a text index on offer, cost-based
  // compilation must pick an index probe for at least one canned query of
  // each TC class (the workload was designed around those indexes). Probe
  // choices render with parens in the access-path summary
  // ("IndexScan(name)" / "TextProbe(name)").
  for (DbClass cls : {DbClass::kTcSd, DbClass::kTcMd}) {
    auto& setup = PlanFixture::Get().ForClass(cls);
    const xquery::plan::IndexCatalog catalog =
        setup.native().IndexCatalogSnapshot();
    ASSERT_FALSE(catalog.indexes.empty());
    int probed = 0;
    for (int q = 0; q < 20; ++q) {
      const auto id = static_cast<QueryId>(q);
      const std::string text = workload::XQueryFor(id, cls, setup.params);
      if (text.empty()) continue;
      xquery::plan::CompilationOptions options;
      auto compiled = CompileWith(text, cls, options, &catalog);
      ASSERT_TRUE(compiled.ok()) << QueryName(id);
      if ((*compiled)->logical.access_path_summary.find('(') !=
          std::string::npos) {
        ++probed;
      }
    }
    EXPECT_GT(probed, 0) << "no canned query of " << datagen::DbClassName(cls)
                         << " compiled to an index probe";
  }
}

// --- Plan cache -------------------------------------------------------------

TEST(PlanCacheTest, LookupInsertInvalidateWithMetrics) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  const uint64_t hits0 = metrics.GetCounter("xbench.plan.cache_hits").value();
  const uint64_t misses0 =
      metrics.GetCounter("xbench.plan.cache_misses").value();
  const uint64_t inval0 =
      metrics.GetCounter("xbench.plan.invalidations").value();

  xquery::plan::PlanCache cache;
  const xquery::plan::PlanCacheKey key{1, 2, 3, 0, 0};
  EXPECT_EQ(cache.Lookup(key), nullptr);

  auto parsed = xquery::ParseQuery("count($input)");
  ASSERT_TRUE(parsed.ok());
  auto compiled = xquery::plan::Compile(std::move(*parsed), nullptr,
                                        xquery::plan::CompilationOptions{});
  ASSERT_TRUE(compiled.ok());
  cache.Insert(key, *compiled);
  EXPECT_NE(cache.Lookup(key), nullptr);
  // The access-path mode and the index catalog epoch are part of the key:
  // plans costed against superseded index state (or under a different
  // policy) miss instead of being served.
  const xquery::plan::PlanCacheKey mode_key{1, 2, 3, 3, 0};
  EXPECT_EQ(cache.Lookup(mode_key), nullptr);
  const xquery::plan::PlanCacheKey epoch_key{1, 2, 3, 0, 7};
  EXPECT_EQ(cache.Lookup(epoch_key), nullptr);

  EXPECT_EQ(metrics.GetCounter("xbench.plan.cache_hits").value(), hits0 + 1);
  EXPECT_EQ(metrics.GetCounter("xbench.plan.cache_misses").value(),
            misses0 + 3);

  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(metrics.GetCounter("xbench.plan.invalidations").value(),
            inval0 + 1);
  // Invalidating an empty cache is not an invalidation event.
  cache.Invalidate();
  EXPECT_EQ(metrics.GetCounter("xbench.plan.invalidations").value(),
            inval0 + 1);
}

TEST(PlanCacheTest, RunnerCachesAcrossColdRunsAndInvalidatesOnInsert) {
  datagen::GenConfig config;
  config.target_bytes = 96 * 1024;
  config.seed = 7;
  datagen::GeneratedDatabase db = datagen::Generate(DbClass::kTcMd, config);
  const workload::QueryParams params =
      workload::DeriveParams(DbClass::kTcMd, db.seeds);
  auto engine = workload::MakeEngine(engines::EngineKind::kNative);
  ASSERT_TRUE(workload::BulkLoad(*engine, db).status.ok());
  auto& native = static_cast<engines::NativeEngine&>(*engine);

  workload::ExecutionResult first =
      workload::RunQuery(*engine, QueryId::kQ8, DbClass::kTcMd, params);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_TRUE(first.compiled);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_EQ(native.plan_cache().size(), 1u);

  // RunQuery cold-restarts the engine; the statement cache must survive.
  workload::ExecutionResult second =
      workload::RunQuery(*engine, QueryId::kQ8, DbClass::kTcMd, params);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(second.lines, first.lines);

  // A document mutation drops every cached plan (it shifts the statistics
  // the plans were costed with), and the next run recompiles.
  ASSERT_TRUE(
      native.InsertDocument({"extra.xml", db.documents[0].text}).ok());
  EXPECT_EQ(native.plan_cache().size(), 0u);
  workload::ExecutionResult third =
      workload::RunQuery(*engine, QueryId::kQ8, DbClass::kTcMd, params);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.compiled);
  EXPECT_FALSE(third.plan_cache_hit);
}

// --- Per-operator stats -----------------------------------------------------

TEST(PlanExecTest, OperatorStatsMirrorPlanLabels) {
  auto& setup = PlanFixture::Get().ForClass(DbClass::kTcMd);
  const std::string text =
      workload::XQueryFor(QueryId::kQ17, DbClass::kTcMd, setup.params);
  auto compiled = CompileFor(text, DbClass::kTcMd, /*guided=*/false);
  ASSERT_TRUE(compiled.ok());
  xquery::exec::ExecStats stats;
  auto result = setup.native().ExecutePlan(**compiled, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(stats.operators.size(), (*compiled)->physical.labels.size());
  ASSERT_FALSE(stats.operators.empty());
  ASSERT_EQ((*compiled)->physical.depths.size(),
            (*compiled)->physical.labels.size());
  for (size_t i = 0; i < stats.operators.size(); ++i) {
    EXPECT_EQ(stats.operators[i].label, (*compiled)->physical.labels[i]);
    EXPECT_EQ(stats.operators[i].depth, (*compiled)->physical.depths[i]);
  }
  // The root operator ran and produced the answer rows.
  EXPECT_GE(stats.operators[0].invocations, 1u);
  EXPECT_EQ(stats.operators[0].rows_out, result->items.size());
  // Pre-order slot 0 is the root; self times never exceed inclusive
  // times and sum to the tree's total run time.
  EXPECT_EQ(stats.operators[0].depth, 0);
  double self_sum = 0;
  for (const xquery::exec::OperatorStats& op : stats.operators) {
    EXPECT_GE(op.self_millis, 0.0);
    EXPECT_LE(op.self_millis, op.millis + 1e-9);
    self_sum += op.self_millis;
  }
  EXPECT_NEAR(self_sum, stats.total_millis,
              std::max(0.05 * stats.total_millis, 0.5));
}

TEST(PlanExecTest, SelfTimesTelescopeUnderProbeFallbacks) {
  // Regression for self-time attribution under index-probe fallbacks: a
  // probe that misses its index re-runs the compiled fallback subtree on
  // every invocation, booking each re-run into the same child stat
  // slots. With the old bottom-up clamp those re-runs could push a
  // child's booked time past its parent's window and distort Σ self;
  // the top-down capped attribution keeps Σ self == the root's
  // inclusive time structurally. Executing an index-chosen plan on an
  // engine with no indexes forces the fallback path on every tuple.
  auto& setup = PlanFixture::Get().ForClass(DbClass::kTcSd);
  const xquery::plan::IndexCatalog catalog =
      setup.native().IndexCatalogSnapshot();
  const std::string text =
      workload::XQueryFor(QueryId::kQ5, DbClass::kTcSd, setup.params);
  ASSERT_FALSE(text.empty());
  engines::NativeEngine fresh;  // no indexes
  ASSERT_TRUE(fresh.BulkLoad(DbClass::kTcSd,
                             workload::ToLoadDocuments(setup.db)).ok());
  xquery::plan::CompilationOptions options;
  options.access_path.mode = xquery::plan::AccessPathMode::kForceIndex;
  auto compiled = CompileWith(text, DbClass::kTcSd, options, &catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_NE((*compiled)->physical.ToString().find("IndexScan("),
            std::string::npos)
      << (*compiled)->physical.ToString();
  xquery::exec::ExecStats stats;
  auto result = fresh.ExecutePlan(**compiled, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(stats.operators.empty());
  double self_sum = 0;
  for (const xquery::exec::OperatorStats& op : stats.operators) {
    EXPECT_GE(op.self_millis, 0.0);
    EXPECT_LE(op.self_millis, op.millis + 1e-9);
    self_sum += op.self_millis;
  }
  // Exact telescoping: Σ self equals the root operator's inclusive time
  // (not just approximately the wall clock), fallback re-runs and
  // parallel overlap notwithstanding.
  EXPECT_NEAR(self_sum, stats.operators[0].millis, 1e-6);
  EXPECT_LE(self_sum, stats.total_millis + 1e-6);
}

TEST(PlanExecTest, RegionsGoWideOnlyOnLargeInputs) {
  // Each region sizes itself from its input: TC/SD Q17's where clause
  // filters whole tuple batches, which is enough work to publish to the
  // pool, while TC/MD Q8 filters a handful of documents inline. DC/MD
  // Q10's where clause sits under an order by: the sort drains it in
  // batches too, so it goes wide as well. Either way the answer is the
  // interpreter's. `label` (empty = every operator) names the slots whose
  // morsels count.
  auto morsels_of = [](QueryId id, DbClass cls,
                       const std::string& label) -> uint64_t {
    auto& setup = PlanFixture::Get().ForClass(cls);
    engines::NativeEngine& engine = setup.native();
    const std::string text = workload::XQueryFor(id, cls, setup.params);
    auto ast = workload::AnalyzeForClass(text, cls);
    auto compiled = CompileFor(text, cls, /*guided=*/false);
    if (!ast.ok() || !compiled.ok()) {
      ADD_FAILURE() << QueryName(id) << " does not compile";
      return 0;
    }
    auto reference = oracle::Interpret(engine, **ast);
    xquery::exec::ExecStats stats;
    auto result = engine.ExecutePlan(**compiled, &stats);
    if (!reference.ok() || !result.ok()) {
      ADD_FAILURE() << QueryName(id) << " does not run";
      return 0;
    }
    EXPECT_EQ(result->ToText(), reference->ToText()) << QueryName(id);
    uint64_t morsels = 0;
    bool found = label.empty();
    for (const xquery::exec::OperatorStats& op : stats.operators) {
      EXPECT_GE(op.self_millis, 0.0);  // capped under concurrent children
      if (!label.empty() && op.label != label) continue;
      found = true;
      morsels += op.morsels;
    }
    EXPECT_TRUE(found) << QueryName(id) << " has no " << label << " slot";
    return morsels;
  };
  EXPECT_GT(morsels_of(QueryId::kQ17, DbClass::kTcSd, ""), 0u);
  EXPECT_GT(morsels_of(QueryId::kQ10, DbClass::kDcMd, "Where"), 0u);
  EXPECT_EQ(morsels_of(QueryId::kQ8, DbClass::kTcMd, ""), 0u);
}

// --- Path guide ---------------------------------------------------------------

struct GuideRun {
  std::string answer;  // ToText(), or the error status
  std::string physical;
  uint64_t nodes_visited = 0;
};

/// Compiles unanalyzed `text` under `mode` and runs it on `engine`.
GuideRun RunOn(engines::NativeEngine& engine, const std::string& text,
               xquery::plan::AccessPathMode mode) {
  GuideRun run;
  auto parsed = xquery::ParseQuery(text);
  if (!parsed.ok()) {
    run.answer = parsed.status().ToString();
    return run;
  }
  xquery::plan::CompilationOptions options;
  options.access_path.mode = mode;
  options.verify = true;
  auto compiled =
      xquery::plan::Compile(std::move(*parsed), /*notes=*/nullptr, options);
  if (!compiled.ok()) {
    run.answer = compiled.status().ToString();
    return run;
  }
  run.physical = (*compiled)->physical.ToString();
  const obs::Counter& visited = obs::MetricsRegistry::Default().GetCounter(
      "xbench.xquery.nodes_visited");
  const uint64_t before = visited.value();
  auto result = engine.ExecutePlan(**compiled);
  run.nodes_visited = visited.value() - before;
  run.answer = result.ok() ? result->ToText() : result.status().ToString();
  return run;
}

constexpr auto kGuided = xquery::plan::AccessPathMode::kForceGuided;
constexpr auto kScan = xquery::plan::AccessPathMode::kForceScan;

TEST(GuideTest, GuidedEvaluationMatchesFullScan) {
  engines::NativeEngine engine;
  ASSERT_TRUE(engine
                  .BulkLoad(DbClass::kTcMd,
                            {{"a.xml",
                              "<a><b><c>1</c><c>2</c></b><b><c>3</c></b>"
                              "<d>t</d></a>"}})
                  .ok());
  const GuideRun scan = RunOn(engine, "$input//c", kScan);
  const GuideRun guided = RunOn(engine, "$input//c", kGuided);
  EXPECT_EQ(scan.answer, "<c>1</c>\n<c>2</c>\n<c>3</c>\n");
  EXPECT_EQ(guided.answer, scan.answer);
  EXPECT_NE(guided.physical.find("GuidedWalk(c)"), std::string::npos)
      << guided.physical;
  // The walk follows a/b/c and never enters <d> or a text node.
  EXPECT_LT(guided.nodes_visited, scan.nodes_visited);
}

TEST(GuideTest, GuidedEvaluationAppliesPredicatesPerParent) {
  // Positional predicates on a fused `//name[pred]` pair must see the
  // same per-parent candidate lists as the unfused child step: `//c[1]`
  // selects the first <c> of *every* parent, not the first <c> overall.
  // Each case also runs inside a constructor, whose content the
  // interpreter evaluates with the same guide.
  engines::NativeEngine engine;
  ASSERT_TRUE(engine
                  .BulkLoad(DbClass::kTcMd,
                            {{"a.xml",
                              "<a><b><c>1</c><c>2</c></b><b><c>3</c></b>"
                              "<d>t</d></a>"}})
                  .ok());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"$input//c[1]", "<c>1</c>\n<c>3</c>\n"},
      {"$input//c[last()]", "<c>2</c>\n<c>3</c>\n"},
      {"$input//c[position() = 2]", "<c>2</c>\n"},
      {"$input//c[. = \"2\"]", "<c>2</c>\n"},
  };
  for (const auto& [query, expected] : cases) {
    for (auto mode : {kScan, kGuided}) {
      EXPECT_EQ(RunOn(engine, query, mode).answer, expected) << query;
      std::string wrapped = expected;
      wrapped.erase(std::remove(wrapped.begin(), wrapped.end(), '\n'),
                    wrapped.end());
      EXPECT_EQ(RunOn(engine, "<r>{" + query + "}</r>", mode).answer,
                "<r>" + wrapped + "</r>\n")
          << query;
    }
  }
}

TEST(GuideTest, GuidedWalksSurviveAnInsert) {
  // An inserted document extends the guide: TC/SD Q8 still runs a guided
  // walk and still matches the oracle.
  datagen::GenConfig config;
  config.target_bytes = 64 * 1024;
  config.seed = 42;
  const datagen::GeneratedDatabase db =
      datagen::Generate(DbClass::kTcSd, config);
  auto engine = workload::MakeEngine(engines::EngineKind::kNative);
  ASSERT_TRUE(workload::BulkLoad(*engine, db).status.ok());
  auto& native = static_cast<engines::NativeEngine&>(*engine);
  config.seed = 43;
  ASSERT_TRUE(native
                  .InsertDocument({"extra.xml", datagen::Generate(
                                                    DbClass::kTcSd, config)
                                                    .documents[0]
                                                    .text})
                  .ok());
  const workload::QueryParams params =
      workload::DeriveParams(DbClass::kTcSd, db.seeds);
  workload::ExecutionResult result =
      workload::RunQuery(*engine, QueryId::kQ8, DbClass::kTcSd, params);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  bool walked = false;
  for (const xquery::exec::OperatorStats& op : result.plan_stats.operators) {
    if (op.label.rfind("GuidedWalk(", 0) == 0) walked = true;
  }
  EXPECT_TRUE(walked);

  auto ast = workload::AnalyzeForClass(
      workload::XQueryFor(QueryId::kQ8, DbClass::kTcSd, params),
      DbClass::kTcSd);
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  auto reference = oracle::Interpret(native, **ast);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::string answer;
  for (const std::string& line : result.lines) answer += line + "\n";
  EXPECT_EQ(answer, reference->ToText());
  EXPECT_FALSE(result.lines.empty());
}

TEST(GuideTest, InsertedPathJoinsTheGuideAndDeletedPathLeavesIt) {
  engines::NativeEngine engine;
  ASSERT_TRUE(
      engine.BulkLoad(DbClass::kTcMd, {{"1.xml", "<a><b><c>1</c></b></a>"}})
          .ok());
  auto chains_below_a = [&] {
    return engine.IndexCatalogSnapshot().collection.guide->ChainsBelow("a",
                                                                        "c");
  };
  EXPECT_EQ(chains_below_a().Find("x"), nullptr);

  // The bulk load never saw a/x/y/c; a guided walk that missed it would
  // drop <c>2</c>.
  ASSERT_TRUE(
      engine.InsertDocument({"2.xml", "<a><x><y><c>2</c></y></x></a>"}).ok());
  EXPECT_NE(chains_below_a().Find("x"), nullptr);
  const GuideRun grown = RunOn(engine, "$input//c", kGuided);
  EXPECT_NE(grown.physical.find("GuidedWalk(c)"), std::string::npos);
  EXPECT_EQ(grown.answer, "<c>1</c>\n<c>2</c>\n");
  // Ad-hoc text compiles cost-based, so it walks the guide too.
  auto adhoc = engine.Query("$input//c");
  ASSERT_TRUE(adhoc.ok()) << adhoc.status().ToString();
  EXPECT_EQ(adhoc->ToText(), grown.answer);

  ASSERT_TRUE(engine.DeleteDocument("2.xml").ok());
  EXPECT_EQ(chains_below_a().Find("x"), nullptr);
  EXPECT_EQ(RunOn(engine, "$input//c", kGuided).answer, "<c>1</c>\n");
}

TEST(GuideTest, FailedBulkLoadLeavesTheGuideUnchanged) {
  // The load stops at its malformed second document and takes back the
  // first: the collection, its guide and its catalog answer as before.
  engines::NativeEngine engine;
  ASSERT_TRUE(
      engine.BulkLoad(DbClass::kTcMd, {{"0.xml", "<a><b><c>0</c></b></a>"}})
          .ok());
  const xquery::plan::IndexCatalog before = engine.IndexCatalogSnapshot();
  EXPECT_FALSE(engine
                   .BulkLoad(DbClass::kTcMd,
                             {{"1.xml", "<a><x><c>1</c></x></a>"},
                              {"2.xml", "<a><c>"}})
                   .ok());
  const xquery::plan::IndexCatalog after = engine.IndexCatalogSnapshot();
  EXPECT_EQ(after.collection.guide->ChainsBelow("a", "c").Find("x"), nullptr);
  EXPECT_EQ(after.collection.documents, before.collection.documents);
  EXPECT_EQ(after.collection.total_elements,
            before.collection.total_elements);
  EXPECT_EQ(after.collection.elements_by_name,
            before.collection.elements_by_name);
  EXPECT_EQ(engine.document_count(), 1u);
  EXPECT_EQ(RunOn(engine, "$input//c", kGuided).answer, "<c>0</c>\n");
  EXPECT_EQ(RunOn(engine, "$input//c", kScan).answer, "<c>0</c>\n");
}

TEST(GuideTest, ConstructedContextGetsAFullScan) {
  // The guide holds entry -> qloc only as a direct child; the constructed
  // <entry> nests its <qloc> one level deeper. A constructed tree is in no
  // stored document, so the guided operator scans it instead.
  engines::NativeEngine engine;
  ASSERT_TRUE(engine
                  .BulkLoad(DbClass::kTcSd,
                            {{"d.xml",
                              "<dictionary><e><entry><qloc>L1</qloc></entry>"
                              "</e></dictionary>"}})
                  .ok());
  const GuideRun run = RunOn(
      engine,
      "let $c := <entry><x><qloc>L2</qloc></x></entry> return $c//qloc",
      kGuided);
  EXPECT_NE(run.physical.find("GuidedWalk(qloc)"), std::string::npos)
      << run.physical;
  EXPECT_EQ(run.answer, "<qloc>L2</qloc>\n");
}

// --- Lowered constructors and the grouped count ------------------------------

/// Runs `text` as a compiled plan (guided and full-scan) and with the
/// interpreter oracle; returns the guided plan's physical rendering.
std::string ExpectMatchesOracle(engines::NativeEngine& engine,
                                const std::string& text) {
  auto ast = xquery::ParseQuery(text);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  if (!ast.ok()) return "";
  auto reference = oracle::Interpret(engine, **ast);
  const std::string expected =
      reference.ok() ? reference->ToText() : reference.status().ToString();
  const GuideRun scan = RunOn(engine, text, kScan);
  const GuideRun guided = RunOn(engine, text, kGuided);
  EXPECT_EQ(scan.answer, expected) << text;
  EXPECT_EQ(guided.answer, expected) << text;
  return guided.physical;
}

/// Group keys that only the general comparison's rules tell apart:
/// numbers in several spellings, -0 and 0, the text "NaN" (a string, it
/// does not parse as a number), repeated values in one item and items
/// without any key.
engines::NativeEngine& GroupCountEngine() {
  static auto* engine = [] {
    auto* e = new engines::NativeEngine();
    EXPECT_TRUE(e->BulkLoad(DbClass::kTcSd,
                            {{"1.xml",
                              "<d><e id=\"a\"><k>1</k><k>1.0</k></e>"
                              "<e id=\"b\"><x><k>01</k></x><k>x</k></e>"
                              "<e id=\"c\"><k>-0</k><k>x</k><k>x</k></e>"
                              "<e id=\"d\"/></d>"},
                             {"2.xml",
                              "<d><e id=\"e\"><k>0</k><k>NaN</k></e>"
                              "<e id=\"f\"><k>true</k><k> 1 </k></e>"
                              "<e id=\"g\"><k>NaN</k></e></d>"}})
                    .ok());
    return e;
  }();
  return *engine;
}

TEST(GroupCountTest, MatchesTheInterpreterOnNumericLookingKeys) {
  engines::NativeEngine& engine = GroupCountEngine();
  const std::vector<std::string> queries = {
      // The TC/SD Q3 shape over every distinct key.
      "for $v in distinct-values($input//k) order by $v return "
      "<g><v>{$v}</v><n>{count($input//e[.//k = $v])}</n></g>",
      // Probes of every atomic kind: numbers (NaN equals every number),
      // booleans (1 or 0, and the string \"true\"), strings.
      "for $v in (1, 0, 1.5, number(\"x\"), true(), false(), \"1\", "
      "\"1.0\", \"01\", \"-0\", \"0\", \"NaN\", \"x\", \"y\") "
      "return count($input//e[k = $v])",
      // Operands swapped; a filter over a parenthesized path.
      "for $v in distinct-values($input//k) return "
      "count(($input//e)[$v = .//k])",
      // An empty for input never builds the table.
      "for $v in $input//nothing return count($input//e[k = $v])",
      "for $v in () return count($input//e[k = $v])",
  };
  for (const std::string& query : queries) {
    const std::string physical = ExpectMatchesOracle(engine, query);
    EXPECT_NE(physical.find("HashGroupCount("), std::string::npos)
        << query << "\n" << physical;
  }
}

TEST(GroupCountTest, OtherShapesKeepThePerTuplePlan) {
  engines::NativeEngine& engine = GroupCountEngine();
  const std::vector<std::string> queries = {
      // A let variable may hold many items.
      "for $x in $input//e let $v := $x/k return count($input//e[k = $v])",
      // A position variable.
      "for $x at $v in $input//e return count($input//e[k = $v])",
      // Comparisons other than =.
      "for $v in distinct-values($input//k) return "
      "count($input//e[k != $v])",
      "for $v in distinct-values($input//k) return count($input//e[k < $v])",
      // X depends on a loop variable.
      "for $d in $input, $v in $d//k return count($d//e[k = $v])",
      "for $v in $input//k return count($v/../../e[k = $v])",
      // Positional predicates.
      "for $v in distinct-values($input//k) return "
      "count($input//e[k = $v][1])",
      "for $v in distinct-values($input//k) return "
      "count($input//e[k[1] = $v])",
      "for $v in (1, 2) return count($input//e[position() = $v])",
  };
  for (const std::string& query : queries) {
    const std::string physical = ExpectMatchesOracle(engine, query);
    EXPECT_EQ(physical.find("HashGroupCount("), std::string::npos)
        << query << "\n" << physical;
    EXPECT_NE(physical.find("Aggregate(count)"), std::string::npos)
        << query << "\n" << physical;
  }
}

TEST(ConstructTest, LoweredConstructorsMatchTheInterpreter) {
  engines::NativeEngine& engine = GroupCountEngine();
  const std::vector<std::string> queries = {
      // Attribute text and enclosed parts; atomics joined by one space and
      // flushed around copied nodes; text, nested and empty constructors.
      "for $e in $input//e return <r a=\"x{$e/k}y{count($e/k)}\" "
      "b=\"{$e/@id}\"><t>lit</t>{$e/k, \"a\", 1}{data($e/k)} mid "
      "{$e/@id}<n/>{()}{1, 2}</r>",
      // A constructed tree inside a constructor is copied in.
      "<a>{<b>{1}</b>}<c>{for $k in $input//k return data($k)}</c></a>",
      // Constructed trees carry pre-order ids for document order.
      "for $x in (<a><b>1</b><c><b>2</b></c></a>)//b return $x",
      "let $c := <a><b/><c/></a> return ($c/c | $c/b)",
      // Errors surface as the interpreter's.
      "<a>{$input//e/k + 1}</a>",
  };
  for (const std::string& query : queries) {
    const std::string physical = ExpectMatchesOracle(engine, query);
    EXPECT_EQ(physical.find("Eval(constructor)"), std::string::npos)
        << physical;
  }
}

// --- Xcolumn plan cache -----------------------------------------------------

TEST(ClobAstCacheTest, QueryDocumentParsesEachQueryTextOnce) {
  auto& setup = PlanFixture::Get().ForClass(DbClass::kTcMd);
  engines::ClobEngine clob;
  ASSERT_TRUE(clob.BulkLoad(DbClass::kTcMd,
                            workload::ToLoadDocuments(setup.db)).ok());
  ReaderLock lock(clob.collection_mu());
  const std::vector<std::string> names = clob.DocumentNames();
  ASSERT_GE(names.size(), 2u);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  const uint64_t hits0 =
      metrics.GetCounter("xbench.plan.ast_cache_hits").value();
  const uint64_t misses0 =
      metrics.GetCounter("xbench.plan.ast_cache_misses").value();
  const uint64_t compiles0 = metrics.GetCounter("xbench.plan.compiles").value();
  const std::string query = "count($input//title)";
  ASSERT_TRUE(clob.QueryDocument(names[0], query).ok());
  EXPECT_EQ(metrics.GetCounter("xbench.plan.ast_cache_misses").value(),
            misses0 + 1);
  ASSERT_TRUE(clob.QueryDocument(names[1], query).ok());
  EXPECT_EQ(metrics.GetCounter("xbench.plan.ast_cache_hits").value(),
            hits0 + 1);
  EXPECT_EQ(metrics.GetCounter("xbench.plan.ast_cache_misses").value(),
            misses0 + 1);
  // The miss compiled the text into a plan; the hit reused it.
  EXPECT_EQ(metrics.GetCounter("xbench.plan.compiles").value(),
            compiles0 + 1);
}

}  // namespace
}  // namespace xbench
