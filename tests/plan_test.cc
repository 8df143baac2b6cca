// Tests for the compile-then-execute pipeline: logical planning, physical
// execution, the per-engine plan cache, and — most importantly — the
// differential guarantee that a compiled plan produces byte-identical
// output to the legacy AST interpreter for every canned query of every
// class, with guided descendant walks both on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "datagen/generator.h"
#include "engines/clob_engine.h"
#include "engines/native_engine.h"
#include "obs/metrics.h"
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
/// (loading through workload::BulkLoad so the guided-eval gate is set the
/// same way the benchmark runner sets it).
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
/// QueryResult::ToText() output to the legacy AST interpreter over the
/// same collection. Regions go wide on their own when their input is
/// large enough; one cell per class must run at least one wide region,
/// so the answer check keeps covering morsel-parallel execution.
TEST_P(PlanDifferentialTest, CompiledPlanMatchesInterpreterByteForByte) {
  const auto [id, cls] = GetParam();
  auto& setup = PlanFixture::Get().ForClass(cls);
  const std::string text = workload::XQueryFor(id, cls, setup.params);
  if (text.empty()) GTEST_SKIP() << "query not defined for this class";
  engines::NativeEngine& engine = setup.native();
  // Generated databases validate against the canonical schema, so the
  // workload bulk-load enables guided evaluation; every plan flavour is
  // executable.
  ASSERT_TRUE(engine.guided_eval_enabled());

  auto ast = workload::AnalyzeForClass(text, cls);
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  auto reference = engine.Query(**ast);
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
    auto result = engine.ExecutePlan(**compiled);
    ASSERT_TRUE(result.ok())
        << flavour.label << ": " << result.status().ToString();
    EXPECT_EQ(result->ToText(), reference->ToText())
        << QueryName(id) << " on " << datagen::DbClassName(cls) << " ("
        << flavour.label << ", access path "
        << (*compiled)->logical.access_path_summary << ")";
    for (const xquery::exec::OperatorStats& op :
         engine.last_plan_stats().operators) {
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

TEST(PlanShapeTest, ForceIndexModeRestrictsToTheNamedIndex) {
  // kForceIndex with a name only probes through that index; naming an
  // index no query shape can use must fall back to scans, not probe.
  auto& setup = PlanFixture::Get().ForClass(DbClass::kTcSd);
  const xquery::plan::IndexCatalog catalog =
      setup.native().IndexCatalogSnapshot();
  const std::string text =
      workload::XQueryFor(QueryId::kQ5, DbClass::kTcSd, setup.params);
  ASSERT_FALSE(text.empty());
  xquery::plan::CompilationOptions options;
  options.access_path.mode = xquery::plan::AccessPathMode::kForceIndex;
  options.access_path.forced_index = "no_such_index";
  auto compiled = CompileWith(text, DbClass::kTcSd, options, &catalog);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ((*compiled)->logical.access_path_summary.find('('),
            std::string::npos)
      << (*compiled)->logical.access_path_summary;
}

TEST(PlanShapeTest, EmptyRewriteGatedOnTrustStatistics) {
  // The rewrite consumes analyzer cardinality via PlanAnnotations; feed a
  // synthetic kEmpty annotation and check the gate.
  for (bool trust : {true, false}) {
    auto parsed = xquery::ParseQuery("$input/absent_child");
    ASSERT_TRUE(parsed.ok());
    xquery::plan::PlanAnnotations notes;
    notes.path_cardinality[parsed->get()] = xquery::plan::Card::kEmpty;
    xquery::plan::CompilationOptions options;
    options.cost_model.trust_statistics = trust;
    auto logical =
        xquery::plan::BuildLogicalPlan(**parsed, &notes, options);
    ASSERT_TRUE(logical.ok());
    const bool rewritten = logical->ToString().find(
                               "Empty [statically empty]") !=
                           std::string::npos;
    EXPECT_EQ(rewritten, trust);
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
  const xquery::plan::PlanCacheKey key{1, 2, 3, false, 0, "", 0};
  EXPECT_EQ(cache.Lookup(key), nullptr);

  auto parsed = xquery::ParseQuery("count($input)");
  ASSERT_TRUE(parsed.ok());
  auto compiled = xquery::plan::Compile(std::move(*parsed), nullptr,
                                        xquery::plan::CompilationOptions{});
  ASSERT_TRUE(compiled.ok());
  cache.Insert(key, *compiled);
  EXPECT_NE(cache.Lookup(key), nullptr);
  // The guided flag is part of the key: a gate flip never reuses a plan
  // compiled for the other access paths.
  const xquery::plan::PlanCacheKey guided_key{1, 2, 3, true, 0, "", 0};
  EXPECT_EQ(cache.Lookup(guided_key), nullptr);
  // So are the access-path mode, the forced-index name, and the index
  // catalog epoch: plans costed against superseded index state (or under
  // a different policy) miss instead of being served.
  const xquery::plan::PlanCacheKey mode_key{1, 2, 3, false, 3, "", 0};
  EXPECT_EQ(cache.Lookup(mode_key), nullptr);
  const xquery::plan::PlanCacheKey forced_key{1, 2, 3, false, 3,
                                              "item_id", 0};
  EXPECT_EQ(cache.Lookup(forced_key), nullptr);
  const xquery::plan::PlanCacheKey epoch_key{1, 2, 3, false, 0, "", 7};
  EXPECT_EQ(cache.Lookup(epoch_key), nullptr);

  EXPECT_EQ(metrics.GetCounter("xbench.plan.cache_hits").value(), hits0 + 1);
  EXPECT_EQ(metrics.GetCounter("xbench.plan.cache_misses").value(),
            misses0 + 5);

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

  // A document mutation drops every cached plan (it can flip the guided
  // gate), and the next run recompiles for the new gate state.
  ASSERT_TRUE(
      native.InsertDocument({"extra.xml", db.documents[0].text}).ok());
  EXPECT_EQ(native.plan_cache().size(), 0u);
  EXPECT_FALSE(native.guided_eval_enabled());
  workload::ExecutionResult third =
      workload::RunQuery(*engine, QueryId::kQ8, DbClass::kTcMd, params);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.compiled);
  EXPECT_FALSE(third.plan_cache_hit);
}

TEST(PlanCacheTest, GuidedPlanRejectedOnUnvalidatedCollection) {
  auto& setup = PlanFixture::Get().ForClass(DbClass::kTcMd);
  const std::string text =
      workload::XQueryFor(QueryId::kQ8, DbClass::kTcMd, setup.params);
  auto compiled = CompileFor(text, DbClass::kTcMd, /*guided=*/true);
  ASSERT_TRUE(compiled.ok());
  engines::NativeEngine fresh;
  ASSERT_TRUE(
      fresh.BulkLoad(DbClass::kTcMd,
                     workload::ToLoadDocuments(setup.db)).ok());
  ASSERT_FALSE(fresh.guided_eval_enabled());  // no validation ran
  auto result = fresh.ExecutePlan(**compiled);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- Per-operator stats -----------------------------------------------------

TEST(PlanExecTest, OperatorStatsMirrorPlanLabels) {
  auto& setup = PlanFixture::Get().ForClass(DbClass::kTcMd);
  const std::string text =
      workload::XQueryFor(QueryId::kQ17, DbClass::kTcMd, setup.params);
  auto compiled = CompileFor(text, DbClass::kTcMd, /*guided=*/false);
  ASSERT_TRUE(compiled.ok());
  auto result = setup.native().ExecutePlan(**compiled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const xquery::exec::ExecStats& stats = setup.native().last_plan_stats();
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
  engines::NativeEngine fresh;  // no indexes, no guided validation
  ASSERT_TRUE(fresh.BulkLoad(DbClass::kTcSd,
                             workload::ToLoadDocuments(setup.db)).ok());
  xquery::plan::CompilationOptions options;
  options.access_path.mode = xquery::plan::AccessPathMode::kForceIndex;
  options.access_path.allow_guided = false;  // executable on `fresh`
  auto compiled = CompileWith(text, DbClass::kTcSd, options, &catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_NE((*compiled)->physical.ToString().find("IndexScan("),
            std::string::npos)
      << (*compiled)->physical.ToString();
  auto result = fresh.ExecutePlan(**compiled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const xquery::exec::ExecStats& stats = fresh.last_plan_stats();
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
  // pool, while TC/MD Q8 filters a handful of documents inline. Either
  // way the answer is the interpreter's.
  auto morsels_of = [](QueryId id, DbClass cls) -> uint64_t {
    auto& setup = PlanFixture::Get().ForClass(cls);
    engines::NativeEngine& engine = setup.native();
    const std::string text = workload::XQueryFor(id, cls, setup.params);
    auto ast = workload::AnalyzeForClass(text, cls);
    auto compiled = CompileFor(text, cls, /*guided=*/false);
    if (!ast.ok() || !compiled.ok()) {
      ADD_FAILURE() << QueryName(id) << " does not compile";
      return 0;
    }
    auto reference = engine.Query(**ast);
    auto result = engine.ExecutePlan(**compiled);
    if (!reference.ok() || !result.ok()) {
      ADD_FAILURE() << QueryName(id) << " does not run";
      return 0;
    }
    EXPECT_EQ(result->ToText(), reference->ToText()) << QueryName(id);
    uint64_t morsels = 0;
    for (const xquery::exec::OperatorStats& op :
         engine.last_plan_stats().operators) {
      EXPECT_GE(op.self_millis, 0.0);  // capped under concurrent children
      morsels += op.morsels;
    }
    return morsels;
  };
  EXPECT_GT(morsels_of(QueryId::kQ17, DbClass::kTcSd), 0u);
  EXPECT_EQ(morsels_of(QueryId::kQ8, DbClass::kTcMd), 0u);
}

// --- Xcolumn AST cache ------------------------------------------------------

TEST(ClobAstCacheTest, QueryDocumentParsesEachQueryTextOnce) {
  auto& setup = PlanFixture::Get().ForClass(DbClass::kTcMd);
  engines::ClobEngine clob;
  ASSERT_TRUE(clob.BulkLoad(DbClass::kTcMd,
                            workload::ToLoadDocuments(setup.db)).ok());
  const std::vector<std::string> names = clob.DocumentNames();
  ASSERT_GE(names.size(), 2u);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  const uint64_t hits0 =
      metrics.GetCounter("xbench.plan.ast_cache_hits").value();
  const uint64_t misses0 =
      metrics.GetCounter("xbench.plan.ast_cache_misses").value();
  const std::string query = "count($input//title)";
  ASSERT_TRUE(clob.QueryDocument(names[0], query).ok());
  EXPECT_EQ(metrics.GetCounter("xbench.plan.ast_cache_misses").value(),
            misses0 + 1);
  ASSERT_TRUE(clob.QueryDocument(names[1], query).ok());
  EXPECT_EQ(metrics.GetCounter("xbench.plan.ast_cache_hits").value(),
            hits0 + 1);
  EXPECT_EQ(metrics.GetCounter("xbench.plan.ast_cache_misses").value(),
            misses0 + 1);
}

}  // namespace
}  // namespace xbench
