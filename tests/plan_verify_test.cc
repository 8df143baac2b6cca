// Negative-path tests for the static plan verifier (DESIGN.md §14):
// hand-corrupt frozen plans the way a compiler bug would and assert each
// distinct contract violation is rejected with the expected diagnostic
// kind. The positive path (every canned plan verifies clean) is covered
// by the xqlint --verify sweep and the verify-enabled test fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "datagen/generator.h"
#include "engines/native_engine.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "workload/classes.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "xquery/plan/cache.h"
#include "xquery/verify/verifier.h"

namespace xbench {
namespace {

using datagen::DbClass;
using workload::QueryId;
using xquery::verify::DiagnosticKind;
using xquery::verify::VerifyResult;

/// A compiled plan the tests own mutably (unlike the shared-const
/// CompiledQuery), so individual pieces can be corrupted post-freeze.
struct BuiltPlan {
  xquery::ExprPtr ast;
  analysis::AnalysisReport report;
  xquery::plan::CompilationOptions options;
  xquery::plan::LogicalPlan logical;
  xquery::exec::PhysicalPlan physical;
};

class VerifyFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenConfig config;
    config.target_bytes = 160 * 1024;
    config.seed = 42;
    db_ = new datagen::GeneratedDatabase(
        datagen::Generate(DbClass::kTcSd, config));
    params_ = new workload::QueryParams(
        workload::DeriveParams(DbClass::kTcSd, db_->seeds));
    engine_ = workload::MakeEngine(engines::EngineKind::kNative).release();
    ASSERT_TRUE(workload::BulkLoad(*engine_, *db_).status.ok());
    ASSERT_TRUE(
        workload::CreateTable3Indexes(*engine_, DbClass::kTcSd).ok());
    catalog_ = new xquery::plan::IndexCatalog(
        static_cast<engines::NativeEngine&>(*engine_)
            .IndexCatalogSnapshot());
  }

  /// Compiles Q5 (an `item[@id = …]` equality probe under kForceIndex)
  /// into separately owned logical + physical plans.
  static BuiltPlan BuildProbePlan() {
    return BuildPlan(QueryId::kQ5, xquery::plan::AccessPathMode::kForceIndex);
  }

  static BuiltPlan BuildPlan(QueryId id, xquery::plan::AccessPathMode mode) {
    BuiltPlan built;
    const std::string text =
        workload::XQueryFor(id, DbClass::kTcSd, *params_);
    EXPECT_FALSE(text.empty());
    auto analyzed = workload::AnalyzeForClassFull(text, DbClass::kTcSd);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    built.ast = std::move(analyzed->ast);
    built.report = std::move(analyzed->report);
    built.options.access_path.mode = mode;
    auto logical = xquery::plan::BuildLogicalPlan(
        *built.ast, &built.report.annotations, built.options, catalog_);
    EXPECT_TRUE(logical.ok()) << logical.status().ToString();
    built.logical = std::move(*logical);
    auto physical = xquery::exec::BuildPhysicalPlan(built.logical);
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();
    built.physical = std::move(*physical);
    return built;
  }

  static xquery::plan::LogicalNode* FindProbe(xquery::plan::LogicalNode* n) {
    if (n->probe.has_value()) return n;
    for (auto& input : n->inputs) {
      if (auto* probe = FindProbe(input.get())) return probe;
    }
    return nullptr;
  }

  /// First node of `kind` in pre-order, with its stats slot.
  static xquery::plan::LogicalNode* FindKind(xquery::plan::LogicalNode* n,
                                             xquery::plan::LogicalKind kind,
                                             size_t& slot) {
    if (n->kind == kind) return n;
    for (auto& input : n->inputs) {
      ++slot;
      if (auto* found = FindKind(input.get(), kind, slot)) return found;
    }
    return nullptr;
  }

  static bool HasKind(const VerifyResult& result, DiagnosticKind kind) {
    for (const auto& diag : result.diagnostics) {
      if (diag.kind == kind) return true;
    }
    return false;
  }

  static VerifyResult Verify(const BuiltPlan& built) {
    return xquery::verify::VerifyPlan(built.logical, built.physical,
                                      built.options, catalog_);
  }

  static datagen::GeneratedDatabase* db_;
  static workload::QueryParams* params_;
  static engines::XmlDbms* engine_;
  static xquery::plan::IndexCatalog* catalog_;
};

datagen::GeneratedDatabase* VerifyFixture::db_ = nullptr;
workload::QueryParams* VerifyFixture::params_ = nullptr;
engines::XmlDbms* VerifyFixture::engine_ = nullptr;
xquery::plan::IndexCatalog* VerifyFixture::catalog_ = nullptr;

TEST_F(VerifyFixture, WellFormedProbePlanVerifiesClean) {
  const uint64_t plans0 = obs::MetricsRegistry::Default()
                              .GetCounter(obs::metric_names::kVerifyPlans)
                              .value();
  BuiltPlan built = BuildProbePlan();
  ASSERT_NE(FindProbe(built.logical.root.get()), nullptr)
      << built.logical.ToString();
  VerifyResult result = Verify(built);
  EXPECT_TRUE(result.ok()) << result.diagnostics.front().ToString();
  // One derived-property line per frozen operator.
  EXPECT_EQ(result.derived.size(), built.physical.labels.size());
  for (const std::string& line : result.derived) {
    EXPECT_NE(line.find(" :: unique="), std::string::npos) << line;
  }
  EXPECT_GT(obs::MetricsRegistry::Default()
                .GetCounter(obs::metric_names::kVerifyPlans)
                .value(),
            plans0);
}

TEST_F(VerifyFixture, StaleCatalogEpochIsRejected) {
  BuiltPlan built = BuildProbePlan();
  xquery::plan::LogicalNode* probe = FindProbe(built.logical.root.get());
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->probe->catalog_epoch, catalog_->epoch);
  probe->probe->catalog_epoch = catalog_->epoch + 17;
  VerifyResult result = Verify(built);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasKind(result, DiagnosticKind::kEpochMismatch));
  // The rejection doubles as counter coverage.
  EXPECT_GT(
      obs::MetricsRegistry::Default()
          .GetCounter(obs::metric_names::kVerifyViolations)
          .value(),
      0u);
}

TEST_F(VerifyFixture, DroppedResidualPredicateIsRejected) {
  BuiltPlan built = BuildProbePlan();
  xquery::plan::LogicalNode* probe = FindProbe(built.logical.root.get());
  ASSERT_NE(probe, nullptr);
  ASSERT_FALSE(probe->inputs.empty());
  ASSERT_FALSE(probe->inputs[0]->predicates.empty())
      << "Q5's probe should carry the fallback's predicate as residual";
  // A buggy selector that forgets to re-check the replaced subtree's
  // predicate would let the probe widen the answer.
  probe->predicates.clear();
  VerifyResult result = Verify(built);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasKind(result, DiagnosticKind::kMissingResidualPredicate));
}

TEST_F(VerifyFixture, NonUniqueProbeRootsAreRejected) {
  BuiltPlan built = BuildProbePlan();
  xquery::plan::LogicalNode* probe = FindProbe(built.logical.root.get());
  ASSERT_NE(probe, nullptr);
  ASSERT_EQ(probe->inputs.size(), 2u);
  // An interpreter-core leaf may bind the same node twice; a probe fed
  // such a root source would double-count its candidates.
  probe->inputs[1]->kind = xquery::plan::LogicalKind::kEval;
  VerifyResult result = Verify(built);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasKind(result, DiagnosticKind::kNonUniqueRoots));
}

TEST_F(VerifyFixture, EstimateOutsideAnalysisBoundsIsRejected) {
  BuiltPlan built = BuildProbePlan();
  xquery::plan::LogicalNode* probe = FindProbe(built.logical.root.get());
  ASSERT_NE(probe, nullptr);
  ASSERT_GE(probe->estimated_rows, 0);
  // Claim the analyzer proved this subtree empty while the cost model
  // still estimates rows out of it — contradictory frozen statistics.
  probe->cardinality = xquery::plan::Card::kEmpty;
  probe->estimated_rows = std::max(probe->estimated_rows, 1.0);
  built.options.cost_model.trust_statistics = true;
  // Keep the physical mirror consistent so only the bound violation
  // fires, not a label mismatch.
  for (size_t i = 0; i < built.physical.estimated_rows.size(); ++i) {
    if (built.physical.estimated_rows[i] >= 0) {
      built.physical.estimated_rows[i] = probe->estimated_rows;
    }
  }
  VerifyResult result = Verify(built);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasKind(result, DiagnosticKind::kCardinalityBound));
  EXPECT_FALSE(HasKind(result, DiagnosticKind::kLabelMismatch));
}

TEST_F(VerifyFixture, WrongArityIsRejected) {
  BuiltPlan built = BuildProbePlan();
  xquery::plan::LogicalNode* probe = FindProbe(built.logical.root.get());
  ASSERT_NE(probe, nullptr);
  ASSERT_EQ(probe->inputs.size(), 2u);
  probe->inputs.pop_back();  // drop the root source the probe validates
  VerifyResult result = Verify(built);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasKind(result, DiagnosticKind::kArityMismatch));
}

TEST_F(VerifyFixture, CorruptedLabelIsRejected) {
  BuiltPlan built = BuildProbePlan();
  ASSERT_FALSE(built.physical.labels.empty());
  built.physical.labels[0] = "Scan($haxx)";
  VerifyResult result = Verify(built);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasKind(result, DiagnosticKind::kLabelMismatch));
}

TEST_F(VerifyFixture, GroupCountAndConstructorContractsAreChecked) {
  using xquery::plan::LogicalKind;
  constexpr auto kGuided = xquery::plan::AccessPathMode::kForceGuided;
  {
    BuiltPlan built = BuildPlan(QueryId::kQ3, kGuided);
    EXPECT_TRUE(Verify(built).ok());
    size_t slot = 0;
    xquery::plan::LogicalNode* count = FindKind(
        built.logical.root.get(), LogicalKind::kHashGroupCount, slot);
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(built.physical.labels[slot], "HashGroupCount(.//qloc = $loc)");
    // A plan grouping by another key is not the plan that was frozen.
    built.physical.labels[slot] = "HashGroupCount(.//qau = $loc)";
    VerifyResult forged = Verify(built);
    EXPECT_TRUE(HasKind(forged, DiagnosticKind::kLabelMismatch));
    count->inputs.pop_back();  // drop the probe side
    EXPECT_TRUE(HasKind(Verify(built), DiagnosticKind::kArityMismatch));
  }
  {
    BuiltPlan built = BuildPlan(QueryId::kQ11, kGuided);
    EXPECT_TRUE(Verify(built).ok());
    size_t slot = 0;
    xquery::plan::LogicalNode* construct =
        FindKind(built.logical.root.get(), LogicalKind::kConstruct, slot);
    ASSERT_NE(construct, nullptr);
    ASSERT_EQ(construct->inputs.size(), 2u);  // <qau>{…}</qau><qd>{…}</qd>
    construct->inputs.pop_back();
    EXPECT_TRUE(HasKind(Verify(built), DiagnosticKind::kArityMismatch));
  }
}

TEST_F(VerifyFixture, CompileRejectsViolationsWhenVerifyIsOn) {
  // End-to-end: Compile() with the verify knob on runs the verifier and
  // surfaces a clean pass (the negative path is unreachable through the
  // real compiler — that is the point of the subsystem).
  const std::string text =
      workload::XQueryFor(QueryId::kQ5, DbClass::kTcSd, *params_);
  auto analyzed = workload::AnalyzeForClassFull(text, DbClass::kTcSd);
  ASSERT_TRUE(analyzed.ok());
  xquery::plan::CompilationOptions options;
  options.verify = true;
  auto compiled =
      xquery::plan::Compile(std::move(analyzed->ast),
                            &analyzed->report.annotations, options, catalog_);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
}

}  // namespace
}  // namespace xbench
