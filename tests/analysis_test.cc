#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/class_schemas.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "xml/parser.h"
#include "xquery/parser.h"

namespace xbench::analysis {
namespace {

using datagen::DbClass;
using workload::QueryId;

/// Fixture over a tiny hand-written schema: documents rooted at `a`,
///   a -> b* , d?      b -> c*      c, d -> #PCDATA
/// and element `z` declared but unreachable from `a`.
class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dtd = xml::Dtd::Parse(R"(
<!ELEMENT a (b*, d?)>
<!ELEMENT b (c*)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT z (#PCDATA)>
)");
    ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
    dtd_ = std::move(dtd).value();
    context_.dtd = &dtd_;
    context_.roots = {"a"};
  }

  /// Parses and analyzes `query`, returning the report.
  AnalysisReport Analyzed(const std::string& query) {
    auto parsed = xquery::ParseQuery(query);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    expr_ = std::move(parsed).value();
    return Analyze(*expr_, context_);
  }

  xml::Dtd dtd_;
  SchemaContext context_;
  xquery::ExprPtr expr_;
};

TEST_F(AnalyzerTest, CleanPathHasNoDiagnostics) {
  AnalysisReport report = Analyzed("$input/b/c");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();
  ASSERT_EQ(report.paths.size(), 1u);
  EXPECT_EQ(report.paths[0].rendered, "$input/b/c");
  ASSERT_EQ(report.paths[0].result_types.size(), 1u);
  EXPECT_EQ(report.paths[0].result_types[0], "c");
}

TEST_F(AnalyzerTest, UnknownNameIsAnError) {
  AnalysisReport report = Analyzed("$input/zzz");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].kind, DiagnosticKind::kUnknownName);
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
  EXPECT_TRUE(report.HasErrors());
}

TEST_F(AnalyzerTest, DeclaredButImpossibleChildIsAnError) {
  // `a` is declared, but `c` (a #PCDATA leaf) can never have it as a child.
  AnalysisReport report = Analyzed("$input/b/c/a");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].kind, DiagnosticKind::kImpossibleStep);
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
  EXPECT_NE(report.diagnostics[0].message.find("#PCDATA"), std::string::npos)
      << report.diagnostics[0].message;
}

TEST_F(AnalyzerTest, UnreachableDescendantIsAnError) {
  // `z` is declared but lives outside the descendant closure of `a`.
  AnalysisReport report = Analyzed("$input//z");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].kind,
            DiagnosticKind::kUnreachableDescendant);
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
}

TEST_F(AnalyzerTest, WrongAxisIsAnError) {
  // `d` is a child of `a`, not an attribute.
  AnalysisReport report = Analyzed("$input/@d");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].kind, DiagnosticKind::kImpossibleStep);
}

TEST_F(AnalyzerTest, AlwaysEmptyPathIsAWarning) {
  // The DTD admits a/d, but the instance statistics (one document with no
  // <d>) bound its occurrence count to zero — the Q14 situation.
  auto doc = xml::Parse("<a><b><c>x</c></b></a>", "a.xml");
  ASSERT_TRUE(doc.ok());
  xml::SchemaSummary summary;
  summary.AddDocument(*doc);
  context_.summary = &summary;

  AnalysisReport report = Analyzed("$input/d");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].kind, DiagnosticKind::kAlwaysEmptyPath);
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
  EXPECT_FALSE(report.HasErrors());
  ASSERT_EQ(report.paths.size(), 1u);
  EXPECT_EQ(report.paths[0].cardinality, Cardinality::kEmpty);
}

TEST_F(AnalyzerTest, DescendantStepIsResolvedToChains) {
  AnalysisReport report = Analyzed("$input//c");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();
  EXPECT_EQ(report.resolved_steps, 1);
  // `//c` parses as descendant-or-self::* followed by child::c; the
  // analyzer reports the only admissible chain.
  ASSERT_EQ(report.paths.size(), 1u);
  EXPECT_EQ(report.paths[0].expansions,
            (std::vector<std::string>{"a -> b/c"}));
}

TEST_F(AnalyzerTest, RecursiveSchemaIsNotExpanded) {
  auto dtd = xml::Dtd::Parse(R"(
<!ELEMENT doc (sec*)>
<!ELEMENT sec (title?, sec*)>
<!ELEMENT title (#PCDATA)>
)");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  dtd_ = std::move(dtd).value();
  context_.dtd = &dtd_;
  context_.roots = {"doc"};

  // `title` is reachable only through the recursive `sec` nest: the set of
  // label chains is unbounded, so the step must stay unresolved and its
  // cardinality unknown.
  AnalysisReport report = Analyzed("$input//title");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();
  EXPECT_EQ(report.resolved_steps, 0);
  ASSERT_EQ(report.paths.size(), 1u);
  EXPECT_TRUE(report.paths[0].expansions.empty());
  EXPECT_EQ(report.paths[0].cardinality, Cardinality::kUnknown);
}

TEST_F(AnalyzerTest, SelfPredicateNarrowsMultiRootInput) {
  // The DC/MD idiom: $input holds several root types and queries narrow
  // with [self::order]. Narrowing must not flag the other root types.
  auto dtd = xml::Dtd::Parse(R"(
<!ELEMENT order (total)>
<!ELEMENT total (#PCDATA)>
<!ELEMENT customers (name*)>
<!ELEMENT name (#PCDATA)>
)");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  dtd_ = std::move(dtd).value();
  context_.dtd = &dtd_;
  context_.roots = {"order", "customers"};

  AnalysisReport report = Analyzed("$input[self::order]/total");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();

  // Without narrowing, `total` is impossible for the `customers` root but
  // fine for `order` — still no diagnostic (some context admits it).
  report = Analyzed("$input/name");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToString();

  // A name no root admits is an error even in the multi-root case.
  report = Analyzed("$input/zz_nothing");
  EXPECT_TRUE(report.HasErrors());
}

/// Every canned query of every class must pass analysis against the
/// class's canonical schema with no diagnostics at all — the xqlint gate
/// as an in-process test.
class CannedQueryAnalysisTest : public ::testing::TestWithParam<DbClass> {};

TEST_P(CannedQueryAnalysisTest, AllQueriesAnalyzeClean) {
  const DbClass cls = GetParam();
  const ClassSchema& schema = CanonicalClassSchema(cls);
  const workload::QueryParams params =
      workload::DeriveParams(cls, schema.seeds);
  for (int i = 0; i < 20; ++i) {
    const auto id = static_cast<QueryId>(i);
    const std::string xquery = workload::XQueryFor(id, cls, params);
    if (xquery.empty()) continue;  // not defined for this class
    auto parsed = xquery::ParseQuery(xquery);
    ASSERT_TRUE(parsed.ok())
        << workload::QueryName(id) << ": " << parsed.status().ToString();
    AnalysisReport report = Analyze(**parsed, schema.Context());
    EXPECT_TRUE(report.diagnostics.empty())
        << workload::QueryName(id) << " on " << datagen::DbClassName(cls)
        << ":\n"
        << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, CannedQueryAnalysisTest,
                         ::testing::Values(DbClass::kTcSd, DbClass::kTcMd,
                                           DbClass::kDcSd, DbClass::kDcMd),
                         [](const auto& info) {
                           return std::string(
                                      datagen::DbClassName(info.param))
                                      .substr(0, 2) +
                                  (datagen::DbClassName(info.param)[3] == 'S'
                                       ? "SD"
                                       : "MD");
                         });

TEST(AnalyzeForClassTest, MisdirectedQueryIsAHardError) {
  // A query referencing an element the TC/SD dictionary DTD cannot
  // produce must fail up front, not run and return an empty answer.
  auto result =
      workload::AnalyzeForClass("$input/purchase_order/total", DbClass::kTcSd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("schema analysis"),
            std::string::npos)
      << result.status().ToString();
}

TEST(AnalyzeForClassTest, ValidQueryReturnsAnnotatedAst) {
  const ClassSchema& schema = CanonicalClassSchema(DbClass::kDcSd);
  const workload::QueryParams params =
      workload::DeriveParams(DbClass::kDcSd, schema.seeds);
  const std::string q8 =
      workload::XQueryFor(QueryId::kQ8, DbClass::kDcSd, params);
  ASSERT_FALSE(q8.empty());
  auto result = workload::AnalyzeForClass(q8, DbClass::kDcSd);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace xbench::analysis
