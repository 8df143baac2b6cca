#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/article_generator.h"
#include "engines/native_engine.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "workload/classes.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "xquery/parser.h"

namespace xbench::workload {
namespace {

using datagen::DbClass;

QueryParams DummyParams() {
  QueryParams p;
  p.item_id = "I000001";
  p.order_id = "O000001";
  p.article_id = "A000001";
  p.headword = "word_1";
  p.author = "Alan Turing";
  p.search_word = "kala";
  p.keyword1 = "ka";
  p.keyword2 = "la";
  p.phrase = "ba be";
  p.date_lo = "2000-01-01";
  p.date_hi = "2001-01-01";
  p.country = "Country01";
  return p;
}

std::vector<QueryId> AllQueries() {
  std::vector<QueryId> out;
  for (int i = 0; i < 20; ++i) out.push_back(static_cast<QueryId>(i));
  return out;
}

TEST(QueryCatalogTest, EveryQueryDefinedSomewhereAndParses) {
  const QueryParams params = DummyParams();
  for (QueryId id : AllQueries()) {
    int defined = 0;
    for (DbClass cls : AllClasses()) {
      const std::string text = XQueryFor(id, cls, params);
      if (text.empty()) continue;
      ++defined;
      auto parsed = xquery::ParseQuery(text);
      EXPECT_TRUE(parsed.ok())
          << QueryName(id) << " " << datagen::DbClassName(cls) << ": "
          << parsed.status().ToString() << "\n"
          << text;
    }
    EXPECT_GE(defined, 1) << QueryName(id);
  }
}

TEST(QueryCatalogTest, BenchmarkSubsetDefinedForAllClasses) {
  const QueryParams params = DummyParams();
  for (QueryId id : BenchmarkSubset()) {
    for (DbClass cls : AllClasses()) {
      EXPECT_FALSE(XQueryFor(id, cls, params).empty())
          << QueryName(id) << " " << datagen::DbClassName(cls);
    }
  }
}

TEST(QueryCatalogTest, NamesAndCategories) {
  EXPECT_STREQ(QueryName(QueryId::kQ1), "Q1");
  EXPECT_STREQ(QueryName(QueryId::kQ20), "Q20");
  EXPECT_STREQ(QueryCategory(QueryId::kQ17), "Text search");
  EXPECT_STREQ(QueryCategory(QueryId::kQ5), "Ordered access");
}

TEST(QueryCatalogTest, IndexHintsOnlyForIdLookups) {
  const QueryParams params = DummyParams();
  EXPECT_TRUE(IndexHintFor(QueryId::kQ5, DbClass::kDcMd, params).has_value());
  EXPECT_FALSE(IndexHintFor(QueryId::kQ17, DbClass::kDcMd, params).has_value());
  EXPECT_FALSE(IndexHintFor(QueryId::kQ14, DbClass::kTcSd, params).has_value());
  auto hint = IndexHintFor(QueryId::kQ8, DbClass::kTcSd, params);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->index_name, "hw");
  EXPECT_EQ(hint->value, params.headword);
}

TEST(ClassesTest, Table3AndInstanceNames) {
  EXPECT_EQ(Table3Indexes(DbClass::kDcSd).size(), 2u);
  EXPECT_EQ(Table3Indexes(DbClass::kTcSd)[0].path, "hw");
  EXPECT_EQ(InstanceName(DbClass::kTcSd, Scale::kSmall), "TCSDS");
  EXPECT_EQ(InstanceName(DbClass::kDcMd, Scale::kLarge), "DCMDL");
}

// --- Full 20-query workload on the native engine -----------------------------

class NativeWorkloadTest : public ::testing::TestWithParam<DbClass> {
 protected:
  static constexpr uint64_t kBytes = 128 * 1024;

  void SetUp() override {
    datagen::GenConfig config;
    config.target_bytes = kBytes;
    config.seed = 42;
    db_ = datagen::Generate(GetParam(), config);
    engine_ = std::make_unique<engines::NativeEngine>();
    ASSERT_TRUE(
        engine_->BulkLoad(db_.db_class, ToLoadDocuments(db_)).ok());
    ASSERT_TRUE(CreateTable3Indexes(*engine_, db_.db_class).ok());
    params_ = DeriveParams(GetParam(), db_.seeds);
  }

  datagen::GeneratedDatabase db_;
  std::unique_ptr<engines::NativeEngine> engine_;
  QueryParams params_;
};

TEST_P(NativeWorkloadTest, EveryDefinedQueryExecutes) {
  for (QueryId id : AllQueries()) {
    if (XQueryFor(id, GetParam(), params_).empty()) continue;
    ExecutionResult result = RunQuery(*engine_, id, GetParam(), params_);
    EXPECT_TRUE(result.status.ok())
        << QueryName(id) << ": " << result.status.ToString();
  }
}

TEST_P(NativeWorkloadTest, TargetedQueriesReturnResults) {
  // Queries anchored at a known id/headword must return exactly the
  // expected cardinality.
  switch (GetParam()) {
    case DbClass::kDcSd: {
      auto q1 = RunQuery(*engine_, QueryId::kQ1, GetParam(), params_);
      ASSERT_TRUE(q1.status.ok());
      EXPECT_EQ(q1.lines.size(), 1u);  // one item matches the id
      auto q5 = RunQuery(*engine_, QueryId::kQ5, GetParam(), params_);
      EXPECT_EQ(q5.lines.size(), 1u);
      auto q20 = RunQuery(*engine_, QueryId::kQ20, GetParam(), params_);
      EXPECT_GT(q20.lines.size(), 0u);  // size threshold selects ~half
      EXPECT_LT(q20.lines.size(),
                static_cast<size_t>(db_.seeds.item_count));
      break;
    }
    case DbClass::kDcMd: {
      auto q16 = RunQuery(*engine_, QueryId::kQ16, GetParam(), params_);
      ASSERT_TRUE(q16.status.ok());
      ASSERT_EQ(q16.lines.size(), 1u);
      EXPECT_NE(q16.lines[0].find("<order id=\"" + params_.order_id + "\">"),
                std::string::npos);
      auto q9 = RunQuery(*engine_, QueryId::kQ9, GetParam(), params_);
      ASSERT_EQ(q9.lines.size(), 1u);  // one status per order
      auto q19 = RunQuery(*engine_, QueryId::kQ19, GetParam(), params_);
      EXPECT_EQ(q19.lines.size(), 1u);  // join finds the customer
      break;
    }
    case DbClass::kTcSd: {
      auto q8 = RunQuery(*engine_, QueryId::kQ8, GetParam(), params_);
      ASSERT_TRUE(q8.status.ok());
      auto q3 = RunQuery(*engine_, QueryId::kQ3, GetParam(), params_);
      ASSERT_TRUE(q3.status.ok());
      EXPECT_GT(q3.lines.size(), 1u);  // several qloc groups
      break;
    }
    case DbClass::kTcMd: {
      auto q2 = RunQuery(*engine_, QueryId::kQ2, GetParam(), params_);
      ASSERT_TRUE(q2.status.ok());
      EXPECT_GE(q2.lines.size(),
                static_cast<size_t>(db_.seeds.article_count /
                                    datagen::kWellKnownAuthorStride));
      auto q13 = RunQuery(*engine_, QueryId::kQ13, GetParam(), params_);
      ASSERT_EQ(q13.lines.size(), 1u);
      EXPECT_NE(q13.lines[0].find("<first_author>"), std::string::npos);
      break;
    }
  }
}

TEST_P(NativeWorkloadTest, ColdRunsAreRepeatable) {
  QueryId id = QueryId::kQ17;
  auto first = RunQuery(*engine_, id, GetParam(), params_);
  auto second = RunQuery(*engine_, id, GetParam(), params_);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.lines, second.lines);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, NativeWorkloadTest,
                         ::testing::Values(DbClass::kDcSd, DbClass::kDcMd,
                                           DbClass::kTcSd, DbClass::kTcMd),
                         [](const auto& info) {
                           std::string name =
                               datagen::DbClassName(info.param);
                           name.erase(name.find('/'), 1);
                           return name;
                         });

TEST(CanonicalizeTest, SortsValueSets) {
  // Trailing empties are trimmed, then value sets are sorted.
  auto lines = CanonicalizeAnswer(QueryId::kQ17, {"b", "a", ""});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  // Ordered shapes keep order.
  auto ordered = CanonicalizeAnswer(QueryId::kQ5, {"b", "a"});
  EXPECT_EQ(ordered[0], "b");
}

/// `xbench.xquery.nodes_visited` added by one cold native run of `id` over
/// the fixture database (160 KiB, seed 42, no secondary indexes, so the
/// plan walks the documents).
uint64_t NodesVisitedFor(DbClass cls, QueryId id) {
  datagen::GenConfig config;
  config.target_bytes = 160 * 1024;
  config.seed = 42;
  const datagen::GeneratedDatabase db = datagen::Generate(cls, config);
  auto engine = MakeEngine(engines::EngineKind::kNative);
  EXPECT_TRUE(BulkLoad(*engine, db).status.ok());
  const obs::Counter& visited =
      obs::MetricsRegistry::Default().GetCounter(obs::metric_names::kXqueryNodesVisited);
  const uint64_t before = visited.value();
  ExecutionResult result =
      RunQuery(*engine, id, cls, DeriveParams(cls, db.seeds));
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return visited.value() - before;
}

/// Pins the node-visit totals of a descendant walk with predicates
/// (DC/SD Q17), an interpreted filter over many documents followed by a
/// guided walk (TC/MD Q8) and a guided walk split across one large
/// document (TC/SD Q8), so batching the counter updates cannot change what
/// the counter reports.
TEST(NodesVisitedTest, TotalsArePinned) {
  EXPECT_EQ(NodesVisitedFor(DbClass::kDcSd, QueryId::kQ17), 1660u);
  EXPECT_EQ(NodesVisitedFor(DbClass::kTcMd, QueryId::kQ8), 8u);
  EXPECT_EQ(NodesVisitedFor(DbClass::kTcSd, QueryId::kQ8), 1578u);
}

}  // namespace
}  // namespace xbench::workload
