// Property-style suites: invariants checked across generated databases,
// random operation sequences, and engine configurations, parameterized
// with TEST_P sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
#include "common/strings.h"
#include "datagen/generator.h"
#include "engines/native_engine.h"
#include "engines/shred_engine.h"
#include "relational/btree.h"
#include "storage/heap_file.h"
#include "workload/classes.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "xml/parser.h"
#include "xquery/parser.h"
#include "xml/serializer.h"

namespace xbench {
namespace {

using datagen::DbClass;

std::string ClassSeedName(DbClass cls, uint64_t seed) {
  std::string name = datagen::DbClassName(cls);
  name.erase(name.find('/'), 1);
  return name + "_seed" + std::to_string(seed);
}

// --- Round-trip: serialize(parse(text)) == text for every generated doc --

class RoundTripProperty
    : public ::testing::TestWithParam<std::tuple<DbClass, uint64_t>> {};

TEST_P(RoundTripProperty, SerializeParseIsIdentity) {
  const auto [cls, seed] = GetParam();
  datagen::GenConfig config;
  config.target_bytes = 48 * 1024;
  config.seed = seed;
  datagen::GeneratedDatabase db = datagen::Generate(cls, config);
  for (const datagen::GeneratedDocument& doc : db.documents) {
    auto reparsed = xml::Parse(doc.text, doc.name);
    ASSERT_TRUE(reparsed.ok()) << doc.name << ": "
                               << reparsed.status().ToString();
    EXPECT_EQ(xml::Serialize(*reparsed), doc.text) << doc.name;
  }
}

TEST_P(RoundTripProperty, DocumentOrderIdsAreStrictPreorder) {
  const auto [cls, seed] = GetParam();
  datagen::GenConfig config;
  config.target_bytes = 32 * 1024;
  config.seed = seed;
  datagen::GeneratedDatabase db = datagen::Generate(cls, config);
  for (const datagen::GeneratedDocument& doc : db.documents) {
    auto parsed = xml::Parse(doc.text, doc.name);
    ASSERT_TRUE(parsed.ok()) << doc.name;
    uint32_t expected = 1;
    bool ok = true;
    parsed->root()->Visit([&](const xml::Node& node) {
      if (node.order() != expected++) ok = false;
    });
    EXPECT_TRUE(ok) << doc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTripProperty,
    ::testing::Combine(::testing::Values(DbClass::kTcSd, DbClass::kTcMd,
                                         DbClass::kDcSd, DbClass::kDcMd),
                       ::testing::Values(1u, 7u, 42u)),
    [](const auto& info) {
      return ClassSeedName(std::get<0>(info.param), std::get<1>(info.param));
    });

// --- Native engine: indexed access must not change answers ----------------

class IndexEquivalenceProperty : public ::testing::TestWithParam<DbClass> {};

TEST_P(IndexEquivalenceProperty, IndexedAndScanAnswersAgree) {
  const DbClass cls = GetParam();
  datagen::GenConfig config;
  config.target_bytes = 96 * 1024;
  config.seed = 42;
  datagen::GeneratedDatabase db = datagen::Generate(cls, config);
  const workload::QueryParams params =
      workload::DeriveParams(cls, db.seeds);

  auto scan_engine = std::make_unique<engines::NativeEngine>();
  ASSERT_TRUE(
      scan_engine->BulkLoad(cls, workload::ToLoadDocuments(db)).ok());

  auto indexed_engine = std::make_unique<engines::NativeEngine>();
  ASSERT_TRUE(
      indexed_engine->BulkLoad(cls, workload::ToLoadDocuments(db)).ok());
  ASSERT_TRUE(workload::CreateTable3Indexes(*indexed_engine, cls).ok());

  for (workload::QueryId id : workload::BenchmarkSubset()) {
    auto scan = workload::RunQuery(*scan_engine, id, cls, params);
    auto indexed = workload::RunQuery(*indexed_engine, id, cls, params);
    ASSERT_TRUE(scan.status.ok()) << workload::QueryName(id);
    ASSERT_TRUE(indexed.status.ok()) << workload::QueryName(id);
    EXPECT_EQ(workload::CanonicalizeAnswer(id, scan.lines),
              workload::CanonicalizeAnswer(id, indexed.lines))
        << workload::QueryName(id);
  }
}

TEST_P(IndexEquivalenceProperty, ShredFlavorsAgreeOnRowCounts) {
  const DbClass cls = GetParam();
  datagen::GenConfig config;
  config.target_bytes = 64 * 1024;
  config.seed = 42;
  datagen::GeneratedDatabase db = datagen::Generate(cls, config);

  engines::ShredEngine db2(engines::EngineKind::kShredDb2);
  engines::ShredEngine mssql(engines::EngineKind::kShredMsSql);
  ASSERT_TRUE(db2.BulkLoad(cls, workload::ToLoadDocuments(db)).ok());
  ASSERT_TRUE(mssql.BulkLoad(cls, workload::ToLoadDocuments(db)).ok());

  // Identical table population regardless of flavor (content differs only
  // in mixed-content columns).
  for (const std::string& table : db2.tables().TableNames()) {
    ASSERT_NE(mssql.tables().FindTable(table), nullptr) << table;
    EXPECT_EQ(db2.tables().FindTable(table)->row_count(),
              mssql.tables().FindTable(table)->row_count())
        << table;
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, IndexEquivalenceProperty,
                         ::testing::Values(DbClass::kTcSd, DbClass::kTcMd,
                                           DbClass::kDcSd, DbClass::kDcMd),
                         [](const auto& info) {
                           return ClassSeedName(info.param, 42);
                         });

// --- B+-tree vs reference model under random operations -------------------

class BTreeModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeModelProperty, MatchesMultimapReference) {
  Rng rng(GetParam());
  VirtualClock clock;
  relational::BTreeIndex tree(clock);
  std::multimap<int64_t, storage::RecordId> reference;

  for (int step = 0; step < 4000; ++step) {
    const int64_t key = rng.NextInt(0, 200);
    const double action = rng.NextDouble();
    if (action < 0.6) {
      const auto rid = static_cast<storage::RecordId>(step);
      tree.Insert({relational::Value::Int(key)}, rid);
      reference.emplace(key, rid);
    } else if (action < 0.8) {
      // Erase one arbitrary entry with this key, if any.
      auto it = reference.find(key);
      const bool expect = it != reference.end();
      const storage::RecordId rid = expect ? it->second : 0;
      EXPECT_EQ(tree.Erase({relational::Value::Int(key)}, rid), expect);
      if (expect) reference.erase(it);
    } else {
      auto rids = tree.Lookup({relational::Value::Int(key)});
      EXPECT_EQ(rids.size(), reference.count(key)) << "key=" << key;
    }
  }
  EXPECT_EQ(tree.entry_count(), reference.size());

  // Full range scan visits exactly the reference contents in key order.
  std::vector<int64_t> keys;
  tree.Range(nullptr, nullptr,
             [&](const relational::Key& key, storage::RecordId) {
               keys.push_back(key[0].AsInt());
               return true;
             });
  EXPECT_EQ(keys.size(), reference.size());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// --- Heap file round-trips for random record sizes -------------------------

class HeapFileProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapFileProperty, RandomRecordsRoundTrip) {
  Rng rng(GetParam());
  storage::SimulatedDisk disk;
  storage::BufferPool pool(disk, 8);  // deliberately tiny: force eviction
  storage::HeapFile file(disk, pool);

  std::vector<std::pair<storage::RecordId, std::string>> expected;
  for (int i = 0; i < 100; ++i) {
    // Sizes span empty → multi-page.
    const auto size = static_cast<size_t>(rng.NextBounded(3 * 8192));
    std::string payload = rng.NextAlpha(static_cast<int>(size));
    expected.emplace_back(file.Append(payload), std::move(payload));
  }
  pool.ColdRestart();
  // Random-access reads.
  rng.Shuffle(expected);
  for (const auto& [rid, payload] : expected) {
    EXPECT_EQ(file.Read(rid), payload);
  }
  // Sequential scan sees every record once.
  size_t count = 0;
  file.Scan([&](storage::RecordId, std::string_view) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, expected.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFileProperty,
                         ::testing::Values(11u, 22u, 33u));

// --- Query-level invariants over generated data ----------------------------

TEST(WorkloadInvariants, Q3GroupCountsSumToEntriesWithLocations) {
  datagen::GenConfig config;
  config.target_bytes = 96 * 1024;
  config.seed = 42;
  auto db = datagen::Generate(DbClass::kTcSd, config);
  engines::NativeEngine engine;
  ASSERT_TRUE(
      engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());

  // Each group's count is positive and groups are distinct locations.
  auto q3 = engine.Query(
      R"(for $loc in distinct-values($input//qloc)
order by $loc
return <g><l>{$loc}</l><c>{count($input//entry[.//qloc = $loc])}</c></g>)");
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  auto entries_with_loc =
      engine.Query("count($input//entry[.//qloc])");
  ASSERT_TRUE(entries_with_loc.ok());
  // Sum of per-location counts >= entries with any location (an entry can
  // appear in several groups), and every group is non-empty.
  double sum = 0;
  for (const xquery::Item& item : q3->items) {
    const xml::Node* c = item.node->FirstChild("c");
    ASSERT_NE(c, nullptr);
    const double n = ParseDouble(c->TextContent());
    EXPECT_GT(n, 0);
    sum += n;
  }
  EXPECT_GE(sum, ParseDouble(
                     xquery::AtomizeToString(entries_with_loc->items[0])));
}

TEST(WorkloadInvariants, Q10ResultsSortedByShipType) {
  datagen::GenConfig config;
  config.target_bytes = 96 * 1024;
  config.seed = 42;
  auto db = datagen::Generate(DbClass::kDcMd, config);
  engines::NativeEngine engine;
  ASSERT_TRUE(
      engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);

  auto result = workload::RunQuery(engine, workload::QueryId::kQ10,
                                   db.db_class, params);
  ASSERT_TRUE(result.status.ok());
  ASSERT_GT(result.lines.size(), 3u);
  std::vector<std::string> ship_types;
  for (const std::string& line : result.lines) {
    const size_t pos = line.find("<ship>");
    ASSERT_NE(pos, std::string::npos) << line;
    const size_t end = line.find("</ship>");
    ship_types.push_back(line.substr(pos + 6, end - pos - 6));
  }
  EXPECT_TRUE(std::is_sorted(ship_types.begin(), ship_types.end()));
}

TEST(WorkloadInvariants, Q11ResultsSortedByDate) {
  datagen::GenConfig config;
  config.target_bytes = 96 * 1024;
  config.seed = 42;
  auto db = datagen::Generate(DbClass::kTcSd, config);
  engines::NativeEngine engine;
  ASSERT_TRUE(
      engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());

  // Pick an entry known to have several quotations: scan for one.
  auto probe = engine.Query(
      "for $e in $input//entry where count($e//q) >= 2 return data($e/hw)");
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe->items.empty());
  workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);
  params.headword = xquery::AtomizeToString(probe->items[0]);

  auto result = workload::RunQuery(engine, workload::QueryId::kQ11,
                                   db.db_class, params);
  ASSERT_TRUE(result.status.ok());
  ASSERT_GE(result.lines.size(), 2u);
  std::vector<std::string> dates;
  for (const std::string& line : result.lines) {
    const size_t pos = line.find("<qd>");
    ASSERT_NE(pos, std::string::npos);
    dates.push_back(line.substr(pos + 4, 10));
  }
  EXPECT_TRUE(std::is_sorted(dates.begin(), dates.end()));
}

TEST(WorkloadInvariants, Q16ReturnsTheExactStoredDocument) {
  datagen::GenConfig config;
  config.target_bytes = 64 * 1024;
  config.seed = 42;
  auto db = datagen::Generate(DbClass::kDcMd, config);
  engines::NativeEngine engine;
  ASSERT_TRUE(
      engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);

  auto result = workload::RunQuery(engine, workload::QueryId::kQ16,
                                   db.db_class, params);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.lines.size(), 1u);
  // Must match the generated file byte for byte ("preserving the
  // contents of those documents", §2.2 Q16).
  const std::string expected_name = "order" + params.order_id.substr(1) +
                                    ".xml";
  for (const datagen::GeneratedDocument& doc : db.documents) {
    if (doc.name == expected_name) {
      EXPECT_EQ(result.lines[0], doc.text);
      return;
    }
  }
  FAIL() << "target order document not found: " << expected_name;
}

// --- Robustness: mutated inputs never crash, errors are clean ---------------

class MutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationProperty, XmlParserSurvivesMutations) {
  datagen::GenConfig config;
  config.target_bytes = 8 * 1024;
  config.seed = 42;
  auto db = datagen::Generate(DbClass::kTcMd, config);
  Rng rng(GetParam());
  const std::string& base = db.documents[0].text;

  for (int i = 0; i < 200; ++i) {
    std::string mutated = base;
    const int kind = static_cast<int>(rng.NextBounded(3));
    if (kind == 0 && !mutated.empty()) {
      // Truncate.
      mutated.resize(rng.NextBounded(mutated.size()));
    } else if (kind == 1 && !mutated.empty()) {
      // Flip a byte to a random printable character.
      mutated[rng.NextIndex(mutated.size())] =
          static_cast<char>('!' + rng.NextBounded(90));
    } else {
      // Splice a fragment of itself somewhere.
      const size_t at = rng.NextIndex(mutated.size() + 1);
      const size_t from = rng.NextIndex(mutated.size());
      mutated.insert(at, mutated.substr(from,
                                        rng.NextBounded(32)));
    }
    // Must return cleanly — success or a kCorruption error, never a crash
    // or a success with a broken tree.
    auto result = xml::Parse(mutated, "mutated.xml");
    if (result.ok()) {
      EXPECT_NE(result->root(), nullptr);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_P(MutationProperty, XQueryParserSurvivesMutations) {
  const std::string base =
      R"(for $a in $input where some $p in $a//p satisfies contains($p, "x")
order by $a/prolog/date descending
return <hit id="{$a/@id}">{data($a/prolog/title)}</hit>)";
  Rng rng(GetParam() ^ 0x9E37ull);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    const int kind = static_cast<int>(rng.NextBounded(2));
    if (kind == 0) {
      mutated.resize(rng.NextBounded(mutated.size()));
    } else {
      mutated[rng.NextIndex(mutated.size())] =
          static_cast<char>('!' + rng.NextBounded(90));
    }
    auto result = xquery::ParseQuery(mutated);  // must not crash
    if (result.ok()) {
      EXPECT_NE(*result, nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationProperty,
                         ::testing::Values(101u, 202u, 303u));

TEST(WorkloadInvariants, ColdRunsCostMoreIoThanWarmRuns) {
  datagen::GenConfig config;
  config.target_bytes = 128 * 1024;
  config.seed = 42;
  auto db = datagen::Generate(DbClass::kTcMd, config);
  engines::NativeEngine engine;
  ASSERT_TRUE(
      engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);

  workload::RunOptions cold_run;
  cold_run.cold = true;
  workload::RunOptions warm_run;
  warm_run.cold = false;
  auto cold = workload::RunQuery(engine, workload::QueryId::kQ17,
                                 db.db_class, params, cold_run);
  auto warm = workload::RunQuery(engine, workload::QueryId::kQ17,
                                 db.db_class, params, warm_run);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(workload::CanonicalizeAnswer(workload::QueryId::kQ17, cold.lines),
            workload::CanonicalizeAnswer(workload::QueryId::kQ17,
                                         warm.lines));
  EXPECT_LT(warm.io_millis, cold.io_millis)
      << "warm=" << warm.io_millis << " cold=" << cold.io_millis;
}

}  // namespace
}  // namespace xbench
