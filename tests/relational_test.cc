#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "relational/btree.h"
#include "relational/exec.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"

namespace xbench::relational {
namespace {

// --- Value -------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble(), 3.0);  // numeric widening
}

TEST(ValueTest, CompareOrdersNullNumericString) {
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::String("0"));
  EXPECT_LT(Value::Int(2), Value::Int(3));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));  // cross-numeric equality
}

TEST(ValueTest, SqlEqualsNullNeverMatches) {
  EXPECT_FALSE(Value::SqlEquals(Value::Null(), Value::Null()));
  EXPECT_FALSE(Value::SqlEquals(Value::Null(), Value::Int(1)));
  EXPECT_TRUE(Value::SqlEquals(Value::Int(1), Value::Int(1)));
}

TEST(ValueTest, ToText) {
  EXPECT_EQ(Value::Null().ToText(), "");
  EXPECT_EQ(Value::Int(42).ToText(), "42");
  EXPECT_EQ(Value::Double(2.5).ToText(), "2.5");
  EXPECT_EQ(Value::Double(3.0).ToText(), "3");
  EXPECT_EQ(Value::String("hi").ToText(), "hi");
}

// --- Schema / row codec -------------------------------------------------------

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt},
                 {"name", ValueType::kString},
                 {"price", ValueType::kDouble}});
}

TEST(SchemaTest, ValidateChecksArityAndTypes) {
  Schema schema = TestSchema();
  EXPECT_TRUE(schema
                  .Validate({Value::Int(1), Value::String("a"),
                             Value::Double(1.0)})
                  .ok());
  EXPECT_TRUE(schema.Validate({Value::Null(), Value::Null(), Value::Null()})
                  .ok());  // NULLs match any column
  EXPECT_TRUE(schema
                  .Validate({Value::Int(1), Value::String("a"), Value::Int(2)})
                  .ok());  // int accepted in double column
  EXPECT_FALSE(schema.Validate({Value::Int(1)}).ok());
  EXPECT_FALSE(schema
                   .Validate({Value::String("x"), Value::String("a"),
                              Value::Double(1.0)})
                   .ok());
}

TEST(SchemaTest, IndexOf) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.IndexOf("name"), 1);
  EXPECT_EQ(schema.IndexOf("missing"), -1);
}

TEST(RowCodecTest, RoundTripsAllTypes) {
  Row row{Value::Int(-5), Value::String("hello \xE2\x82\xAC"),
          Value::Double(3.25), Value::Null()};
  auto decoded = DecodeRow(EncodeRow(row));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), row.size());
  EXPECT_EQ((*decoded)[0], row[0]);
  EXPECT_EQ((*decoded)[1], row[1]);
  EXPECT_EQ((*decoded)[2], row[2]);
  EXPECT_TRUE((*decoded)[3].is_null());
}

TEST(RowCodecTest, RejectsTruncatedPayload) {
  Row row{Value::String("abcdef")};
  std::string payload = EncodeRow(row);
  payload.resize(payload.size() - 3);
  EXPECT_FALSE(DecodeRow(payload).ok());
}

// --- BTree ----------------------------------------------------------------------

TEST(BTreeTest, InsertAndLookup) {
  VirtualClock clock;
  BTreeIndex tree(clock);
  for (int i = 0; i < 500; ++i) {
    tree.Insert({Value::Int(i % 100)}, static_cast<storage::RecordId>(i));
  }
  EXPECT_EQ(tree.entry_count(), 500u);
  auto rids = tree.Lookup({Value::Int(37)});
  ASSERT_EQ(rids.size(), 5u);
  // Duplicates preserve insertion order.
  EXPECT_EQ(rids[0], 37u);
  EXPECT_EQ(rids[4], 437u);
  EXPECT_TRUE(tree.Lookup({Value::Int(1000)}).empty());
}

TEST(BTreeTest, SplitsGrowHeight) {
  VirtualClock clock;
  BTreeIndex tree(clock);
  for (int i = 0; i < 5000; ++i) {
    tree.Insert({Value::Int(i)}, static_cast<storage::RecordId>(i));
  }
  EXPECT_GE(tree.height(), 2);
  for (int i : {0, 1, 2500, 4999}) {
    auto rids = tree.Lookup({Value::Int(i)});
    ASSERT_EQ(rids.size(), 1u) << i;
    EXPECT_EQ(rids[0], static_cast<storage::RecordId>(i));
  }
}

TEST(BTreeTest, RangeScanInKeyOrder) {
  VirtualClock clock;
  BTreeIndex tree(clock);
  // Insert in reverse to exercise sorting.
  for (int i = 999; i >= 0; --i) {
    tree.Insert({Value::Int(i)}, static_cast<storage::RecordId>(i));
  }
  Key lo{Value::Int(100)};
  Key hi{Value::Int(110)};
  std::vector<int64_t> seen;
  tree.Range(&lo, &hi, [&](const Key& key, storage::RecordId) {
    seen.push_back(key[0].AsInt());
    return true;
  });
  ASSERT_EQ(seen.size(), 11u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), 100);
  EXPECT_EQ(seen.back(), 110);
}

TEST(BTreeTest, UnboundedRangeVisitsAll) {
  VirtualClock clock;
  BTreeIndex tree(clock);
  for (int i = 0; i < 300; ++i) {
    tree.Insert({Value::String(StrCat({"k", std::to_string(i)}))}, i);
  }
  size_t count = 0;
  tree.Range(nullptr, nullptr, [&](const Key&, storage::RecordId) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 300u);
}

TEST(BTreeTest, LookupsChargeClock) {
  VirtualClock clock;
  BTreeIndex tree(clock);
  for (int i = 0; i < 2000; ++i) tree.Insert({Value::Int(i)}, i);
  const uint64_t before = clock.ElapsedMicros();
  tree.Lookup({Value::Int(1234)});
  EXPECT_GT(clock.ElapsedMicros(), before);
}

TEST(BTreeTest, CompositeKeys) {
  VirtualClock clock;
  BTreeIndex tree(clock);
  tree.Insert({Value::String("a"), Value::Int(1)}, 1);
  tree.Insert({Value::String("a"), Value::Int(2)}, 2);
  tree.Insert({Value::String("b"), Value::Int(1)}, 3);
  EXPECT_EQ(tree.Lookup({Value::String("a"), Value::Int(2)}).size(), 1u);
  EXPECT_EQ(tree.Lookup({Value::String("a"), Value::Int(3)}).size(), 0u);
}

// --- Table / Database -------------------------------------------------------------

struct TableFixture : public ::testing::Test {
  TableFixture() : pool(disk, 64), db(disk, pool) {}

  storage::SimulatedDisk disk;
  storage::BufferPool pool;
  Database db;
};

TEST_F(TableFixture, InsertFetchScan) {
  Table* table = *db.CreateTable("t", TestSchema());
  auto rid1 = table->Insert({Value::Int(1), Value::String("a"), Value::Double(1.5)});
  ASSERT_TRUE(rid1.ok());
  auto rid2 = table->Insert({Value::Int(2), Value::String("b"), Value::Double(2.5)});
  ASSERT_TRUE(rid2.ok());

  auto row = table->Fetch(*rid2);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "b");

  int count = 0;
  table->Scan([&](storage::RecordId, const Row&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(table->row_count(), 2u);
}

TEST_F(TableFixture, InsertValidates) {
  Table* table = *db.CreateTable("t", TestSchema());
  EXPECT_FALSE(table->Insert({Value::Int(1)}).ok());
}

TEST_F(TableFixture, IndexMaintainedOnInsert) {
  Table* table = *db.CreateTable("t", TestSchema());
  ASSERT_TRUE(table->CreateIndex("by_name", {"name"}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table
                    ->Insert({Value::Int(i),
                              Value::String(
                                  StrCat({"n", std::to_string(i % 10)})),
                              Value::Double(0)})
                    .ok());
  }
  RowSet rows = IndexLookup(*table, "by_name", {Value::String("n3")});
  EXPECT_EQ(rows.size(), 5u);
  for (const Row& row : rows) EXPECT_EQ(row[1].AsString(), "n3");
}

TEST_F(TableFixture, CreateIndexBackfillsExistingRows) {
  Table* table = *db.CreateTable("t", TestSchema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        table->Insert({Value::Int(i), Value::String("x"), Value::Double(0)})
            .ok());
  }
  ASSERT_TRUE(table->CreateIndex("by_id", {"id"}).ok());
  EXPECT_EQ(IndexLookup(*table, "by_id", {Value::Int(7)}).size(), 1u);
}

TEST_F(TableFixture, DuplicateTableAndIndexRejected) {
  ASSERT_TRUE(db.CreateTable("t", TestSchema()).ok());
  EXPECT_FALSE(db.CreateTable("t", TestSchema()).ok());
  Table* table = db.FindTable("t");
  ASSERT_TRUE(table->CreateIndex("i", {"id"}).ok());
  EXPECT_FALSE(table->CreateIndex("i", {"id"}).ok());
  EXPECT_FALSE(table->CreateIndex("j", {"nope"}).ok());
}

// --- exec helpers ---------------------------------------------------------------

TEST_F(TableFixture, SeqScanWithPredicate) {
  Table* table = *db.CreateTable("t", TestSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    ->Insert({Value::Int(i), Value::String("r"),
                              Value::Double(i * 1.0)})
                    .ok());
  }
  RowSet rows = SeqScan(*table, [](const Row& row) {
    return row[0].AsInt() % 2 == 0;
  });
  EXPECT_EQ(rows.size(), 5u);
}

TEST(ExecTest, SortRowsMultiKey) {
  RowSet rows{{Value::String("b"), Value::Int(1)},
              {Value::String("a"), Value::Int(2)},
              {Value::String("a"), Value::Int(1)}};
  SortRows(rows, {{0, true}, {1, false}});
  EXPECT_EQ(rows[0][0].AsString(), "a");
  EXPECT_EQ(rows[0][1].AsInt(), 2);
  EXPECT_EQ(rows[1][1].AsInt(), 1);
  EXPECT_EQ(rows[2][0].AsString(), "b");
}

TEST(ExecTest, HashJoinMatchesAndSkipsNulls) {
  RowSet left{{Value::Int(1), Value::String("L1")},
              {Value::Int(2), Value::String("L2")},
              {Value::Null(), Value::String("LN")}};
  RowSet right{{Value::Int(2), Value::String("R2")},
               {Value::Int(2), Value::String("R2b")},
               {Value::Int(3), Value::String("R3")}};
  RowSet joined = HashJoin(left, 0, right, 0);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[0][1].AsString(), "L2");
  EXPECT_EQ(joined[0][3].AsString(), "R2");
}

TEST(ExecTest, LeftOuterJoinPadsNulls) {
  RowSet left{{Value::Int(1)}, {Value::Int(2)}};
  RowSet right{{Value::Int(2), Value::String("match")}};
  RowSet joined = LeftOuterHashJoin(left, 0, right, 0, 2);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_TRUE(joined[0][1].is_null());
  EXPECT_EQ(joined[1][2].AsString(), "match");
}

// Hash joins must pair exactly the keys Value::Compare calls equal:
// across int and double, never between a number and a string, never on a
// near-equal double, never on NULL; -0.0 meets 0.
TEST(ExecTest, HashJoinsAgreeWithCompareOnMixedKeys) {
  const std::vector<Value> keys = {
      Value::Int(3),      Value::Double(3.0), Value::Double(3.0000001),
      Value::String("3"), Value::Null(),      Value::Double(-0.0),
      Value::Int(0)};
  RowSet left;
  RowSet right;
  for (size_t i = 0; i < keys.size(); ++i) {
    left.push_back({keys[i], Value::Int(static_cast<int64_t>(i))});
    right.push_back({keys[i], Value::Int(static_cast<int64_t>(100 + i))});
  }
  auto equal_keys = [](const Value& a, const Value& b) {
    return !a.is_null() && !b.is_null() &&
           a.Compare(b) == std::strong_ordering::equal;
  };
  // (left id, right id) pairs; right id -1 = outer-join padding.
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;
  Pairs inner_expected;
  Pairs outer_expected;
  for (const Row& l : left) {
    bool matched = false;
    for (const Row& r : right) {
      if (!equal_keys(l[0], r[0])) continue;
      matched = true;
      inner_expected.emplace_back(l[1].AsInt(), r[1].AsInt());
      outer_expected.emplace_back(l[1].AsInt(), r[1].AsInt());
    }
    if (!matched) outer_expected.emplace_back(l[1].AsInt(), -1);
  }
  auto pairs_of = [](const RowSet& rows) {
    Pairs out;
    for (const Row& row : rows) {
      out.emplace_back(row[1].AsInt(), row[3].is_null() ? -1 : row[3].AsInt());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::sort(inner_expected.begin(), inner_expected.end());
  std::sort(outer_expected.begin(), outer_expected.end());
  EXPECT_EQ(pairs_of(HashJoin(left, 0, right, 0)), inner_expected);
  EXPECT_EQ(pairs_of(LeftOuterHashJoin(left, 0, right, 0, 2)), outer_expected);
}

TEST(ExecTest, GroupCountAndDistinct) {
  RowSet rows{{Value::String("x")}, {Value::String("y")}, {Value::String("x")}};
  RowSet groups = GroupCount(rows, 0);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0][0].AsString(), "x");
  EXPECT_EQ(groups[0][1].AsInt(), 2);

  RowSet unique = Distinct(rows);
  EXPECT_EQ(unique.size(), 2u);
}

TEST(ExecTest, Project) {
  RowSet rows{{Value::Int(1), Value::String("a"), Value::Double(2.0)}};
  RowSet projected = Project(rows, {2, 0});
  ASSERT_EQ(projected.size(), 1u);
  ASSERT_EQ(projected[0].size(), 2u);
  EXPECT_DOUBLE_EQ(projected[0][0].AsDouble(), 2.0);
  EXPECT_EQ(projected[0][1].AsInt(), 1);
}

}  // namespace
}  // namespace xbench::relational
