#include "relational/exec.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"

namespace xbench::relational {

RowSet SeqScan(Table& table, const RowPredicate& pred) {
  RowSet out;
  table.Scan([&](storage::RecordId, const Row& row) {
    if (!pred || pred(row)) out.push_back(row);
    return true;
  });
  return out;
}

RowSet IndexLookup(Table& table, const std::string& index_name,
                   const Key& key) {
  RowSet out;
  const BTreeIndex* index = table.FindIndex(index_name);
  if (index == nullptr) return out;
  for (storage::RecordId rid : index->Lookup(key)) {
    auto row = table.Fetch(rid);
    if (row.ok()) out.push_back(std::move(row).value());
  }
  return out;
}

RowSet IndexRange(Table& table, const std::string& index_name, const Key* lo,
                  const Key* hi) {
  RowSet out;
  const BTreeIndex* index = table.FindIndex(index_name);
  if (index == nullptr) return out;
  std::vector<storage::RecordId> rids;
  index->Range(lo, hi, [&rids](const Key&, storage::RecordId rid) {
    rids.push_back(rid);
    return true;
  });
  for (storage::RecordId rid : rids) {
    auto row = table.Fetch(rid);
    if (row.ok()) out.push_back(std::move(row).value());
  }
  return out;
}

void SortRows(RowSet& rows, const std::vector<SortSpec>& specs) {
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const SortSpec& spec : specs) {
      const Value& va = a[static_cast<size_t>(spec.column)];
      const Value& vb = b[static_cast<size_t>(spec.column)];
      const std::strong_ordering cmp = va.Compare(vb);
      if (cmp == std::strong_ordering::equal) continue;
      const bool less = cmp == std::strong_ordering::less;
      return spec.ascending ? less : !less;
    }
    return false;
  });
}

namespace {
/// Hash-join key whose equality matches Value::Compare: every number, int
/// or double, is keyed by the bytes of its double value (so Int(3) meets
/// Double(3.0) and doubles that differ in any bit stay apart), -0.0 is
/// folded into 0.0 because Compare calls them equal, and strings carry
/// their own tag so "3" never meets 3. Callers drop NULL keys before
/// probing.
std::string HashKeyOf(const Value& v) {
  if (v.type() == ValueType::kString) return StrCat({"s", v.AsString()});
  double number = v.AsDouble();
  if (number == 0.0) number = 0.0;
  char bytes[sizeof(number)];
  std::memcpy(bytes, &number, sizeof(number));
  return StrCat({"n", std::string_view(bytes, sizeof(bytes))});
}
}  // namespace

RowSet HashJoin(const RowSet& left, int left_key, const RowSet& right,
                int right_key) {
  std::unordered_map<std::string, std::vector<const Row*>> build;
  for (const Row& row : right) {
    const Value& key = row[static_cast<size_t>(right_key)];
    if (key.is_null()) continue;
    build[HashKeyOf(key)].push_back(&row);
  }
  RowSet out;
  for (const Row& row : left) {
    const Value& key = row[static_cast<size_t>(left_key)];
    if (key.is_null()) continue;
    auto it = build.find(HashKeyOf(key));
    if (it == build.end()) continue;
    for (const Row* match : it->second) {
      Row joined = row;
      joined.insert(joined.end(), match->begin(), match->end());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

RowSet LeftOuterHashJoin(const RowSet& left, int left_key, const RowSet& right,
                         int right_key, size_t right_arity) {
  std::unordered_map<std::string, std::vector<const Row*>> build;
  for (const Row& row : right) {
    const Value& key = row[static_cast<size_t>(right_key)];
    if (key.is_null()) continue;
    build[HashKeyOf(key)].push_back(&row);
  }
  RowSet out;
  for (const Row& row : left) {
    const Value& key = row[static_cast<size_t>(left_key)];
    auto it = key.is_null() ? build.end() : build.find(HashKeyOf(key));
    if (it == build.end()) {
      Row joined = row;
      joined.resize(joined.size() + right_arity, Value::Null());
      out.push_back(std::move(joined));
    } else {
      for (const Row* match : it->second) {
        Row joined = row;
        joined.insert(joined.end(), match->begin(), match->end());
        out.push_back(std::move(joined));
      }
    }
  }
  return out;
}

RowSet GroupCount(const RowSet& rows, int key_column) {
  std::map<Value, int64_t> groups;
  for (const Row& row : rows) {
    ++groups[row[static_cast<size_t>(key_column)]];
  }
  RowSet out;
  for (const auto& [key, count] : groups) {
    out.push_back({key, Value::Int(count)});
  }
  return out;
}

RowSet Project(const RowSet& rows, const std::vector<int>& columns) {
  RowSet out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    Row projected;
    projected.reserve(columns.size());
    for (int c : columns) projected.push_back(row[static_cast<size_t>(c)]);
    out.push_back(std::move(projected));
  }
  return out;
}

RowSet Distinct(const RowSet& rows) {
  std::set<std::string> seen;
  RowSet out;
  for (const Row& row : rows) {
    if (seen.insert(EncodeRow(row)).second) out.push_back(row);
  }
  return out;
}

}  // namespace xbench::relational
