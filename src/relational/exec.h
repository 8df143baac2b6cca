#ifndef XBENCH_RELATIONAL_EXEC_H_
#define XBENCH_RELATIONAL_EXEC_H_

#include <functional>
#include <string>
#include <vector>

#include "relational/table.h"

namespace xbench::relational {

/// Materialized intermediate result used by the hand-written physical plans
/// (the paper translated the XQuery workload to SQL by hand; we translate
/// it to these primitives by hand, which is the equivalent step).
using RowSet = std::vector<Row>;

/// Predicate over a row.
using RowPredicate = std::function<bool(const Row&)>;

/// Full table scan with optional filter.
RowSet SeqScan(Table& table, const RowPredicate& pred = nullptr);

/// Point lookup via a named index: all rows whose key equals `key`.
RowSet IndexLookup(Table& table, const std::string& index_name,
                   const Key& key);

/// Range scan via a named index (bounds inclusive; nullptr = unbounded).
RowSet IndexRange(Table& table, const std::string& index_name, const Key* lo,
                  const Key* hi);

/// One sort criterion, compared with Value::Compare.
struct SortSpec {
  int column = 0;
  bool ascending = true;
};

void SortRows(RowSet& rows, const std::vector<SortSpec>& specs);

/// Hash join on single-column equality; emits left ++ right concatenated.
/// Null keys never join (SQL semantics).
RowSet HashJoin(const RowSet& left, int left_key, const RowSet& right,
                int right_key);

/// Left outer hash join; unmatched left rows are padded with NULLs.
RowSet LeftOuterHashJoin(const RowSet& left, int left_key, const RowSet& right,
                         int right_key, size_t right_arity);

/// GROUP BY `key_column` with COUNT(*): emits (key, count) rows sorted by
/// key.
RowSet GroupCount(const RowSet& rows, int key_column);

/// Projects the given columns, in order.
RowSet Project(const RowSet& rows, const std::vector<int>& columns);

/// Removes exact duplicate rows (preserving first occurrence order).
RowSet Distinct(const RowSet& rows);

}  // namespace xbench::relational

#endif  // XBENCH_RELATIONAL_EXEC_H_
