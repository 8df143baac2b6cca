#ifndef XBENCH_ENGINES_SHREDDER_H_
#define XBENCH_ENGINES_SHREDDER_H_

#include <map>
#include <string>

#include "common/status.h"
#include "engines/dad.h"
#include "relational/table.h"
#include "xml/node.h"

namespace xbench::engines {

struct ShredOptions {
  /// Fill the seq column (dxx_seqno). DB2 Xcolumn side tables keep it;
  /// Xcollection and SQL Server do not maintain document order
  /// (paper §3.1.3 problem 2), so they leave it NULL.
  bool keep_seq = false;
  /// SQL Server cannot map mixed-content elements; their columns load as
  /// NULL (paper §3.1.3 problem 3).
  bool drop_mixed_content = false;
};

/// Creates the tables declared by `dad` (implicit columns + mapped
/// columns) in `db`.
Status CreateDadTables(const Dad& dad, relational::Database& db);

/// Drops the tables declared by `dad` from `db` (the undo of a failed bulk
/// load, which created them).
void DropDadTables(const Dad& dad, relational::Database& db);

/// Column index bases within a DAD table row.
inline constexpr int kColDoc = 0;
inline constexpr int kColRowId = 1;
inline constexpr int kColParentTable = 2;
inline constexpr int kColParentRow = 3;
inline constexpr int kColSeq = 4;
inline constexpr int kColFirstMapped = 5;

/// Shreds one document into the DAD tables.
///
/// `next_row_id` is the database-wide synthetic id counter (the added-id
/// fix for chain relationships). `rows_per_table` receives the number of
/// rows this document produced in each table — DB2's 1024-row
/// decomposition limit is enforced by the caller against these counts.
Status ShredDocument(const xml::Node& root, const std::string& doc_name,
                     const Dad& dad, const ShredOptions& options,
                     relational::Database& db, int64_t& next_row_id,
                     std::map<std::string, int64_t>* rows_per_table);

/// Extracts a relative-path value from an element ("." / "@a" /
/// "b/c/@d" / "b/c"). Returns (found, text).
std::pair<bool, std::string> ExtractRelPath(const xml::Node& element,
                                            const std::string& rel_path);

}  // namespace xbench::engines

#endif  // XBENCH_ENGINES_SHREDDER_H_
