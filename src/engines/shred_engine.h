#ifndef XBENCH_ENGINES_SHRED_ENGINE_H_
#define XBENCH_ENGINES_SHRED_ENGINE_H_

#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "engines/dad.h"
#include "engines/dbms.h"
#include "relational/table.h"

namespace xbench::engines {

/// Shredding relational engine with two flavors:
///
/// * DB2 "Xcollection": keeps no document order, maps mixed content by
///   concatenating text, and inherits XML Extender's 1024-row
///   decomposition limit — single huge documents must be pre-split into
///   fragments, which is only practical for the small scale (the paper's
///   §3.1.3 problem 5; the "-" cells for TC/SD / DC/SD normal+large).
/// * SQL Server + SQLXML: no row limit, but mixed-content elements load
///   as NULL (problem 3) and the bulk-load path pays a higher per-row
///   overhead (the consistently slower Table 4 column).
///
/// Both flavors auto-create primary/foreign-key indexes (row_id,
/// parent_row) at load time, as the paper notes relational systems do.
///
/// Thread safety: mutations take the collection lock exclusively inside
/// the engine. The query path is the free function RunShredQuery, which
/// only reads tables()/dad(); concurrent callers (workload::Session) hold
/// the collection lock shared around each statement.
class ShredEngine : public XmlDbms {
 public:
  explicit ShredEngine(EngineKind kind);

  EngineKind kind() const override { return kind_; }

  Status BulkLoad(datagen::DbClass db_class,
                  const std::vector<LoadDocument>& docs) override;

  Status CreateIndex(const IndexSpec& spec) override;

  /// Shreds one more document into the tables (indexes maintained).
  Status InsertDocument(const LoadDocument& doc) override;

  /// Deletes every row shredded from `name` — a scan per DAD table, the
  /// cost relational mappings pay for document-level deletion.
  Status DeleteDocument(const std::string& name) override;

  /// Caller holds the collection lock (shared suffices for reads).
  relational::Database& tables() XBENCH_REQUIRES_SHARED(collection_mu_) {
    return *database_;
  }
  const Dad& dad() const XBENCH_REQUIRES_SHARED(collection_mu_) {
    return dad_;
  }
  datagen::DbClass db_class() const XBENCH_REQUIRES_SHARED(collection_mu_) {
    return db_class_;
  }

  /// The flavor's document-order guarantee (false for both: the paper's
  /// problem 2 — plans relying on order are "not guaranteed correct").
  bool maintains_order() const { return false; }

 private:
  /// Shreds `docs` into the tables BulkLoad created, then builds their
  /// key indexes.
  Status ShredLocked(const std::vector<LoadDocument>& docs)
      XBENCH_REQUIRES(collection_mu_);

  EngineKind kind_;
  std::unique_ptr<relational::Database> database_
      XBENCH_PT_GUARDED_BY(collection_mu_);
  Dad dad_ XBENCH_GUARDED_BY(collection_mu_);
  datagen::DbClass db_class_ XBENCH_GUARDED_BY(collection_mu_) =
      datagen::DbClass::kDcSd;
  int64_t next_row_id_ XBENCH_GUARDED_BY(collection_mu_) = 0;
};

/// DB2's per-document decomposition row cap and the largest number of
/// pre-split fragments the paper's methodology tolerated.
inline constexpr int64_t kDb2RowLimit = 1024;
inline constexpr int64_t kDb2MaxFragments = 2;

/// Extra virtual I/O charged per shredded row by the SQLXML bulk-load
/// path (middleware overhead).
inline constexpr uint64_t kMsSqlRowOverheadMicros = 25;

}  // namespace xbench::engines

#endif  // XBENCH_ENGINES_SHRED_ENGINE_H_
