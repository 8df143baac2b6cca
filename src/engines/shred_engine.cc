#include "engines/shred_engine.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "engines/shredder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/parser.h"

namespace xbench::engines {

ShredEngine::ShredEngine(EngineKind kind) : kind_(kind) {
  database_ = std::make_unique<relational::Database>(*disk_, *pool_);
}

Status ShredEngine::BulkLoad(datagen::DbClass db_class,
                             const std::vector<LoadDocument>& docs) {
  WriterLock lock(collection_mu_);
  Dad dad = ShredDadFor(db_class);
  XBENCH_RETURN_IF_ERROR(CreateDadTables(dad, *database_));
  // All or nothing: a failed load drops the tables it created.
  const Dad previous_dad = std::exchange(dad_, std::move(dad));
  const datagen::DbClass previous_class = std::exchange(db_class_, db_class);
  const int64_t first_row_id = next_row_id_;
  const Status status = ShredLocked(docs);
  if (!status.ok()) {
    DropDadTables(dad_, *database_);
    dad_ = previous_dad;
    db_class_ = previous_class;
    next_row_id_ = first_row_id;
  }
  return status;
}

Status ShredEngine::ShredLocked(const std::vector<LoadDocument>& docs) {
  obs::ScopedClockSource clock_scope(disk_->clock());
  obs::ScopedSpan load_span("shred.bulkload");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::Counter& docs_loaded = metrics.GetCounter("xbench.engine.docs_loaded");
  obs::Counter& rows_shredded =
      metrics.GetCounter("xbench.engine.rows_shredded");
  ShredOptions options;
  options.keep_seq = false;  // neither flavor maintains document order
  options.drop_mixed_content = kind_ == EngineKind::kShredMsSql;

  int64_t rows_loaded = 0;
  for (const LoadDocument& doc : docs) {
    obs::ScopedSpan doc_span("load.doc");
    {
      obs::ScopedSpan commit_span("commit");
      disk_->clock().AdvanceMicros(kPerDocumentIngestMicros);
    }
    auto parsed = [&] {
      obs::ScopedSpan parse_span("parse");
      return xml::Parse(doc.text, doc.name);
    }();
    if (!parsed.ok()) return parsed.status();
    std::map<std::string, int64_t> rows_per_table;
    {
      obs::ScopedSpan shred_span("shred");
      XBENCH_RETURN_IF_ERROR(ShredDocument(*parsed->root(), doc.name, dad_,
                                           options, *database_, next_row_id_,
                                           &rows_per_table));
    }
    docs_loaded.Increment();
    int64_t doc_rows = 0;
    if (kind_ == EngineKind::kShredDb2) {
      // XML Extender caps a decomposed document at kDb2RowLimit rows per
      // table; bigger documents must be pre-split into fragments, and
      // beyond kDb2MaxFragments fragments that workaround is impractical
      // (the paper stopped at the small scale for the SD classes).
      int64_t max_rows = 0;
      for (const auto& [table, rows] : rows_per_table) {
        max_rows = std::max(max_rows, rows);
        doc_rows += rows;
      }
      const int64_t fragments = (max_rows + kDb2RowLimit - 1) / kDb2RowLimit;
      if (fragments > kDb2MaxFragments) {
        return Status::Unsupported(
            "document '" + doc.name + "' decomposes into " +
            std::to_string(max_rows) + " rows; splitting into " +
            std::to_string(fragments) + " fragments is impractical");
      }
    } else {
      for (const auto& [table, rows] : rows_per_table) doc_rows += rows;
      // SQLXML middleware overhead per shredded row.
      disk_->clock().AdvanceMicros(
          static_cast<uint64_t>(doc_rows) * kMsSqlRowOverheadMicros);
    }
    rows_loaded += doc_rows;
    rows_shredded.Increment(static_cast<uint64_t>(doc_rows));
  }

  {
    // Relational systems build primary/foreign-key indexes during bulk load
    // (paper §3.2.1); row_id is the synthetic PK, parent_row the FK.
    obs::ScopedSpan index_span("shred.key_index_build");
    for (const TableMap& map : dad_.tables) {
      relational::Table* table = database_->FindTable(map.table);
      XBENCH_RETURN_IF_ERROR(table->CreateIndex(map.table + "_pk", {"row_id"}));
      XBENCH_RETURN_IF_ERROR(
          table->CreateIndex(map.table + "_fk", {"parent_row"}));
    }
  }
  {
    obs::ScopedSpan flush_span("flush");
    pool_->FlushAll();
  }
  return Status::Ok();
}

Status ShredEngine::InsertDocument(const LoadDocument& doc) {
  WriterLock lock(collection_mu_);
  disk_->clock().AdvanceMicros(kPerDocumentIngestMicros);
  auto parsed = xml::Parse(doc.text, doc.name);
  if (!parsed.ok()) return parsed.status();
  ShredOptions options;
  options.keep_seq = false;
  options.drop_mixed_content = kind_ == EngineKind::kShredMsSql;
  std::map<std::string, int64_t> rows_per_table;
  XBENCH_RETURN_IF_ERROR(ShredDocument(*parsed->root(), doc.name, dad_,
                                       options, *database_, next_row_id_,
                                       &rows_per_table));
  if (kind_ == EngineKind::kShredDb2) {
    for (const auto& [table, rows] : rows_per_table) {
      if (rows > kDb2RowLimit * kDb2MaxFragments) {
        return Status::Unsupported("document '" + doc.name +
                                   "' exceeds the decomposition row limit");
      }
    }
  }
  return Status::Ok();
}

Status ShredEngine::DeleteDocument(const std::string& name) {
  WriterLock lock(collection_mu_);
  bool found = false;
  for (const TableMap& map : dad_.tables) {
    relational::Table* table = database_->FindTable(map.table);
    if (table == nullptr) continue;
    std::vector<storage::RecordId> victims;
    table->Scan([&](storage::RecordId rid, const relational::Row& row) {
      if (row[kColDoc].ToText() == name) victims.push_back(rid);
      return true;
    });
    for (storage::RecordId rid : victims) {
      XBENCH_RETURN_IF_ERROR(table->Delete(rid));
      found = true;
    }
  }
  if (!found) return Status::NotFound("document '" + name + "'");
  return Status::Ok();
}

Status ShredEngine::CreateIndex(const IndexSpec& spec) {
  if (spec.kind != IndexKind::kValue) {
    return Status::Unsupported(std::string(IndexKindName(spec.kind)) +
                               " indexes are native-engine only");
  }
  WriterLock lock(collection_mu_);
  obs::ScopedClockSource clock_scope(disk_->clock());
  obs::ScopedSpan span("shred.index_build");
  XBENCH_ASSIGN_OR_RETURN(auto target, ResolveIndexPath(dad_, spec.path));
  relational::Table* table = database_->FindTable(target.first);
  if (table == nullptr) {
    return Status::NotFound("table '" + target.first + "'");
  }
  return table->CreateIndex(spec.name, {target.second});
}

}  // namespace xbench::engines
