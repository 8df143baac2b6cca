#include "engines/clob_engine.h"

#include <utility>

#include "common/strings.h"
#include "engines/shredder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/parser.h"

namespace xbench::engines {

ClobEngine::ClobEngine(uint64_t max_document_bytes)
    : max_document_bytes_(max_document_bytes) {
  clob_file_ = std::make_unique<storage::HeapFile>(*disk_, *pool_);
  database_ = std::make_unique<relational::Database>(*disk_, *pool_);
}

Status ClobEngine::BulkLoad(datagen::DbClass db_class,
                            const std::vector<LoadDocument>& docs) {
  WriterLock lock(collection_mu_);
  Dad dad = ClobSideTablesFor(db_class);
  if (dad.tables.empty()) {
    return Status::Unsupported(
        std::string(datagen::DbClassName(db_class)) +
        ": single-document class exceeds the XML column CLOB limit");
  }
  XBENCH_RETURN_IF_ERROR(CreateDadTables(dad, *database_));
  // All or nothing: a failed load takes back the tables it created, its
  // CLOBs and its registry entries.
  const Dad previous_dad = std::exchange(dad_, std::move(dad));
  const datagen::DbClass previous_class = std::exchange(db_class_, db_class);
  const std::map<std::string, storage::RecordId> previous_registry = registry_;
  const uint64_t clob_bytes = clob_file_->size_bytes();
  const uint64_t clob_records = clob_file_->record_count();
  const int64_t first_row_id = next_row_id_;
  const Status status = LoadLocked(docs);
  if (!status.ok()) {
    DropDadTables(dad_, *database_);
    dad_ = previous_dad;
    db_class_ = previous_class;
    registry_ = previous_registry;
    clob_file_->Truncate(clob_bytes, clob_records);
    next_row_id_ = first_row_id;
  }
  return status;
}

Status ClobEngine::LoadLocked(const std::vector<LoadDocument>& docs) {
  obs::ScopedClockSource clock_scope(disk_->clock());
  obs::ScopedSpan load_span("clob.bulkload");
  obs::Counter& docs_loaded =
      obs::MetricsRegistry::Default().GetCounter("xbench.engine.docs_loaded");
  ShredOptions options;
  options.keep_seq = true;  // dxx_seqno
  for (const LoadDocument& doc : docs) {
    obs::ScopedSpan doc_span("load.doc");
    if (doc.text.size() > max_document_bytes_) {
      return Status::Unsupported("document '" + doc.name +
                                 "' exceeds the CLOB limit (" +
                                 std::to_string(doc.text.size()) + " bytes)");
    }
    auto parsed = [&] {
      obs::ScopedSpan parse_span("parse");
      return xml::Parse(doc.text, doc.name);
    }();
    if (!parsed.ok()) return parsed.status();
    {
      obs::ScopedSpan store_span("store");
      registry_[doc.name] = clob_file_->Append(doc.text);
    }
    {
      obs::ScopedSpan shred_span("shred");
      XBENCH_RETURN_IF_ERROR(ShredDocument(*parsed->root(), doc.name, dad_,
                                           options, *database_, next_row_id_,
                                           nullptr));
    }
    {
      obs::ScopedSpan commit_span("commit");
      disk_->clock().AdvanceMicros(kPerDocumentIngestMicros);
    }
    docs_loaded.Increment();
  }
  {
    obs::ScopedSpan flush_span("flush");
    pool_->FlushAll();
  }
  return Status::Ok();
}

Status ClobEngine::InsertDocument(const LoadDocument& doc) {
  WriterLock lock(collection_mu_);
  if (dad_.tables.empty()) {
    return Status::Unsupported("engine holds no loaded database");
  }
  disk_->clock().AdvanceMicros(kPerDocumentIngestMicros);
  if (doc.text.size() > max_document_bytes_) {
    return Status::Unsupported("document '" + doc.name +
                               "' exceeds the CLOB limit");
  }
  auto parsed = xml::Parse(doc.text, doc.name);
  if (!parsed.ok()) return parsed.status();
  registry_[doc.name] = clob_file_->Append(doc.text);
  ShredOptions options;
  options.keep_seq = true;
  return ShredDocument(*parsed->root(), doc.name, dad_, options, *database_,
                       next_row_id_, nullptr);
}

Status ClobEngine::DeleteDocument(const std::string& name) {
  WriterLock lock(collection_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("document '" + name + "'");
  }
  registry_.erase(it);
  {
    MutexLock cache_lock(cache_mu_);
    cache_.erase(name);
  }
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
    }
  }
  return Status::Ok();
}

Status ClobEngine::CreateIndex(const IndexSpec& spec) {
  if (spec.kind != IndexKind::kValue) {
    return Status::Unsupported(std::string(IndexKindName(spec.kind)) +
                               " indexes are native-engine only");
  }
  WriterLock lock(collection_mu_);
  obs::ScopedClockSource clock_scope(disk_->clock());
  obs::ScopedSpan span("clob.index_build");
  XBENCH_ASSIGN_OR_RETURN(auto target, ResolveIndex(spec.path));
  relational::Table* table = database_->FindTable(target.first);
  if (table == nullptr) {
    return Status::NotFound("side table '" + target.first + "'");
  }
  return table->CreateIndex(spec.name, {target.second});
}

Result<std::pair<std::string, std::string>> ClobEngine::ResolveIndex(
    const std::string& path) const {
  return ResolveIndexPath(dad_, path);
}

void ClobEngine::ColdRestartLocked() {
  XmlDbms::ColdRestartLocked();
  MutexLock cache_lock(cache_mu_);
  cache_.clear();
}

Result<const xml::Document*> ClobEngine::FetchDocument(
    const std::string& doc_name) {
  {
    MutexLock cache_lock(cache_mu_);
    auto cached = cache_.find(doc_name);
    if (cached != cache_.end()) return &cached->second;
  }
  auto it = registry_.find(doc_name);
  if (it == registry_.end()) {
    return Status::NotFound("document '" + doc_name + "'");
  }
  const std::string text = clob_file_->Read(it->second);
  auto parsed = xml::Parse(text, doc_name);
  if (!parsed.ok()) return parsed.status();
  // Racing fetches of one document both parse; the first insert wins.
  // Moving a Document never moves its nodes.
  MutexLock cache_lock(cache_mu_);
  auto [slot, inserted] =
      cache_.try_emplace(doc_name, std::move(parsed).value());
  return &slot->second;
}

std::vector<std::string> ClobEngine::DocumentNames() const {
  std::vector<std::string> out;
  out.reserve(registry_.size());
  for (const auto& [name, rid] : registry_) out.push_back(name);
  return out;
}

Result<std::string> ClobEngine::FetchRaw(const std::string& doc_name) {
  auto it = registry_.find(doc_name);
  if (it == registry_.end()) {
    return Status::NotFound("document '" + doc_name + "'");
  }
  return clob_file_->Read(it->second);
}

Result<xquery::QueryResult> ClobEngine::QueryDocument(
    const std::string& doc_name, std::string_view xquery) {
  XBENCH_ASSIGN_OR_RETURN(const xml::Document* doc, FetchDocument(doc_name));
  std::shared_ptr<const xquery::plan::CompiledQuery> plan;
  {
    MutexLock ast_lock(ast_mu_);
    auto it = plans_.find(xquery);
    if (it != plans_.end()) {
      obs::MetricsRegistry::Default()
          .GetCounter("xbench.plan.ast_cache_hits")
          .Increment();
      plan = it->second;
    }
  }
  if (plan == nullptr) {
    obs::MetricsRegistry::Default()
        .GetCounter("xbench.plan.ast_cache_misses")
        .Increment();
    XBENCH_ASSIGN_OR_RETURN(plan, xquery::plan::CompileText(xquery));
    MutexLock ast_lock(ast_mu_);
    plans_.emplace(std::string(xquery), plan);
  }
  xquery::Bindings bindings;
  bindings["input"] = xquery::Sequence{xquery::Item::Node(doc->root())};
  return xquery::exec::Execute(plan->physical, bindings, {});
}

}  // namespace xbench::engines
