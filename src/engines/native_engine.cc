#include "engines/native_engine.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/parser.h"

namespace xbench::engines {

std::vector<std::string> ExtractIndexValues(const xml::Node& root,
                                            const std::string& path) {
  std::vector<std::string> values;
  std::vector<std::string> parts = Split(path, '/');
  std::string element = parts[0];
  std::string attribute;
  if (parts.size() == 2 && !parts[1].empty() && parts[1][0] == '@') {
    attribute = parts[1].substr(1);
  }
  root.Visit([&](const xml::Node& node) {
    if (!node.is_element() || node.name() != element) return;
    if (attribute.empty()) {
      values.push_back(node.TextContent());
    } else if (const std::string_view* v = node.FindAttribute(attribute)) {
      values.emplace_back(*v);
    }
  });
  return values;
}

/// Adapter giving probe operators runtime access to this engine's
/// indexes. Constructed on the stack inside RunPlanOver, whose caller
/// holds the collection lock shared for the whole execution (the
/// IndexProvider threading contract), so every method simply requires
/// that lock and delegates to the annotated engine bodies.
class NativeEngine::PlanIndexProvider final
    : public xquery::exec::IndexProvider {
 public:
  explicit PlanIndexProvider(NativeEngine& engine) : engine_(engine) {}

  std::optional<std::vector<const xml::Node*>> ValueLookup(
      const std::string& index, const std::string& key) const override
      XBENCH_REQUIRES_SHARED(engine_.collection_mu_);
  std::optional<std::vector<const xml::Node*>> ValueRange(
      const std::string& index, const std::string& lo,
      const std::string& hi) const override
      XBENCH_REQUIRES_SHARED(engine_.collection_mu_);
  std::optional<std::vector<const xml::Node*>> TextLookup(
      const std::string& word) const override
      XBENCH_REQUIRES_SHARED(engine_.collection_mu_);

 private:
  NativeEngine& engine_;
};

std::optional<std::vector<const xml::Node*>>
NativeEngine::PlanIndexProvider::ValueLookup(const std::string& index,
                                             const std::string& key) const {
  return engine_.ProbeValueEquals(index, key);
}

std::optional<std::vector<const xml::Node*>>
NativeEngine::PlanIndexProvider::ValueRange(const std::string& index,
                                            const std::string& lo,
                                            const std::string& hi) const {
  return engine_.ProbeValueRange(index, lo, hi);
}

std::optional<std::vector<const xml::Node*>>
NativeEngine::PlanIndexProvider::TextLookup(const std::string& word) const {
  return engine_.ProbeTextWord(word);
}

NativeEngine::NativeEngine() {
  file_ = std::make_unique<storage::HeapFile>(*disk_, *pool_);
}

void NativeEngine::IndexDocument(size_t ordinal, const xml::Node& root) {
  path_index_.AddDocument(ordinal, root);
  if (text_index_ != nullptr) text_index_->AddDocument(ordinal, root);
  for (auto& [name, index] : value_indexes_) {
    for (auto& [value, order] :
         ExtractIndexPostings(root, index.path, &index.single_valued)) {
      index.tree->Insert({relational::Value::String(value)},
                         PackNodeRid(ordinal, order));
    }
  }
}

Status NativeEngine::BulkLoad(datagen::DbClass db_class,
                              const std::vector<LoadDocument>& docs) {
  WriterLock lock(collection_mu_);
  obs::ScopedClockSource clock_scope(disk_->clock());
  obs::ScopedSpan load_span("native.bulkload");
  obs::Counter& docs_loaded =
      obs::MetricsRegistry::Default().GetCounter("xbench.engine.docs_loaded");
  db_class_ = db_class;
  // The collection is changing; any earlier conformance proof no longer
  // covers it. workload::BulkLoad re-enables after re-validating. Compiled
  // plans froze access paths under the old gate state, so they go too.
  set_guided_eval_enabled(false);
  plan_cache_.Invalidate();
  for (const LoadDocument& doc : docs) {
    obs::ScopedSpan doc_span("load.doc");
    const size_t ordinal = registry_.size();
    {
      // X-Hive parses into its persistent DOM on load; we parse (which
      // also verifies well-formedness), feed the tree through the index
      // structures, and persist the canonical serialized form,
      // re-materializing trees on demand.
      obs::ScopedSpan parse_span("parse");
      auto parsed = xml::Parse(doc.text, doc.name);
      if (!parsed.ok()) return parsed.status();
      obs::ScopedSpan index_span("index");
      IndexDocument(ordinal, *parsed->root());
    }
    {
      obs::ScopedSpan store_span("store");
      const storage::RecordId rid = file_->Append(doc.text);
      registry_.push_back({doc.name, rid, /*deleted=*/false});
    }
    {
      obs::ScopedSpan commit_span("commit");
      disk_->clock().AdvanceMicros(kPerDocumentIngestMicros);
    }
    live_count_.fetch_add(1, std::memory_order_relaxed);
    docs_loaded.Increment();
  }
  {
    obs::ScopedSpan flush_span("flush");
    pool_->FlushAll();
  }
  RefreshCatalogLocked();
  return Status::Ok();
}

Status NativeEngine::InsertDocument(const LoadDocument& doc) {
  WriterLock lock(collection_mu_);
  // The inserted document was not part of the validated bulk load, so the
  // collection may no longer conform to the schema the analyzer resolved
  // expansions from; fall back to (always-correct) full subtree scans and
  // drop plans compiled for the guided collection.
  set_guided_eval_enabled(false);
  plan_cache_.Invalidate();
  disk_->clock().AdvanceMicros(kPerDocumentIngestMicros);
  auto parsed = xml::Parse(doc.text, doc.name);
  if (!parsed.ok()) return parsed.status();
  const storage::RecordId rid = file_->Append(doc.text);
  const size_t ordinal = registry_.size();
  registry_.push_back({doc.name, rid, /*deleted=*/false});
  live_count_.fetch_add(1, std::memory_order_relaxed);
  IndexDocument(ordinal, *parsed->root());
  RefreshCatalogLocked();
  return Status::Ok();
}

Status NativeEngine::DeleteDocument(const std::string& name) {
  WriterLock lock(collection_mu_);
  for (size_t ordinal = 0; ordinal < registry_.size(); ++ordinal) {
    DocEntry& entry = registry_[ordinal];
    if (entry.deleted || entry.name != name) continue;
    // Erase index entries (including the always-on structural index)
    // before dropping the document.
    XBENCH_ASSIGN_OR_RETURN(const xml::Document* doc, Materialize(ordinal));
    path_index_.RemoveDocument(ordinal, *doc->root());
    if (text_index_ != nullptr) text_index_->RemoveDocument(ordinal);
    for (auto& [index_name, index] : value_indexes_) {
      for (const auto& [value, order] :
           ExtractIndexPostings(*doc->root(), index.path)) {
        index.tree->Erase({relational::Value::String(value)},
                          PackNodeRid(ordinal, order));
      }
    }
    entry.deleted = true;
    live_count_.fetch_sub(1, std::memory_order_relaxed);
    {
      MutexLock cache_lock(cache_mu_);
      cache_.erase(ordinal);
    }
    plan_cache_.Invalidate();
    RefreshCatalogLocked();
    return Status::Ok();
  }
  return Status::NotFound("document '" + name + "'");
}

bool NativeEngine::IndexNameTaken(const std::string& name) const {
  return value_indexes_.count(name) != 0 ||
         (!text_index_name_.empty() && text_index_name_ == name) ||
         (!path_index_name_.empty() && path_index_name_ == name);
}

Status NativeEngine::CreateIndex(const IndexSpec& spec) {
  WriterLock lock(collection_mu_);
  if (IndexNameTaken(spec.name)) {
    return Status::AlreadyExists("index '" + spec.name + "'");
  }
  obs::ScopedClockSource clock_scope(disk_->clock());
  obs::ScopedSpan span("native.index_build");
  switch (spec.kind) {
    case IndexKind::kValue: {
      ValueIndex index;
      index.path = spec.path;
      index.tree = std::make_unique<relational::BTreeIndex>(disk_->clock());
      for (size_t ordinal = 0; ordinal < registry_.size(); ++ordinal) {
        if (registry_[ordinal].deleted) continue;
        XBENCH_ASSIGN_OR_RETURN(const xml::Document* doc,
                                Materialize(ordinal));
        for (auto& [value, order] : ExtractIndexPostings(
                 *doc->root(), spec.path, &index.single_valued)) {
          index.tree->Insert({relational::Value::String(value)},
                             PackNodeRid(ordinal, order));
        }
      }
      value_indexes_[spec.name] = std::move(index);
      break;
    }
    case IndexKind::kText: {
      if (text_index_ != nullptr) {
        return Status::AlreadyExists("text index '" + text_index_name_ +
                                     "' (one per collection)");
      }
      auto index = std::make_unique<TextIndex>(&disk_->clock());
      for (size_t ordinal = 0; ordinal < registry_.size(); ++ordinal) {
        if (registry_[ordinal].deleted) continue;
        XBENCH_ASSIGN_OR_RETURN(const xml::Document* doc,
                                Materialize(ordinal));
        index->AddDocument(ordinal, *doc->root());
      }
      text_index_ = std::move(index);
      text_index_name_ = spec.name;
      break;
    }
    case IndexKind::kPath: {
      // The structural index is maintained unconditionally; DDL only
      // names it (making it visible to ListIndexes and forcible by name).
      if (!path_index_name_.empty()) {
        return Status::AlreadyExists("path index '" + path_index_name_ +
                                     "' (one per collection)");
      }
      path_index_name_ = spec.name;
      break;
    }
  }
  index_order_.push_back(spec.name);
  // The access-path choice space changed; cached plans were costed
  // without this index.
  plan_cache_.Invalidate();
  RefreshCatalogLocked();
  // Index building materialized every document; drop that warmth. The
  // collection lock is already held exclusively, so call the locked body
  // directly (ColdRestart() would self-deadlock).
  ColdRestartLocked();
  return Status::Ok();
}

Status NativeEngine::DropIndex(const std::string& name) {
  WriterLock lock(collection_mu_);
  if (auto it = value_indexes_.find(name); it != value_indexes_.end()) {
    value_indexes_.erase(it);
  } else if (!text_index_name_.empty() && text_index_name_ == name) {
    text_index_.reset();
    text_index_name_.clear();
  } else if (!path_index_name_.empty() && path_index_name_ == name) {
    // Unregister the name; the structural statistics keep running.
    path_index_name_.clear();
  } else {
    return Status::NotFound("index '" + name + "'");
  }
  index_order_.erase(
      std::remove(index_order_.begin(), index_order_.end(), name),
      index_order_.end());
  plan_cache_.Invalidate();
  RefreshCatalogLocked();
  return Status::Ok();
}

std::vector<IndexInfo> NativeEngine::ListIndexes() const {
  ReaderLock lock(collection_mu_);
  std::vector<IndexInfo> infos;
  infos.reserve(index_order_.size());
  for (const std::string& name : index_order_) {
    IndexInfo info;
    info.name = name;
    if (auto it = value_indexes_.find(name); it != value_indexes_.end()) {
      info.kind = IndexKind::kValue;
      info.path = it->second.path;
      info.entries = it->second.tree->entry_count();
    } else if (text_index_name_ == name && text_index_ != nullptr) {
      info.kind = IndexKind::kText;
      info.entries = text_index_->entries();
    } else if (path_index_name_ == name) {
      info.kind = IndexKind::kPath;
      info.entries = path_index_.entries();
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

void NativeEngine::RefreshCatalogLocked() {
  xquery::plan::IndexCatalog catalog;
  catalog.collection.documents = path_index_.documents();
  catalog.collection.total_elements = path_index_.total_elements();
  catalog.collection.elements_by_name = path_index_.elements_by_name();
  catalog.collection.root_names = path_index_.root_names();
  for (const auto& [name, index] : value_indexes_) {
    xquery::plan::IndexStats stats;
    stats.name = name;
    stats.kind = xquery::plan::IndexKind::kValue;
    stats.path = index.path;
    stats.entries = index.tree->entry_count();
    stats.height = index.tree->height();
    stats.single_valued = index.single_valued;
    // Distinct-key count via one in-order sweep. Charged to the virtual
    // clock like any other tree traversal, as part of the mutation/DDL
    // that triggered the refresh — statistics maintenance is bookkeeping
    // the modeled DBMS also pays on its write path.
    uint64_t distinct = 0;
    std::optional<relational::Key> prev;
    index.tree->Range(nullptr, nullptr,
                      [&](const relational::Key& key,
                          storage::RecordId) {
                        if (!prev.has_value() || !(*prev == key)) {
                          ++distinct;
                          prev = key;
                        }
                        return true;
                      });
    stats.distinct_keys = distinct;
    catalog.indexes.push_back(std::move(stats));
  }
  if (text_index_ != nullptr) {
    xquery::plan::IndexStats stats;
    stats.name = text_index_name_;
    stats.kind = xquery::plan::IndexKind::kText;
    stats.entries = text_index_->entries();
    stats.distinct_keys = text_index_->distinct_words();
    catalog.indexes.push_back(std::move(stats));
  }
  if (!path_index_name_.empty()) {
    xquery::plan::IndexStats stats;
    stats.name = path_index_name_;
    stats.kind = xquery::plan::IndexKind::kPath;
    stats.entries = path_index_.entries();
    stats.distinct_keys = path_index_.distinct_paths();
    catalog.indexes.push_back(std::move(stats));
  }
  MutexLock lock(index_mu_);
  catalog.epoch = catalog_.epoch + 1;
  catalog_ = std::move(catalog);
}

xquery::plan::IndexCatalog NativeEngine::IndexCatalogSnapshot() const {
  MutexLock lock(index_mu_);
  return catalog_;
}

void NativeEngine::ColdRestartLocked() {
  XmlDbms::ColdRestartLocked();
  MutexLock cache_lock(cache_mu_);
  cache_.clear();
}

Result<const xml::Document*> NativeEngine::Materialize(size_t ordinal) {
  {
    MutexLock cache_lock(cache_mu_);
    auto it = cache_.find(ordinal);
    if (it != cache_.end()) return &it->second;
  }
  obs::ScopedSpan span("native.materialize");
  static obs::Counter& materialized = obs::MetricsRegistry::Default().GetCounter(
      "xbench.native.docs_materialized");
  materialized.Increment();
  const DocEntry& entry = registry_[ordinal];
  const std::string text = file_->Read(entry.record);
  auto parsed = xml::Parse(text, entry.name);
  if (!parsed.ok()) return parsed.status();
  parsed->root()->arena().set_rank(ordinal);
  // Racing materializations of the same ordinal both reach here; the
  // first insert wins and the loser's parse is discarded.
  MutexLock cache_lock(cache_mu_);
  auto [it, inserted] = cache_.try_emplace(ordinal, std::move(parsed).value());
  return &it->second;
}

const xml::Node* NativeEngine::NodeByRid(uint64_t rid) {
  const size_t ordinal = RidOrdinal(rid);
  const uint32_t order = RidOrder(rid);
  if (ordinal >= registry_.size() || registry_[ordinal].deleted) {
    return nullptr;
  }
  auto doc_or = Materialize(ordinal);
  if (!doc_or.ok()) return nullptr;
  // Pre-order ids are dense from 1, so the parser's own order table
  // resolves postings in O(1).
  return doc_or.value()->NodeAt(order);
}

std::optional<std::vector<const xml::Node*>> NativeEngine::ProbeValueEquals(
    const std::string& index, const std::string& key) {
  auto it = value_indexes_.find(index);
  if (it == value_indexes_.end()) return std::nullopt;
  std::vector<const xml::Node*> nodes;
  for (storage::RecordId rid :
       it->second.tree->Lookup({relational::Value::String(key)})) {
    if (RidOrdinal(rid) < registry_.size() &&
        registry_[RidOrdinal(rid)].deleted) {
      continue;
    }
    const xml::Node* node = NodeByRid(rid);
    if (node == nullptr) return std::nullopt;
    nodes.push_back(node);
  }
  return nodes;
}

std::optional<std::vector<const xml::Node*>> NativeEngine::ProbeValueRange(
    const std::string& index, const std::string& lo, const std::string& hi) {
  auto it = value_indexes_.find(index);
  if (it == value_indexes_.end()) return std::nullopt;
  // Range decomposition is only sound over single-valued paths; the
  // planner checks the same statistic, so this triggers only for plans
  // executed across a mutation that flipped it (defense in depth).
  if (!it->second.single_valued) return std::nullopt;
  std::vector<storage::RecordId> rids;
  const relational::Key key_lo{relational::Value::String(lo)};
  const relational::Key key_hi{relational::Value::String(hi)};
  it->second.tree->Range(&key_lo, &key_hi,
                         [&](const relational::Key&,
                             storage::RecordId rid) {
                           rids.push_back(rid);
                           return true;
                         });
  std::vector<const xml::Node*> nodes;
  for (storage::RecordId rid : rids) {
    if (RidOrdinal(rid) < registry_.size() &&
        registry_[RidOrdinal(rid)].deleted) {
      continue;
    }
    const xml::Node* node = NodeByRid(rid);
    if (node == nullptr) return std::nullopt;
    nodes.push_back(node);
  }
  return nodes;
}

std::optional<std::vector<const xml::Node*>> NativeEngine::ProbeTextWord(
    const std::string& word) {
  if (text_index_ == nullptr) return std::nullopt;
  std::vector<const xml::Node*> nodes;
  for (uint64_t rid : text_index_->Lookup(word)) {
    if (RidOrdinal(rid) < registry_.size() &&
        registry_[RidOrdinal(rid)].deleted) {
      continue;
    }
    const xml::Node* node = NodeByRid(rid);
    if (node == nullptr) return std::nullopt;
    nodes.push_back(node);
  }
  return nodes;
}

std::optional<std::vector<size_t>> NativeEngine::PrefilterOrdinals(
    const xquery::plan::IndexProbe& probe) {
  std::vector<uint64_t> rids;
  switch (probe.kind) {
    case xquery::plan::ProbeKind::kValueEquals: {
      auto it = value_indexes_.find(probe.index);
      if (it == value_indexes_.end()) return std::nullopt;
      for (storage::RecordId rid :
           it->second.tree->Lookup({relational::Value::String(probe.key)})) {
        rids.push_back(rid);
      }
      break;
    }
    case xquery::plan::ProbeKind::kValueRange: {
      auto it = value_indexes_.find(probe.index);
      if (it == value_indexes_.end() || !it->second.single_valued) {
        return std::nullopt;
      }
      const relational::Key key_lo{
          relational::Value::String(probe.lo)};
      const relational::Key key_hi{
          relational::Value::String(probe.hi)};
      it->second.tree->Range(&key_lo, &key_hi,
                             [&](const relational::Key&,
                                 storage::RecordId rid) {
                               rids.push_back(rid);
                               return true;
                             });
      break;
    }
    case xquery::plan::ProbeKind::kTextWord: {
      if (text_index_ == nullptr || text_index_name_ != probe.index) {
        return std::nullopt;
      }
      rids = text_index_->Lookup(probe.word);
      break;
    }
  }
  std::set<size_t> ordinals;
  for (uint64_t rid : rids) {
    const size_t ordinal = RidOrdinal(rid);
    if (ordinal < registry_.size() && !registry_[ordinal].deleted) {
      ordinals.insert(ordinal);
    }
  }
  return std::vector<size_t>(ordinals.begin(), ordinals.end());
}

Result<xquery::QueryResult> NativeEngine::Query(std::string_view xquery) {
  const xquery::plan::IndexCatalog catalog = IndexCatalogSnapshot();
  XBENCH_ASSIGN_OR_RETURN(auto compiled,
                          xquery::plan::CompileText(xquery, &catalog));
  return ExecutePlan(*compiled);
}

std::vector<size_t> NativeEngine::LiveOrdinals() const {
  std::vector<size_t> all;
  all.reserve(registry_.size());
  for (size_t i = 0; i < registry_.size(); ++i) {
    if (!registry_[i].deleted) all.push_back(i);
  }
  return all;
}

Result<xquery::QueryResult> NativeEngine::RunPlanOver(
    const std::vector<size_t>& ordinals,
    const xquery::plan::CompiledQuery& compiled,
    xquery::exec::ExecStats* stats) {
  if (compiled.guided && !guided_eval_enabled()) {
    return Status::InvalidArgument(
        "guided plan on an unvalidated collection: the plan was compiled "
        "for a collection that passed the guided-eval gate");
  }
  xquery::Sequence input;
  input.reserve(ordinals.size());
  for (size_t ordinal : ordinals) {
    XBENCH_ASSIGN_OR_RETURN(const xml::Document* doc, Materialize(ordinal));
    input.push_back(xquery::Item::Node(doc->root()));
  }
  xquery::Bindings bindings;
  bindings["input"] = std::move(input);
  xquery::EvalOptions options;
  options.use_step_expansions = guided_eval_enabled();
  PlanIndexProvider indexes(*this);
  return xquery::exec::Execute(compiled.physical, bindings, options, stats,
                               &indexes);
}

Result<xquery::QueryResult> NativeEngine::ExecutePlan(
    const xquery::plan::CompiledQuery& compiled,
    xquery::exec::ExecStats* stats) {
  ReaderLock lock(collection_mu_);
  return ExecutePlanLocked(compiled, stats);
}

Result<xquery::QueryResult> NativeEngine::ExecutePlanLocked(
    const xquery::plan::CompiledQuery& compiled,
    xquery::exec::ExecStats* stats) {
  obs::ScopedClockSource clock_scope(disk_->clock());
  obs::ScopedSpan span("native.exec_plan");
  // When the plan's only $input consumer is an index probe, documents
  // without postings cannot contribute — bind only the candidate set so
  // they are never materialized (the document-level index benefit the
  // paper measures on X-Hive).
  if (compiled.prefilter_probe != nullptr &&
      compiled.prefilter_probe->probe.has_value()) {
    std::optional<std::vector<size_t>> candidates =
        PrefilterOrdinals(*compiled.prefilter_probe->probe);
    if (candidates.has_value()) {
      return RunPlanOver(*candidates, compiled, stats);
    }
  }
  return RunPlanOver(LiveOrdinals(), compiled, stats);
}

}  // namespace xbench::engines
