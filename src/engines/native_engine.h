#ifndef XBENCH_ENGINES_NATIVE_ENGINE_H_
#define XBENCH_ENGINES_NATIVE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "engines/dbms.h"
#include "engines/secondary_index.h"
#include "relational/btree.h"
#include "storage/heap_file.h"
#include "xml/node.h"
#include "xquery/evaluator.h"
#include "xquery/exec/exec.h"
#include "xquery/plan/cache.h"
#include "xquery/plan/catalog.h"

namespace xbench::engines {

/// Native XML store modelling X-Hive/DB: documents are stored intact (one
/// heap record per document), every XQuery runs as a compiled plan over
/// the materialized trees, and secondary indexes map values, paths and
/// word tokens to node-granular postings.
///
/// Cost model: answering a query materializes candidate documents from the
/// page store (virtual I/O proportional to document bytes, like X-Hive's
/// persistent-DOM page reads) and walks the tree (real CPU). A secondary
/// index narrows both the candidate document set and the in-document node
/// set, but each touched document must still be materialized — the
/// behaviour behind the paper's X-Hive numbers (fast on TC/MD, collapsing
/// on DC/MD-large whole-collection scans).
///
/// Index structures (DESIGN.md §13):
///  - a structural PathIndex is maintained unconditionally; it doubles as
///    the statistics store feeding the planner catalog mirror,
///  - kValue DDL builds a B+-tree over one Table-3 path with
///    (ordinal, pre-order) postings,
///  - kText DDL builds one inverted word index over element text.
/// All three live under the collection lock like the registry; the
/// planner-facing catalog mirror (statistics + epoch) has its own leaf
/// mutex so compilation can snapshot it without touching the collection
/// lock.
///
/// Thread safety: query entry points take the collection lock shared and
/// may run from any number of sessions concurrently; mutations take it
/// exclusive. The materialized-document cache has its own leaf mutex so
/// parallel readers can fault documents in without serializing whole
/// queries. Per-operator counters go only to the ExecStats a caller
/// passes, so nothing is shared between concurrent statements.
class NativeEngine : public XmlDbms {
 public:
  NativeEngine();

  EngineKind kind() const override { return EngineKind::kNative; }

  Status BulkLoad(datagen::DbClass db_class,
                  const std::vector<LoadDocument>& docs) override;

  /// kValue: B+-tree over `spec.path` ("order/@id", "hw", ...) with
  /// node-granular postings. kText: inverted word index over element
  /// text. kPath: registers the always-on structural index under
  /// `spec.name` so it appears in ListIndexes and can be forced by name.
  Status CreateIndex(const IndexSpec& spec) override;

  Status DropIndex(const std::string& name) override;
  std::vector<IndexInfo> ListIndexes() const override;

  /// Inserts one document, maintaining every secondary index.
  Status InsertDocument(const LoadDocument& doc) override;

  /// Deletes a document by name. The heap record is tombstoned (space is
  /// reclaimed on the next rebuild, which this benchmark never needs) and
  /// its index entries are erased.
  Status DeleteDocument(const std::string& name) override;

  /// Ad-hoc query text with $input bound to the collection: parses it,
  /// compiles it unguided against the current index catalog (so the
  /// planner may choose index probes and a document prefilter) and runs
  /// the plan through ExecutePlan.
  Result<xquery::QueryResult> Query(std::string_view xquery);

  /// Runs a physical plan over the whole collection, giving its probe
  /// operators runtime access to this engine's indexes. When the plan
  /// carries a document prefilter (its single $input consumer is an index
  /// probe), only documents with matching postings are materialized and
  /// bound. Guided plans are rejected while the collection has not passed
  /// the guided-eval gate (the plan cache key carries the guided flag, so
  /// a rejection here means the caller compiled for the wrong gate
  /// state). Per-operator counters land in `*stats`; with it null none
  /// are kept.
  Result<xquery::QueryResult> ExecutePlan(
      const xquery::plan::CompiledQuery& compiled,
      xquery::exec::ExecStats* stats = nullptr);

  /// ExecutePlan for a caller already holding collection_mu() shared. The
  /// result's nodes live in the materialized-document cache, which a
  /// ColdRestart or mutation frees, so a concurrent caller must keep the
  /// lock until it has finished reading the result.
  Result<xquery::QueryResult> ExecutePlanLocked(
      const xquery::plan::CompiledQuery& compiled,
      xquery::exec::ExecStats* stats) XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Consistent copy of the planner-facing index catalog (statistics +
  /// epoch). Compilation snapshots this without the collection lock; the
  /// epoch in the snapshot keys the plan cache, so plans compiled against
  /// a superseded catalog are never served.
  xquery::plan::IndexCatalog IndexCatalogSnapshot() const;

  /// This engine's compiled-plan cache (the DBMS statement cache). Document
  /// mutations and index DDL invalidate it — the data change can flip the
  /// guided-eval gate or the access-path choice — but ColdRestart does
  /// not: compiled statements survive a buffer-pool flush.
  xquery::plan::PlanCache& plan_cache() { return plan_cache_; }

  /// Live (non-deleted) documents.
  size_t document_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  uint64_t stored_bytes() const { return file_->size_bytes(); }

  /// Whether queries may follow analyzer-resolved `Step::expansions`
  /// (guided descendant evaluation). Off by default: the expansions are
  /// derived from the canonical class schema, and walking them is only
  /// sound over a collection validated against that schema. The workload
  /// bulk-load path enables this after
  /// analysis::ValidateDatabaseForGuidedEval passes; inserting a document
  /// turns it back off (the collection may no longer conform).
  bool guided_eval_enabled() const {
    return guided_eval_enabled_.load(std::memory_order_acquire);
  }
  void set_guided_eval_enabled(bool enabled) {
    guided_eval_enabled_.store(enabled, std::memory_order_release);
  }

 protected:
  void ColdRestartLocked() override XBENCH_REQUIRES(collection_mu_);

 private:
  class PlanIndexProvider;

  struct DocEntry {
    std::string name;
    storage::RecordId record;
    /// Tombstone: ordinals stay stable so index rids remain valid.
    bool deleted = false;
  };

  /// One DDL-created value index.
  struct ValueIndex {
    std::string path;
    std::unique_ptr<relational::BTreeIndex> tree;
    /// AND over every indexed document of "no parent posted twice";
    /// conservatively sticky across deletions. Gates range probes.
    bool single_valued = true;
  };

  /// Parses document `ordinal` out of the page store (I/O + parse cost),
  /// ranks its arena with the ordinal (cross-document order follows the
  /// collection) and caches it until the next cold restart. Thread-safe:
  /// racing materializations of the same ordinal both parse, first insert
  /// wins.
  Result<const xml::Document*> Materialize(size_t ordinal)
      XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Resolves a packed (ordinal, pre-order) posting to its live node
  /// through Document::NodeAt, materializing the document on demand.
  /// nullptr when the document is deleted or the order is out of range.
  const xml::Node* NodeByRid(uint64_t rid)
      XBENCH_REQUIRES_SHARED(collection_mu_);

  // Probe bodies behind the IndexProvider adapter. nullopt = index
  // unavailable or a posting failed to resolve; the probe operator then
  // runs its compiled fallback access path.
  std::optional<std::vector<const xml::Node*>> ProbeValueEquals(
      const std::string& index, const std::string& key)
      XBENCH_REQUIRES_SHARED(collection_mu_);
  std::optional<std::vector<const xml::Node*>> ProbeValueRange(
      const std::string& index, const std::string& lo, const std::string& hi)
      XBENCH_REQUIRES_SHARED(collection_mu_);
  std::optional<std::vector<const xml::Node*>> ProbeTextWord(
      const std::string& word) XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Document ordinals with at least one posting for the plan's $input
  /// prefilter probe; nullopt when the referenced index is unavailable
  /// (the caller then scans every live document).
  std::optional<std::vector<size_t>> PrefilterOrdinals(
      const xquery::plan::IndexProbe& probe)
      XBENCH_REQUIRES_SHARED(collection_mu_);

  Result<xquery::QueryResult> RunPlanOver(
      const std::vector<size_t>& ordinals,
      const xquery::plan::CompiledQuery& compiled,
      xquery::exec::ExecStats* stats) XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Ordinals of every live document (the unfiltered $input binding).
  std::vector<size_t> LiveOrdinals() const
      XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Whether any index (value, text, or the registered path name) already
  /// claims `name`.
  bool IndexNameTaken(const std::string& name) const
      XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Feeds one parsed document into every maintained index structure.
  void IndexDocument(size_t ordinal, const xml::Node& root)
      XBENCH_REQUIRES(collection_mu_);

  /// Rebuilds the planner-facing catalog mirror from the live index
  /// structures and bumps its epoch. Call after any mutation or DDL,
  /// while still holding the collection lock exclusively.
  void RefreshCatalogLocked() XBENCH_REQUIRES(collection_mu_);

  // file_ itself is set once in the constructor; record-level access is
  // mediated by the collection lock like the registry entries below.
  std::unique_ptr<storage::HeapFile> file_;
  std::vector<DocEntry> registry_ XBENCH_GUARDED_BY(collection_mu_);
  std::atomic<size_t> live_count_{0};
  std::atomic<bool> guided_eval_enabled_{false};
  datagen::DbClass db_class_ XBENCH_GUARDED_BY(collection_mu_) =
      datagen::DbClass::kTcSd;

  // Secondary indexes (all maintained under the collection lock; the
  // B+-trees charge realistic page I/O on probe).
  std::map<std::string, ValueIndex> value_indexes_
      XBENCH_GUARDED_BY(collection_mu_);
  std::unique_ptr<TextIndex> text_index_ XBENCH_GUARDED_BY(collection_mu_);
  std::string text_index_name_ XBENCH_GUARDED_BY(collection_mu_);
  /// Always maintained (statistics source); `path_index_name_` is empty
  /// until kPath DDL registers it.
  PathIndex path_index_ XBENCH_GUARDED_BY(collection_mu_);
  std::string path_index_name_ XBENCH_GUARDED_BY(collection_mu_);
  /// DDL creation order, for ListIndexes.
  std::vector<std::string> index_order_ XBENCH_GUARDED_BY(collection_mu_);

  /// Planner-facing mirror of the index state. Leaf-ish rank just above
  /// the collection lock so RefreshCatalogLocked (collection held
  /// exclusive) can take it, while IndexCatalogSnapshot takes it
  /// standalone.
  mutable Mutex index_mu_{LockRank::kIndexCatalog, "index.catalog"};
  xquery::plan::IndexCatalog catalog_ XBENCH_GUARDED_BY(index_mu_);

  mutable Mutex cache_mu_{LockRank::kDocumentCache, "native.doc.cache"};
  /// Materialized documents by ordinal. Moving a Document never moves its
  /// nodes, and an entry is never replaced while readers hold the
  /// collection lock shared, so pointers into it stay valid for a
  /// statement.
  std::map<size_t, xml::Document> cache_ XBENCH_GUARDED_BY(cache_mu_);
  xquery::plan::PlanCache plan_cache_;
};

/// Extracts the indexed values for `path` from a document tree. Path forms
/// are the paper's Table 3 abbreviations: "elem/@attr" (attribute `attr`
/// of every element `elem`) or "elem" (text value of every element
/// `elem`). Exposed for tests; the engine itself indexes the node-granular
/// ExtractIndexPostings form (engines/secondary_index.h).
std::vector<std::string> ExtractIndexValues(const xml::Node& root,
                                            const std::string& path);

}  // namespace xbench::engines

#endif  // XBENCH_ENGINES_NATIVE_ENGINE_H_
