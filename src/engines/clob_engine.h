#ifndef XBENCH_ENGINES_CLOB_ENGINE_H_
#define XBENCH_ENGINES_CLOB_ENGINE_H_

#include <map>
#include <memory>
#include <string>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "engines/dad.h"
#include "engines/dbms.h"
#include "relational/table.h"
#include "storage/heap_file.h"
#include "xml/node.h"
#include "xquery/evaluator.h"
#include "xquery/plan/cache.h"

namespace xbench::engines {

/// DB2 XML Extender "Xcolumn" analogue: each document is stored intact as
/// a CLOB, with DAD-declared side tables over the searchable elements
/// (carrying a dxx_seqno ordering column). Plans filter via the side
/// tables, then fetch and reconstruct whole documents from the CLOB.
///
/// Limits (paper §3.1.1): a document larger than the CLOB cap cannot be
/// stored — so the SD classes (one huge file) are unsupported, exactly as
/// in the paper's runs.
///
/// Thread safety: mutations take the collection lock exclusively inside
/// the engine. The read-side methods (FetchDocument / QueryDocument /
/// FetchRaw / side_tables access in query plans) do NOT take it — CLOB
/// query plans span several engine calls per statement, so the *caller*
/// (workload::Session) holds the lock shared for the whole statement.
/// The document and plan caches have leaf mutexes, making the read side
/// safe for any number of shared-lock holders.
class ClobEngine : public XmlDbms {
 public:
  /// `max_document_bytes` is the scaled-down 2 GB CLOB cap; 256 KiB keeps
  /// the MD classes loadable and both SD classes refused at every scale.
  explicit ClobEngine(uint64_t max_document_bytes = 256 * 1024);

  EngineKind kind() const override { return EngineKind::kClob; }

  Status BulkLoad(datagen::DbClass db_class,
                  const std::vector<LoadDocument>& docs) override;

  Status CreateIndex(const IndexSpec& spec) override;

  /// Appends one CLOB + its side-table rows.
  Status InsertDocument(const LoadDocument& doc) override;

  /// Drops a document from the registry and deletes its side-table rows.
  Status DeleteDocument(const std::string& name) override;

  /// The side-table database (query plans read it directly). Caller holds
  /// the collection lock — shared for reads, exclusive inside mutations.
  relational::Database& side_tables() XBENCH_REQUIRES_SHARED(collection_mu_) {
    return *database_;
  }
  const Dad& side_dad() const XBENCH_REQUIRES_SHARED(collection_mu_) {
    return dad_;
  }

  /// Fetches + parses the CLOB of the named document.
  Result<const xml::Document*> FetchDocument(const std::string& doc_name)
      XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Names of all stored documents (registry order).
  std::vector<std::string> DocumentNames() const
      XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Raw serialized CLOB of the named document (whole-document retrieval).
  Result<std::string> FetchRaw(const std::string& doc_name)
      XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Runs an XQuery over one fetched document ($input = its root) as a
  /// compiled plan. The plan is cached by query text — XML Extender
  /// compiles the extraction statement once, not per document — so a
  /// Q-over-N-documents loop compiles exactly once (metrics
  /// xbench.plan.ast_cache_hits/misses). Plans compile without an index
  /// catalog and unguided, so they make no data-dependent choice: the
  /// cache never needs mutation invalidation and survives ColdRestart like
  /// a statement cache.
  Result<xquery::QueryResult> QueryDocument(const std::string& doc_name,
                                            std::string_view xquery)
      XBENCH_REQUIRES_SHARED(collection_mu_);

  /// Resolves a Table 3 index path against the side DAD.
  Result<std::pair<std::string, std::string>> ResolveIndex(
      const std::string& path) const XBENCH_REQUIRES_SHARED(collection_mu_);

 protected:
  void ColdRestartLocked() override XBENCH_REQUIRES(collection_mu_);

 private:
  /// Stores, shreds and commits `docs` into the tables BulkLoad created.
  Status LoadLocked(const std::vector<LoadDocument>& docs)
      XBENCH_REQUIRES(collection_mu_);

  uint64_t max_document_bytes_;
  // clob_file_ is set once in the constructor; record access goes through
  // the registry under the collection lock.
  std::unique_ptr<storage::HeapFile> clob_file_;
  std::unique_ptr<relational::Database> database_
      XBENCH_PT_GUARDED_BY(collection_mu_);
  Dad dad_ XBENCH_GUARDED_BY(collection_mu_);
  datagen::DbClass db_class_ XBENCH_GUARDED_BY(collection_mu_) =
      datagen::DbClass::kDcMd;
  std::map<std::string, storage::RecordId> registry_
      XBENCH_GUARDED_BY(collection_mu_);
  mutable Mutex cache_mu_{LockRank::kDocumentCache, "clob.doc.cache"};
  std::map<std::string, xml::Document> cache_
      XBENCH_GUARDED_BY(cache_mu_);
  mutable Mutex ast_mu_{LockRank::kAstCache, "clob.ast.cache"};
  std::map<std::string, std::shared_ptr<const xquery::plan::CompiledQuery>,
           std::less<>>
      plans_ XBENCH_GUARDED_BY(ast_mu_);
  int64_t next_row_id_ XBENCH_GUARDED_BY(collection_mu_) = 0;
};

}  // namespace xbench::engines

#endif  // XBENCH_ENGINES_CLOB_ENGINE_H_
