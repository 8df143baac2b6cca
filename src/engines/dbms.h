#ifndef XBENCH_ENGINES_DBMS_H_
#define XBENCH_ENGINES_DBMS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "datagen/generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"

namespace xbench::engines {

/// One XML file to bulk-load (name + serialized text).
struct LoadDocument {
  std::string name;
  std::string text;
};

/// What a secondary index maps (the engine-API mirror of
/// xquery::plan::IndexKind — dbms.h stays below the query layers, so the
/// enum is repeated here rather than included).
enum class IndexKind {
  /// B+-tree over the typed value of one path ("item/@id", "hw").
  kValue,
  /// Inverted text index: word token -> element postings (serves
  /// contains-word probes on TC classes).
  kText,
};

const char* IndexKindName(IndexKind kind);

/// An index request. For kValue, `path` is an element/attribute path in
/// the abbreviated form the paper's Table 3 uses ("item/@id", "hw",
/// "date_of_release"); kText ignores it.
struct IndexSpec {
  std::string name;
  std::string path;
  IndexKind kind = IndexKind::kValue;
};

/// One row of ListIndexes().
struct IndexInfo {
  std::string name;
  IndexKind kind = IndexKind::kValue;
  std::string path;
  uint64_t entries = 0;
};

/// Identifies which commercial system an engine models.
enum class EngineKind {
  kNative,        // X-Hive: intact document trees, XQuery evaluation
  kClob,          // DB2 XML Extender, Xcolumn: CLOB + side tables
  kShredDb2,      // DB2 XML Extender, Xcollection: DAD shredding
  kShredMsSql,    // SQL Server + SQLXML bulk load: XSD shredding
};

const char* EngineKindName(EngineKind kind);

/// Base class for the four storage engines. Engines own a SimulatedDisk +
/// BufferPool; the harness reads the virtual clock to report I/O time and
/// calls ColdRestart() before each measured query (paper §3.1: cold runs).
///
/// Concurrency model: engines carry a collection-level reader/writer lock
/// (collection_mu()). Mutations (BulkLoad / InsertDocument /
/// DeleteDocument / CreateIndex / ColdRestart) acquire it exclusively
/// *inside* the engine; query entry points acquire it shared, so any
/// number of sessions can query one engine concurrently while loads are
/// serialized against them. Lock acquisition order across the system is
/// the common/lock_rank.h rank table (DESIGN.md §9), enforced at runtime
/// under XBENCH_LOCK_RANKS and statically by Clang -Wthread-safety.
class XmlDbms {
 public:
  XmlDbms();
  virtual ~XmlDbms() = default;

  XmlDbms(const XmlDbms&) = delete;
  XmlDbms& operator=(const XmlDbms&) = delete;

  virtual EngineKind kind() const = 0;
  std::string name() const { return EngineKindName(kind()); }

  /// Bulk-loads a database. Engines check well-formedness but (as in the
  /// paper's runs) do not validate against a schema. Returns kUnsupported
  /// when the engine cannot host this database (CLOB size limit, DB2
  /// decomposition row limit) — those are the "-" cells of Tables 4–9.
  virtual Status BulkLoad(datagen::DbClass db_class,
                          const std::vector<LoadDocument>& docs) = 0;

  /// Creates an index (after loading, as in §3.1). Engines return
  /// kUnsupported for kinds they cannot host (only the native engine
  /// serves kText).
  virtual Status CreateIndex(const IndexSpec& spec) = 0;

  /// Drops an index by name. Default: kUnsupported (relational engines
  /// keep their side-table indexes for the lifetime of the load).
  virtual Status DropIndex(const std::string& name);

  /// The engine's secondary indexes, DDL-created ones only, in creation
  /// order. Default: empty.
  virtual std::vector<IndexInfo> ListIndexes() const;

  /// Update workload — the paper's planned extension (§4, "update
  /// workloads will be included in subsequent versions"): document-level
  /// insertion and deletion with index maintenance.
  virtual Status InsertDocument(const LoadDocument& doc) = 0;
  virtual Status DeleteDocument(const std::string& name) = 0;

  /// Drops all cached state so the next query runs cold. Takes the
  /// collection lock exclusively, then delegates to ColdRestartLocked().
  /// Pool/disk counters are NOT reset: engine-lifetime totals stay
  /// monotonic, and per-operation attribution comes from per-thread
  /// deltas (ThisThreadIo) so a restart by one session can never
  /// misattribute I/O charged by another.
  void ColdRestart() {
    WriterLock lock(collection_mu_);
    ColdRestartLocked();
  }

  storage::SimulatedDisk& disk() { return *disk_; }
  const storage::SimulatedDisk& disk() const { return *disk_; }
  storage::BufferPool& pool() { return *pool_; }
  const storage::BufferPool& pool() const { return *pool_; }

  /// Collection-level reader/writer lock. Engines take it internally;
  /// exposed so session-layer code driving engine-external query paths
  /// (CLOB/shred relational plans) can hold it shared for the duration of
  /// a statement.
  SharedMutex& collection_mu() const XBENCH_RETURN_CAPABILITY(collection_mu_) {
    return collection_mu_;
  }

  /// Virtual I/O time accumulated so far (milliseconds).
  double IoMillis() const { return disk_->clock().ElapsedMillis(); }

 protected:
  /// Cache-dropping body; the caller already holds the collection lock
  /// exclusively. Overrides must call the base (or flush the pool
  /// themselves) and must NOT re-take the collection lock.
  virtual void ColdRestartLocked() XBENCH_REQUIRES(collection_mu_) {
    pool_->ColdRestart();
  }

  std::unique_ptr<storage::SimulatedDisk> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  mutable SharedMutex collection_mu_{LockRank::kCollection, "collection"};
};

/// Buffer-pool capacity shared by every engine (frames). ~16 MiB: holds
/// the small databases entirely, thrashes on normal/large — the same
/// relationship the paper's 1 GB RAM had to its 10 MB/100 MB/1 GB scales.
inline constexpr size_t kDefaultPoolPages = 2048;

/// Fixed per-file ingest overhead charged by every engine during bulk
/// load (file open + per-document commit). This is what makes the
/// many-small-files DC/MD class the slowest to load per byte, the paper's
/// §3.2.1 observation ("the number of documents becomes very critical").
inline constexpr uint64_t kPerDocumentIngestMicros = 500;

}  // namespace xbench::engines

#endif  // XBENCH_ENGINES_DBMS_H_
