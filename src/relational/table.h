#ifndef XBENCH_RELATIONAL_TABLE_H_
#define XBENCH_RELATIONAL_TABLE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/btree.h"
#include "relational/schema.h"
#include "storage/heap_file.h"

namespace xbench::relational {

/// A heap table plus its secondary B+-tree indexes. Owned by a Database.
class Table {
 public:
  Table(std::string name, Schema schema, storage::SimulatedDisk& disk,
        storage::BufferPool& pool)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        disk_(&disk),
        file_(disk, pool) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  /// Live (non-deleted) rows.
  uint64_t row_count() const { return file_.record_count() - deleted_.size(); }
  uint64_t size_bytes() const { return file_.size_bytes(); }

  /// Validates, encodes and appends a row; maintains all indexes.
  Result<storage::RecordId> Insert(const Row& row);

  /// Deletes a row: removes its index entries and tombstones the record
  /// (heap space is not reclaimed — the workload is load/insert-heavy,
  /// per the paper's planned update extension).
  Status Delete(storage::RecordId rid);

  /// Fetches one row by record id (kNotFound for deleted rows).
  Result<Row> Fetch(storage::RecordId rid);

  /// Full scan in insertion order, skipping deleted rows; returning false
  /// stops early.
  void Scan(const std::function<bool(storage::RecordId, const Row&)>& visit);

  /// Creates a B+-tree index over `column_names` (in order). Existing rows
  /// are indexed by a full scan, like the paper's create-index-after-load.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& column_names);

  /// nullptr when absent.
  const BTreeIndex* FindIndex(const std::string& index_name) const;

  /// Builds the index key for `row` for index `index_name`.
  Key MakeKey(const std::string& index_name, const Row& row) const;

 private:
  struct IndexInfo {
    std::vector<int> column_indexes;
    std::unique_ptr<BTreeIndex> tree;
  };

  Key ExtractKey(const IndexInfo& info, const Row& row) const;

  std::string name_;
  Schema schema_;
  storage::SimulatedDisk* disk_;
  storage::HeapFile file_;
  std::map<std::string, IndexInfo> indexes_;
  std::set<storage::RecordId> deleted_;
};

/// A named collection of tables sharing one simulated disk + buffer pool —
/// one "database instance" in the paper's sense (e.g. DCSDS, TCMDN...).
class Database {
 public:
  explicit Database(storage::SimulatedDisk& disk, storage::BufferPool& pool)
      : disk_(&disk), pool_(&pool) {}

  Result<Table*> CreateTable(const std::string& name, Schema schema);
  /// Drops a table and its indexes (its disk pages stay allocated).
  void DropTable(const std::string& name);
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  storage::SimulatedDisk& disk() { return *disk_; }
  storage::BufferPool& pool() { return *pool_; }

 private:
  storage::SimulatedDisk* disk_;
  storage::BufferPool* pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace xbench::relational

#endif  // XBENCH_RELATIONAL_TABLE_H_
