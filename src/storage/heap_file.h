#ifndef XBENCH_STORAGE_HEAP_FILE_H_
#define XBENCH_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"

namespace xbench::storage {

/// Byte offset of a record within a heap file; doubles as the record id.
using RecordId = uint64_t;

/// Append-only record file over the buffer pool. Records are stored as a
/// contiguous byte log ([u32 length][payload]) spanning page boundaries,
/// so a record read touches ceil(bytes/page) pages — large documents cost
/// proportionally more I/O, which is what the benchmark measures.
///
/// The workload is load-then-query (the paper defers updates to future
/// versions), so deletion/update support is intentionally absent; only a
/// failed load truncates what it appended.
///
/// Thread safety: Read()/Scan() go through the pool's latched ReadAt()
/// path and may run from any number of threads concurrently. Append()
/// mutates the page directory and file extent and requires exclusive
/// access — the engines guarantee this by taking their collection lock
/// exclusively around all load/insert paths.
class HeapFile {
 public:
  explicit HeapFile(SimulatedDisk& disk, BufferPool& pool)
      : disk_(disk), pool_(&pool) {}

  /// Appends a record and returns its id. Requires exclusive access.
  RecordId Append(std::string_view payload);

  /// Reads the record at `id`. Safe to call concurrently.
  std::string Read(RecordId id);

  /// Sequentially visits every record in append order. The callback gets
  /// (id, payload); returning false stops the scan early. Safe to call
  /// concurrently.
  void Scan(const std::function<bool(RecordId, std::string_view)>& visit);

  /// Drops every record appended since size_bytes() was `size_bytes` and
  /// record_count() was `record_count`: the undo of a failed load. The
  /// pages stay allocated, and later appends overwrite them. Requires
  /// exclusive access.
  void Truncate(uint64_t size_bytes, uint64_t record_count);

  uint64_t record_count() const { return record_count_; }
  uint64_t size_bytes() const { return end_offset_; }

 private:
  /// Translates a byte offset to its page id, allocating pages on demand
  /// when `grow` is set (write path only).
  PageId PageForOffset(uint64_t offset, bool grow);

  void WriteBytes(uint64_t offset, const void* data, size_t size);
  void ReadBytes(uint64_t offset, void* data, size_t size);

  SimulatedDisk& disk_;
  BufferPool* pool_;
  uint64_t end_offset_ = 0;
  uint64_t record_count_ = 0;
  // Page ids are allocated from the shared disk, so this file's pages need
  // an explicit index (they are not necessarily contiguous on the disk).
  std::vector<PageId> pages_;
};

}  // namespace xbench::storage

#endif  // XBENCH_STORAGE_HEAP_FILE_H_
