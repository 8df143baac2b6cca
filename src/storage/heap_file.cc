#include "storage/heap_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace xbench::storage {

PageId HeapFile::PageForOffset(uint64_t offset, bool grow) {
  const uint64_t page_index = offset / kPageSize;
  if (grow) {
    while (page_index >= pages_.size()) {
      pages_.push_back(disk_.Allocate());
    }
  }
  assert(page_index < pages_.size());
  return pages_[page_index];
}

void HeapFile::WriteBytes(uint64_t offset, const void* data, size_t size) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const size_t in_page = offset % kPageSize;
    const size_t chunk = std::min(size, kPageSize - in_page);
    pool_->WriteAt(PageForOffset(offset, /*grow=*/true), in_page, src, chunk);
    src += chunk;
    offset += chunk;
    size -= chunk;
  }
}

void HeapFile::ReadBytes(uint64_t offset, void* data, size_t size) {
  uint8_t* dst = static_cast<uint8_t*>(data);
  while (size > 0) {
    const size_t in_page = offset % kPageSize;
    const size_t chunk = std::min(size, kPageSize - in_page);
    pool_->ReadAt(PageForOffset(offset, /*grow=*/false), in_page, dst, chunk);
    dst += chunk;
    offset += chunk;
    size -= chunk;
  }
}

RecordId HeapFile::Append(std::string_view payload) {
  const RecordId id = end_offset_;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  WriteBytes(end_offset_, &length, sizeof(length));
  WriteBytes(end_offset_ + sizeof(length), payload.data(), payload.size());
  end_offset_ += sizeof(length) + payload.size();
  ++record_count_;
  return id;
}

void HeapFile::Truncate(uint64_t size_bytes, uint64_t record_count) {
  assert(size_bytes <= end_offset_ && record_count <= record_count_);
  end_offset_ = size_bytes;
  record_count_ = record_count;
}

std::string HeapFile::Read(RecordId id) {
  uint32_t length = 0;
  ReadBytes(id, &length, sizeof(length));
  std::string payload(length, '\0');
  ReadBytes(id + sizeof(length), payload.data(), length);
  return payload;
}

void HeapFile::Scan(
    const std::function<bool(RecordId, std::string_view)>& visit) {
  uint64_t offset = 0;
  while (offset < end_offset_) {
    uint32_t length = 0;
    ReadBytes(offset, &length, sizeof(length));
    std::string payload(length, '\0');
    ReadBytes(offset + sizeof(length), payload.data(), length);
    if (!visit(offset, payload)) return;
    offset += sizeof(length) + length;
  }
}

}  // namespace xbench::storage
