#include "xml/arena.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <memory>
#include <new>

#include "xml/node.h"

namespace xbench::xml {
namespace {

/// Default first block: enough for a small constructed result without
/// asking the allocator again.
constexpr size_t kDefaultFirstBlockBytes = 4096;

/// The name of every text node.
const std::string& EmptyName() {
  static const std::string* empty = new std::string();
  return *empty;
}

}  // namespace

Arena::Arena(size_t first_block_bytes)
    : next_block_bytes_(std::clamp(first_block_bytes, kDefaultFirstBlockBytes,
                                   kMaxBlockBytes)) {}

Arena::~Arena() {
  // Names longer than the small-string buffer own heap memory.
  for (size_t i = 0; i < name_capacity_; ++i) {
    if (name_slots_[i] != nullptr) std::destroy_at(name_slots_[i]);
  }
  for (const Block& block : blocks_) {
    XBENCH_ARENA_UNPOISON(block.data, block.size);
    delete[] block.data;
  }
}

void Arena::NewBlock(size_t min_bytes) {
  // Blocks come in few distinct sizes (8..15 × a power of two, so at most
  // 1/8 is rounding), which keeps the allocator's free lists short when
  // many documents of slightly different sizes are dropped and re-parsed
  // (a cold restart).
  size_t bytes = std::max(next_block_bytes_, min_bytes);
  const size_t step = size_t{1}
                      << (std::max<size_t>(std::bit_width(bytes), 4) - 4);
  bytes = (bytes + step - 1) & ~(step - 1);
  blocks_.push_back({new char[bytes], bytes});
  cur_ = blocks_.back().data;
  end_ = cur_ + bytes;
  XBENCH_ARENA_POISON(cur_, bytes);
  // A first block sized by an estimate leaves little to spill, so the
  // doubling restarts from a quarter of it.
  next_block_bytes_ =
      blocks_.size() == 1 && bytes < kMaxBlockBytes
          ? std::max(bytes / 4, kDefaultFirstBlockBytes)
          : std::min(bytes * 2, kMaxBlockBytes);
}

std::string_view Arena::CopyString(std::string_view text) {
  if (text.empty()) return {};
  char* out = AllocateArray<char>(text.size());
  std::memcpy(out, text.data(), text.size());
  return {out, text.size()};
}

const std::string& Arena::Intern(std::string_view name) {
  if (2 * (name_count_ + 1) > name_capacity_) GrowNameIndex();
  const size_t mask = name_capacity_ - 1;
  for (size_t i = std::hash<std::string_view>{}(name) & mask;;
       i = (i + 1) & mask) {
    if (name_slots_[i] == nullptr) {
      name_slots_[i] = new (Allocate(sizeof(std::string), alignof(std::string)))
          std::string(name);
      ++name_count_;
      return *name_slots_[i];
    }
    if (*name_slots_[i] == name) return *name_slots_[i];
  }
}

void Arena::GrowNameIndex() {
  const size_t capacity = std::max<size_t>(16, 2 * name_capacity_);
  std::string** slots = AllocateArray<std::string*>(capacity);
  std::fill(slots, slots + capacity, nullptr);
  for (size_t i = 0; i < name_capacity_; ++i) {
    std::string* name = name_slots_[i];
    if (name == nullptr) continue;
    size_t j = std::hash<std::string_view>{}(*name) & (capacity - 1);
    while (slots[j] != nullptr) j = (j + 1) & (capacity - 1);
    slots[j] = name;
  }
  name_slots_ = slots;
  name_capacity_ = capacity;
}

Node* Arena::NewElement(std::string_view name) {
  return new (Allocate(sizeof(Node), alignof(Node)))
      Node(this, NodeKind::kElement, &Intern(name));
}

Node* Arena::NewText(std::string_view text) {
  Node* node = new (Allocate(sizeof(Node), alignof(Node)))
      Node(this, NodeKind::kText, &EmptyName());
  const std::string_view copy = CopyString(text);
  node->text_ = copy.data();
  node->size_ = static_cast<uint32_t>(copy.size());
  return node;
}

void Arena::Adopt(std::unique_ptr<Arena> child) {
  if (child != nullptr && !child->empty()) adopted_.push_back(std::move(child));
}

size_t Arena::reserved_bytes() const {
  size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  for (const auto& child : adopted_) total += child->reserved_bytes();
  return total;
}

}  // namespace xbench::xml
