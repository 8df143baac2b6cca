#ifndef XBENCH_XML_ARENA_H_
#define XBENCH_XML_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

// Under AddressSanitizer the unallocated rest of every block is poisoned,
// so an overrun past an arena allocation is reported like any heap error
// (a read through a node of a dropped arena is a heap use-after-free).
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define XBENCH_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define XBENCH_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define XBENCH_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define XBENCH_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace xbench::xml {

class Node;

/// Bump allocator that owns the nodes of one document or one query
/// result: the nodes themselves, their text and attribute values, their
/// child and attribute arrays, and the table of the names they use.
///
/// Ownership rule: a node lives exactly as long as the arena it was
/// allocated from. Nodes are trivially destructible, so dropping an arena
/// frees its few large blocks without visiting a single node. An arena
/// never moves once created (owners hold it by pointer), which is what
/// lets every node find the arena it came from to grow its own subtree.
class Arena {
 public:
  /// `first_block_bytes` sizes the first block (the parser passes an
  /// estimate derived from the input); 0 picks a small default. The
  /// estimate is expected to hold nearly everything, so a second block is
  /// a quarter of a first one below kMaxBlockBytes (at least the default);
  /// later blocks double, capped at kMaxBlockBytes.
  explicit Arena(size_t first_block_bytes = 0);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Largest block the arena allocates on its own; a larger single
  /// request gets a block of exactly its size.
  static constexpr size_t kMaxBlockBytes = size_t{8} << 20;

  /// `bytes` of uninitialized storage aligned to `align` (a power of two
  /// no larger than alignof(std::max_align_t)).
  void* Allocate(size_t bytes, size_t align) {
    if (cur_ != nullptr) {
      const uintptr_t p = (reinterpret_cast<uintptr_t>(cur_) + align - 1) &
                          ~(uintptr_t{align} - 1);
      if (p + bytes <= reinterpret_cast<uintptr_t>(end_)) {
        cur_ = reinterpret_cast<char*>(p + bytes);
        XBENCH_ARENA_UNPOISON(reinterpret_cast<void*>(p), bytes);
        return reinterpret_cast<void*>(p);
      }
    }
    // A fresh block from operator new[] is aligned for any fundamental
    // type.
    NewBlock(bytes);
    void* p = cur_;
    cur_ += bytes;
    XBENCH_ARENA_UNPOISON(p, bytes);
    return p;
  }

  /// Uninitialized array of `n` trivially destructible T.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// A copy of `text` owned by the arena.
  std::string_view CopyString(std::string_view text);

  /// The arena's single copy of `name`; the reference stays valid for the
  /// arena's lifetime. The strings and their hash index live in the arena
  /// itself, so a small document's name table costs no extra heap
  /// allocation.
  const std::string& Intern(std::string_view name);

  /// A detached element or text node (no parent, order id 0).
  Node* NewElement(std::string_view name);
  Node* NewText(std::string_view text);

  /// Takes ownership of `child`. Its nodes stay valid (and keep growing
  /// from `child`) for as long as this arena lives; no node is copied.
  void Adopt(std::unique_ptr<Arena> child);

  /// Whether nothing was ever allocated from or adopted into this arena.
  bool empty() const { return blocks_.empty() && adopted_.empty(); }

  /// Bytes of block storage held, adopted arenas included.
  size_t reserved_bytes() const;

  /// Position of the stored document this arena holds within its
  /// collection (the engine's ordinal). Document order across documents
  /// compares ranks first, so it follows the collection rather than the
  /// allocator; kNoRank (constructed trees, builder documents) falls back
  /// to the root node's address.
  static constexpr uint64_t kNoRank = UINT64_MAX;
  uint64_t rank() const { return rank_; }
  void set_rank(uint64_t rank) { rank_ = rank; }

 private:
  void NewBlock(size_t min_bytes);
  /// Doubles the open-addressing name index (at least 16 slots).
  void GrowNameIndex();

  char* cur_ = nullptr;
  char* end_ = nullptr;
  size_t next_block_bytes_;
  uint64_t rank_ = kNoRank;
  struct Block {
    char* data;
    size_t size;
  };
  std::vector<Block> blocks_;
  /// Interned names, open addressing with linear probing; the slots and
  /// the std::string objects are arena allocations, destroyed by ~Arena.
  std::string** name_slots_ = nullptr;
  size_t name_capacity_ = 0;
  size_t name_count_ = 0;
  std::vector<std::unique_ptr<Arena>> adopted_;
};

}  // namespace xbench::xml

#endif  // XBENCH_XML_ARENA_H_
