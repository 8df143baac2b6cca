#ifndef XBENCH_ENGINES_SECONDARY_INDEX_H_
#define XBENCH_ENGINES_SECONDARY_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "xml/node.h"
#include "xquery/path_guide.h"

namespace xbench::engines {

/// Node-granular posting: which document (registry ordinal) and which
/// node inside it (pre-order number from Document::AssignOrder). Packed
/// into the storage::RecordId space as (ordinal << 32) | order so the
/// B+-tree value indexes can carry the same coordinates.
inline uint64_t PackNodeRid(size_t ordinal, uint32_t order) {
  return (static_cast<uint64_t>(ordinal) << 32) | order;
}
inline size_t RidOrdinal(uint64_t rid) { return static_cast<size_t>(rid >> 32); }
inline uint32_t RidOrder(uint64_t rid) {
  return static_cast<uint32_t>(rid & 0xffffffffu);
}

/// Structural index: the number of stored elements at each distinct
/// qualified path ("catalog/item/name"), plus the per-collection
/// statistics the cost model reads (document count, element counts by tag,
/// root tags). The set of paths is the collection's DataGuide; the index
/// keeps one immutable xquery::PathGuide built from it, which guided walks
/// read at run time. The native engine maintains one unconditionally.
///
/// Thread safety: none; the owner serializes access (the native engine
/// mutates it and rebuilds the guide under the exclusive collection lock,
/// and hands the guide to statements under the shared lock).
class PathIndex {
 public:
  /// Counts every element of `root` under its qualified path.
  void AddDocument(const xml::Node& root);

  /// Uncounts every element of `root`; a path whose count drops to zero
  /// leaves the path set.
  void RemoveDocument(const xml::Node& root);

  /// Rebuilds the guide when the path set changed since the last call.
  void RefreshGuide();

  /// The guide as of the last RefreshGuide; never null.
  const std::shared_ptr<const xquery::PathGuide>& guide() const {
    return guide_;
  }

  uint64_t documents() const { return documents_; }
  uint64_t total_elements() const { return total_elements_; }
  const std::map<std::string, uint64_t>& elements_by_name() const {
    return element_counts_;
  }
  /// Distinct root-element tags currently loaded.
  std::vector<std::string> root_names() const;

 private:
  std::map<std::string, uint64_t> path_counts_;
  bool paths_changed_ = false;
  std::shared_ptr<const xquery::PathGuide> guide_ =
      std::make_shared<const xquery::PathGuide>();
  std::map<std::string, uint64_t> element_counts_;
  std::map<std::string, uint64_t> root_counts_;
  uint64_t documents_ = 0;
  uint64_t total_elements_ = 0;
};

/// Inverted text index over element text, serving contains-word() probes.
///
/// Posting rule: an element E posts a word w iff w is a *direct* token of
/// E — w tokenizes out of TextContent(E) but out of no single element
/// child's TextContent. Tokens are maximal [A-Za-z0-9_] runs,
/// case-sensitive, matching common/strings.h ContainsWord boundaries.
/// The set-difference makes postings sparse while keeping lookups a
/// superset: any element whose TextContent word-contains w has a
/// descendant-or-self posting w (tokens that merge across child
/// boundaries, e.g. "foo"+"word" -> "fooword", post at the merge point).
/// Probe consumers re-check the original predicate on each candidate, so
/// the superset is harmless.
///
/// Thread safety: none; owner serializes (see PathIndex).
class TextIndex {
 public:
  /// When non-null, Lookup charges the clock like a B+-tree probe: one
  /// page read for the dictionary plus one per 128 postings scanned.
  explicit TextIndex(VirtualClock* clock = nullptr,
                     uint64_t page_read_micros = 40)
      : clock_(clock), page_read_micros_(page_read_micros) {}

  void AddDocument(size_t ordinal, const xml::Node& root);
  void RemoveDocument(size_t ordinal);

  /// Packed node rids of elements directly posting `word`, ascending.
  std::vector<uint64_t> Lookup(const std::string& word) const;

  uint64_t entries() const { return entries_; }
  uint64_t distinct_words() const { return postings_.size(); }

 private:
  std::map<std::string, std::vector<uint64_t>> postings_;
  uint64_t entries_ = 0;
  VirtualClock* clock_;
  uint64_t page_read_micros_;
};

/// Value postings of one Table-3 style path over one document tree:
/// (value, pre-order number of the posted node's *anchor element*).
/// For "item/@id" the anchor is the `item` element carrying the
/// attribute; for a child-value path "hw" the anchor is the `hw` element
/// itself (probes map it to its parent). When `single_valued` is
/// non-null it is AND-ed with "no parent gained two postings from this
/// tree" — the precondition for decomposing range probes over the index.
std::vector<std::pair<std::string, uint32_t>> ExtractIndexPostings(
    const xml::Node& root, const std::string& path,
    bool* single_valued = nullptr);

}  // namespace xbench::engines

#endif  // XBENCH_ENGINES_SECONDARY_INDEX_H_
