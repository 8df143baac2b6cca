#ifndef XBENCH_XQUERY_PLAN_CATALOG_H_
#define XBENCH_XQUERY_PLAN_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "xquery/path_guide.h"

namespace xbench::xquery::plan {

/// What a secondary index maps. The planner only consumes this catalog
/// view; the structures themselves live in the engine layer
/// (engines/secondary_index.h, relational/btree.h).
enum class IndexKind {
  /// B+-tree over the typed value of one path ("item/@id", "hw"):
  /// key -> element postings.
  kValue,
  /// Inverted text index: word token -> element postings.
  kText,
};

const char* IndexKindName(IndexKind kind);

/// Per-index statistics the cost model consumes. Snapshotted together
/// with the collection statistics; a snapshot is consistent for the
/// epoch it was taken at.
struct IndexStats {
  std::string name;
  IndexKind kind = IndexKind::kValue;
  /// kValue: the indexed path, either "element" (child text value) or
  /// "element/@attr". Empty for kText.
  std::string path;
  /// Total postings.
  uint64_t entries = 0;
  /// Distinct keys (value) or distinct word tokens (text).
  uint64_t distinct_keys = 0;
  /// B+-tree height in nodes (root -> leaf); 1 for flat structures.
  int height = 1;
  /// kValue only: every parent element carries at most one indexed
  /// child/attribute. Required for range probes to be sound (a range
  /// conjunction pair `p >= lo and p <= hi` decomposes into one interval
  /// probe only when p is single-valued per context element).
  bool single_valued = true;
};

/// Collection-wide statistics, maintained by the engine's structural
/// path index (so they describe the *actual* collection, unlike the
/// canonical-sample SchemaSummary cardinalities).
struct CollectionStats {
  uint64_t documents = 0;
  uint64_t total_elements = 0;
  /// Element count per tag name.
  std::map<std::string, uint64_t> elements_by_name;
  /// Distinct document-root tag names in the collection.
  std::vector<std::string> root_names;
  /// The collection's path guide as of this snapshot; kAuto prices guided
  /// walks with it. Null when the catalog does not come from an engine.
  std::shared_ptr<const PathGuide> guide;
};

/// The planner-facing view of an engine's secondary indexes. Engines
/// mirror their index state into one of these (bumping `epoch` on any
/// DDL or document mutation); the compilation pipeline treats it as an
/// immutable snapshot and the plan cache keys on the epoch, so a plan
/// compiled against a stale catalog is never served.
struct IndexCatalog {
  uint64_t epoch = 0;
  std::vector<IndexStats> indexes;
  CollectionStats collection;

  /// Index by name; nullptr when absent.
  const IndexStats* Find(const std::string& name) const;
  /// First kValue index whose `path` equals `path`; nullptr when absent.
  const IndexStats* FindValueIndexForPath(const std::string& path) const;
  /// First index of `kind`; nullptr when absent.
  const IndexStats* FindByKind(IndexKind kind) const;
};

}  // namespace xbench::xquery::plan

#endif  // XBENCH_XQUERY_PLAN_CATALOG_H_
