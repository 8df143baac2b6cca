#ifndef XBENCH_XQUERY_PATH_GUIDE_H_
#define XBENCH_XQUERY_PATH_GUIDE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "xml/node.h"

namespace xbench::xquery {

/// One node of a guide's label trie. The root stands for the context
/// element; every other node is one child element label on the way down
/// to a `//name` target. `match` marks the labels at which a reached
/// element is itself a target.
struct GuideNode {
  std::string label;
  bool match = false;
  std::vector<GuideNode> next;

  /// The continuation for a child element named `name`; null when no
  /// stored path leads through it.
  const GuideNode* Find(std::string_view name) const;
};

/// A DataGuide (Goldman & Widom, VLDB 1997) of one stored collection:
/// built from the set of distinct root-to-element label paths, it holds,
/// for each (context tag, target name), the trie of label chains that lead
/// from an element with that tag down to an element with that name. The
/// chains come from the stored data itself, so a walk that follows them
/// finds every match a full subtree scan would.
///
/// Immutable after construction; any number of threads may read one.
class PathGuide {
 public:
  PathGuide() = default;
  /// `paths` are the collection's distinct qualified element paths
  /// ("dictionary/e/hw").
  explicit PathGuide(const std::vector<std::string>& paths);

  /// Whether a `//name_test` step can be walked through a guide: element
  /// names only, not `*` or `text()`.
  static bool Guides(std::string_view name_test);

  /// The chain trie from `context` to `target`, or null when the guide
  /// does not cover `context`: a node outside every stored document (its
  /// arena has no collection rank, e.g. a constructed tree) or a target
  /// the guide cannot express. A covered context without chains gets an
  /// empty trie: no stored path leads to the target.
  const GuideNode* Chains(const xml::Node& context,
                          std::string_view target) const;

  /// The chain trie below elements tagged `context_type` (no coverage
  /// check); used by the planner to estimate guided-walk visits.
  const GuideNode& ChainsBelow(std::string_view context_type,
                               std::string_view target) const;

 private:
  /// target name -> context tag -> chain trie.
  std::map<std::string, std::map<std::string, GuideNode, std::less<>>,
           std::less<>>
      tries_;
  GuideNode empty_;
};

}  // namespace xbench::xquery

#endif  // XBENCH_XQUERY_PATH_GUIDE_H_
