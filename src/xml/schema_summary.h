#ifndef XBENCH_XML_SCHEMA_SUMMARY_H_
#define XBENCH_XML_SCHEMA_SUMMARY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "xml/node.h"

namespace xbench::xml {

/// Statistics about one parent→child element-type edge.
struct ChildStats {
  std::string name;
  /// Minimum/maximum number of occurrences of this child type across all
  /// instances of the parent type. min == 0 means optional (rendered as the
  /// dotted boxes of the paper's Figures 1–4).
  int min_occurs = 0;
  int max_occurs = 0;
};

/// Structural summary of a document collection: the element-type graph with
/// occurrence bounds, attribute inventory, and depth — the information the
/// paper visualizes as schema diagrams (Figures 1–4).
class SchemaSummary {
 public:
  /// Accumulates the structure of `doc` into the summary.
  void AddDocument(const Document& doc);

  /// Renders an ASCII tree rooted at the (single) root element type.
  /// Optional children are marked with '?', repeated children with '*'.
  std::string ToTree() const;

  /// Emits a DTD inferred from the instances — the paper's companion
  /// report ships DTD/XML Schema files for each class; this derives the
  /// equivalent from generated data. Content models use the observed
  /// child order with ?/+/* occurrence markers; elements with text get
  /// #PCDATA (mixed models when they also have element children);
  /// attributes are CDATA #REQUIRED/#IMPLIED by observed presence.
  std::string ToDtd() const;

  /// Distinct document-root element types in first-seen order. Multi-root
  /// collections (DC/MD order documents plus flat tables) have several.
  const std::vector<std::string>& RootTypes() const { return root_types_; }

  /// Attribute names seen on `element_type`.
  std::vector<std::string> AttributesOf(const std::string& element_type) const;

  /// Children stats of `element_type` in first-seen order.
  std::vector<ChildStats> ChildrenOf(const std::string& element_type) const;

  int max_depth() const { return max_depth_; }
  size_t document_count() const { return document_count_; }

 private:
  struct TypeInfo {
    // first-seen order of child types (tie-break for the topo sort).
    std::vector<std::string> child_order;
    std::map<std::string, ChildStats> children;
    // Observed pairwise sibling precedences (a appeared before b) — the
    // DTD content model orders children by the topological order of this
    // relation, so optional children missing from early instances still
    // land in the right slot.
    std::set<std::pair<std::string, std::string>> order_edges;
    // attribute name -> number of instances carrying it.
    std::map<std::string, int> attributes;
    int instance_count = 0;
    bool has_text = false;
  };

  void Accumulate(const Node& node, int depth);

  std::map<std::string, TypeInfo> types_;
  std::string root_type_;
  std::vector<std::string> root_types_;
  int max_depth_ = 0;
  size_t document_count_ = 0;
};

}  // namespace xbench::xml

#endif  // XBENCH_XML_SCHEMA_SUMMARY_H_
