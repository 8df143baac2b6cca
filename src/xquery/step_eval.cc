#include "xquery/step_eval.h"

namespace xbench::xquery {

bool ElementMatches(const xml::Node& node, const std::string& name_test) {
  if (node.is_text()) return name_test == "text()";
  if (name_test == "text()") return false;
  return name_test == "*" || node.name() == name_test;
}

namespace {

/// Appends every descendant of `node` matching `name_test` in document
/// order; with `include_self`, `node` itself may match too.
void CollectDescendants(const xml::Node& node, const std::string& name_test,
                        bool include_self, Sequence& out,
                        uint64_t& visited) {
  ++visited;
  if (include_self && ElementMatches(node, name_test)) {
    out.push_back(Item::Node(&node));
  }
  for (const xml::Node* child : node.children()) {
    CollectDescendants(*child, name_test, /*include_self=*/true, out, visited);
  }
}

/// Descends from `node` only along the label chains of `at` (the guide
/// trie node reached at `node`), emitting matches in pre-order.
void GuidedCollect(const xml::Node& node, const GuideNode& at, Sequence& out,
                   uint64_t& visited) {
  for (const xml::Node* child : node.children()) {
    if (!child->is_element()) continue;
    ++visited;
    const GuideNode* step = at.Find(child->name());
    if (step == nullptr) continue;
    if (step->match) out.push_back(Item::Node(child));
    if (!step->next.empty()) GuidedCollect(*child, *step, out, visited);
  }
}

/// Per-parent form of GuidedCollect: each group holds every chain-final
/// match under one parent element.
void GuidedCollectGroups(const xml::Node& node, const GuideNode& at,
                         std::vector<Sequence>& groups, uint64_t& visited) {
  Sequence here;
  for (const xml::Node* child : node.children()) {
    if (!child->is_element()) continue;
    ++visited;
    const GuideNode* step = at.Find(child->name());
    if (step == nullptr) continue;
    if (step->match) here.push_back(Item::Node(child));
    if (!step->next.empty()) {
      GuidedCollectGroups(*child, *step, groups, visited);
    }
  }
  if (!here.empty()) groups.push_back(std::move(here));
}

/// Full-scan counterpart of GuidedCollectGroups: for `node` and every
/// descendant element, the children matching `name_test` form one group —
/// exactly the candidate lists of an unfused descendant-or-self::* /
/// child::name pair.
void CollectChildGroups(const xml::Node& node, const std::string& name_test,
                        std::vector<Sequence>& groups,
                        uint64_t& visited) {
  ++visited;
  Sequence here;
  for (const xml::Node* child : node.children()) {
    if (ElementMatches(*child, name_test)) {
      here.push_back(Item::Node(child));
    }
  }
  if (!here.empty()) groups.push_back(std::move(here));
  for (const xml::Node* child : node.children()) {
    if (child->is_element()) {
      CollectChildGroups(*child, name_test, groups, visited);
    }
  }
}

}  // namespace

void CollectFusedDescendants(const xml::Node& node, const PathGuide* guide,
                             const std::string& name_test, Sequence& out,
                             uint64_t& visited) {
  const GuideNode* chains =
      guide != nullptr ? guide->Chains(node, name_test) : nullptr;
  if (chains != nullptr) {
    GuidedCollect(node, *chains, out, visited);
  } else {
    CollectDescendants(node, name_test, /*include_self=*/false, out, visited);
  }
}

void CollectFusedGroups(const xml::Node& node, const PathGuide* guide,
                        const std::string& name_test,
                        std::vector<Sequence>& groups, uint64_t& visited) {
  const GuideNode* chains =
      guide != nullptr ? guide->Chains(node, name_test) : nullptr;
  if (chains != nullptr) {
    GuidedCollectGroups(node, *chains, groups, visited);
  } else {
    CollectChildGroups(node, name_test, groups, visited);
  }
}

Sequence AxisCandidates(const xml::Node& node, Axis axis,
                        const std::string& name_test, uint64_t& visited) {
  Sequence out;
  switch (axis) {
    case Axis::kChild:
      visited += node.children().size();
      for (const xml::Node* child : node.children()) {
        if (ElementMatches(*child, name_test)) {
          out.push_back(Item::Node(child));
        }
      }
      break;
    case Axis::kDescendant:
      CollectDescendants(node, name_test, /*include_self=*/false, out,
                         visited);
      break;
    case Axis::kDescendantOrSelf:
      if (ElementMatches(node, name_test)) {
        out.push_back(Item::Node(&node));
      }
      CollectDescendants(node, name_test, /*include_self=*/false, out,
                         visited);
      break;
    case Axis::kAttribute: {
      const auto& attrs = node.attributes();
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (name_test == "*" || attrs[i].name == name_test) {
          out.push_back(Item::Attr(&node, static_cast<int>(i)));
        }
      }
      break;
    }
    case Axis::kSelf:
      if (ElementMatches(node, name_test)) {
        out.push_back(Item::Node(&node));
      }
      break;
    case Axis::kParent:
      if (node.parent() != nullptr &&
          ElementMatches(*node.parent(), name_test)) {
        out.push_back(Item::Node(node.parent()));
      }
      break;
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      const xml::Node* parent = node.parent();
      if (parent == nullptr) break;
      const auto siblings = parent->children();
      size_t self_index = siblings.size();
      for (size_t i = 0; i < siblings.size(); ++i) {
        if (siblings[i] == &node) {
          self_index = i;
          break;
        }
      }
      if (axis == Axis::kFollowingSibling) {
        for (size_t i = self_index + 1; i < siblings.size(); ++i) {
          if (ElementMatches(*siblings[i], name_test)) {
            out.push_back(Item::Node(siblings[i]));
          }
        }
      } else {
        for (size_t i = self_index; i-- > 0;) {
          if (ElementMatches(*siblings[i], name_test)) {
            out.push_back(Item::Node(siblings[i]));
          }
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace xbench::xquery
