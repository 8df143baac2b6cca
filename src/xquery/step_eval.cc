#include "xquery/step_eval.h"

namespace xbench::xquery {

bool ElementMatches(const xml::Node& node, const std::string& name_test) {
  if (node.is_text()) return name_test == "text()";
  if (name_test == "text()") return false;
  return name_test == "*" || node.name() == name_test;
}

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

void GuidedCollect(const xml::Node& node, size_t depth,
                   const std::vector<const StepExpansion*>& chains,
                   Sequence& out, uint64_t& visited) {
  for (const xml::Node* child : node.children()) {
    if (!child->is_element()) continue;
    ++visited;
    bool emit = false;
    std::vector<const StepExpansion*> deeper;
    for (const StepExpansion* chain : chains) {
      if (chain->labels.size() <= depth ||
          chain->labels[depth] != child->name()) {
        continue;
      }
      if (chain->labels.size() == depth + 1) {
        emit = true;
      } else {
        deeper.push_back(chain);
      }
    }
    if (emit) out.push_back(Item::Node(child));
    if (!deeper.empty()) {
      GuidedCollect(*child, depth + 1, deeper, out, visited);
    }
  }
}

void GuidedCollectGroups(const xml::Node& node, size_t depth,
                         const std::vector<const StepExpansion*>& chains,
                         std::vector<Sequence>& groups,
                         uint64_t& visited) {
  Sequence here;
  for (const xml::Node* child : node.children()) {
    if (!child->is_element()) continue;
    ++visited;
    bool emit = false;
    std::vector<const StepExpansion*> deeper;
    for (const StepExpansion* chain : chains) {
      if (chain->labels.size() <= depth ||
          chain->labels[depth] != child->name()) {
        continue;
      }
      if (chain->labels.size() == depth + 1) {
        emit = true;
      } else {
        deeper.push_back(chain);
      }
    }
    if (emit) here.push_back(Item::Node(child));
    if (!deeper.empty()) {
      GuidedCollectGroups(*child, depth + 1, deeper, groups, visited);
    }
  }
  if (!here.empty()) groups.push_back(std::move(here));
}

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
