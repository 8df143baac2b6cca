#include "xquery/path_guide.h"

#include "common/strings.h"

namespace xbench::xquery {

const GuideNode* GuideNode::Find(std::string_view name) const {
  for (const GuideNode& child : next) {
    if (child.label == name) return &child;
  }
  return nullptr;
}

PathGuide::PathGuide(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    const std::vector<std::string> labels = Split(path, '/');
    // Every element on the path is a target for every ancestor on it; the
    // chain between them is the labels strictly below the ancestor.
    for (size_t target = 1; target < labels.size(); ++target) {
      auto& by_context = tries_[labels[target]];
      for (size_t context = 0; context < target; ++context) {
        GuideNode* node = &by_context[labels[context]];
        node->label = labels[context];
        for (size_t i = context + 1; i <= target; ++i) {
          GuideNode* found = nullptr;
          for (GuideNode& child : node->next) {
            if (child.label == labels[i]) found = &child;
          }
          if (found == nullptr) {
            node->next.push_back(GuideNode{labels[i], false, {}});
            found = &node->next.back();
          }
          node = found;
        }
        node->match = true;
      }
    }
  }
}

bool PathGuide::Guides(std::string_view name_test) {
  return name_test != "*" && name_test != "text()";
}

const GuideNode* PathGuide::Chains(const xml::Node& context,
                                   std::string_view target) const {
  if (context.arena().rank() == xml::Arena::kNoRank || !Guides(target)) {
    return nullptr;
  }
  return &ChainsBelow(context.name(), target);
}

const GuideNode& PathGuide::ChainsBelow(std::string_view context_type,
                                        std::string_view target) const {
  auto by_target = tries_.find(target);
  if (by_target == tries_.end()) return empty_;
  auto by_context = by_target->second.find(context_type);
  return by_context == by_target->second.end() ? empty_ : by_context->second;
}

}  // namespace xbench::xquery
