#include "xml/schema_summary.h"

#include <algorithm>

namespace xbench::xml {

void SchemaSummary::AddDocument(const Document& doc) {
  if (doc.root() == nullptr) return;
  ++document_count_;
  if (root_type_.empty()) root_type_ = doc.root()->name();
  if (std::find(root_types_.begin(), root_types_.end(),
                doc.root()->name()) == root_types_.end()) {
    root_types_.push_back(doc.root()->name());
  }
  Accumulate(*doc.root(), 1);
}

void SchemaSummary::Accumulate(const Node& node, int depth) {
  max_depth_ = std::max(max_depth_, depth);
  TypeInfo& info = types_[node.name()];
  ++info.instance_count;
  for (const Attribute& attr : node.attributes()) {
    ++info.attributes[std::string(attr.name)];
  }

  // Count per-type occurrences among this instance's children, and record
  // the order in which distinct types appear.
  std::map<std::string, int> counts;
  std::vector<std::string> appearance;
  for (const auto& child : node.children()) {
    if (child->is_text()) {
      info.has_text = true;
      continue;
    }
    if (counts.find(child->name()) == counts.end()) {
      appearance.push_back(child->name());
    }
    if (++counts[child->name()] == 1 &&
        info.children.find(child->name()) == info.children.end()) {
      info.child_order.push_back(child->name());
      // A child type first seen on the Nth instance was absent on the
      // previous N-1 instances, so its min is 0.
      ChildStats stats;
      stats.name = child->name();
      stats.min_occurs = info.instance_count > 1 ? 0 : counts[child->name()];
      info.children[child->name()] = stats;
    }
  }
  for (auto& [name, stats] : info.children) {
    auto it = counts.find(name);
    const int n = it == counts.end() ? 0 : it->second;
    if (info.instance_count == 1) {
      stats.min_occurs = n;
      stats.max_occurs = n;
    } else {
      stats.min_occurs = std::min(stats.min_occurs, n);
      stats.max_occurs = std::max(stats.max_occurs, n);
    }
  }
  for (size_t i = 0; i < appearance.size(); ++i) {
    for (size_t j = i + 1; j < appearance.size(); ++j) {
      info.order_edges.emplace(appearance[i], appearance[j]);
    }
  }

  for (const auto& child : node.children()) {
    if (child->is_element()) Accumulate(*child, depth + 1);
  }
}

std::vector<std::string> SchemaSummary::ElementTypes() const {
  std::vector<std::string> out;
  out.reserve(types_.size());
  for (const auto& [name, info] : types_) out.push_back(name);
  return out;
}

std::vector<std::string> SchemaSummary::AttributesOf(
    const std::string& element_type) const {
  auto it = types_.find(element_type);
  if (it == types_.end()) return {};
  std::vector<std::string> out;
  for (const auto& [name, count] : it->second.attributes) {
    out.push_back(name);
  }
  return out;
}

std::vector<ChildStats> SchemaSummary::ChildrenOf(
    const std::string& element_type) const {
  auto it = types_.find(element_type);
  if (it == types_.end()) return {};
  const TypeInfo& info = it->second;

  // Topological order of the observed precedences (Kahn), tie-broken by
  // first-seen order. Falls back to first-seen order on a cycle (truly
  // interleaved children cannot be expressed as a sequence model anyway).
  std::map<std::string, int> in_degree;
  for (const std::string& name : info.child_order) in_degree[name] = 0;
  for (const auto& [a, b] : info.order_edges) {
    if (info.order_edges.count({b, a}) != 0) continue;  // contradiction
    ++in_degree[b];
  }
  std::vector<std::string> order;
  std::set<std::string> done;
  while (order.size() < info.child_order.size()) {
    bool advanced = false;
    for (const std::string& name : info.child_order) {
      if (done.count(name) != 0 || in_degree[name] != 0) continue;
      order.push_back(name);
      done.insert(name);
      for (const auto& [a, b] : info.order_edges) {
        if (a == name && info.order_edges.count({b, a}) == 0) {
          --in_degree[b];
        }
      }
      advanced = true;
      break;
    }
    if (!advanced) {  // cycle: fall back
      order = info.child_order;
      break;
    }
  }

  std::vector<ChildStats> out;
  for (const std::string& name : order) {
    out.push_back(info.children.at(name));
  }
  return out;
}

namespace {

void RenderRec(const SchemaSummary& summary, const std::string& type,
               const std::string& prefix, int depth,
               std::set<std::string>& on_path, std::string& out) {
  auto attrs = summary.AttributesOf(type);
  out += type;
  for (const std::string& attr : attrs) {
    out += " @" + attr;
  }
  out.push_back('\n');
  if (on_path.count(type) != 0) {
    // Recursive element type (TC/MD articles allow these); cut the cycle.
    return;
  }
  on_path.insert(type);
  auto children = summary.ChildrenOf(type);
  for (size_t i = 0; i < children.size(); ++i) {
    const ChildStats& child = children[i];
    const bool last = i + 1 == children.size();
    out += prefix;
    out += last ? "`-- " : "|-- ";
    if (child.min_occurs == 0) out += "? ";
    if (child.max_occurs > 1) out += "* ";
    RenderRec(summary, child.name, prefix + (last ? "    " : "|   "),
              depth + 1, on_path, out);
  }
  on_path.erase(type);
}

}  // namespace

std::string SchemaSummary::ToTree() const {
  if (root_type_.empty()) return "(empty)\n";
  std::string out;
  std::set<std::string> on_path;
  RenderRec(*this, root_type_, "", 0, on_path, out);
  return out;
}

std::string SchemaSummary::ToDtd() const {
  std::string out;
  // Root type first, then the rest alphabetically (types_ is ordered).
  std::vector<std::string> order;
  if (!root_type_.empty()) order.push_back(root_type_);
  for (const auto& [name, info] : types_) {
    if (name != root_type_) order.push_back(name);
  }
  for (const std::string& name : order) {
    const TypeInfo& info = types_.at(name);
    std::string model;
    if (info.has_text && !info.children.empty()) {
      // Mixed content model.
      model = "(#PCDATA";
      for (const std::string& child : info.child_order) {
        model += " | " + child;
      }
      model += ")*";
    } else if (info.has_text) {
      model = "(#PCDATA)";
    } else if (info.children.empty()) {
      model = "EMPTY";
    } else {
      model = "(";
      const std::vector<ChildStats> ordered = ChildrenOf(name);
      for (size_t i = 0; i < ordered.size(); ++i) {
        const ChildStats& stats = ordered[i];
        if (i != 0) model += ", ";
        model += stats.name;
        if (stats.min_occurs == 0 && stats.max_occurs <= 1) {
          model += "?";
        } else if (stats.min_occurs == 0) {
          model += "*";
        } else if (stats.max_occurs > 1) {
          model += "+";
        }
      }
      model += ")";
    }
    out += "<!ELEMENT " + name + " " + model + ">\n";
    for (const auto& [attr, count] : info.attributes) {
      const bool required = count == info.instance_count;
      out += "<!ATTLIST " + name + " " + attr + " CDATA " +
             (required ? "#REQUIRED" : "#IMPLIED") + ">\n";
    }
  }
  return out;
}

}  // namespace xbench::xml
