#include "engines/secondary_index.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/strings.h"

namespace xbench::engines {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Maximal [A-Za-z0-9_] runs of `text`, deduplicated. Matches the word
/// boundaries of common/strings.h ContainsWord (case-sensitive).
std::set<std::string> Tokenize(const std::string& text) {
  std::set<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (!IsWordChar(text[i])) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < text.size() && IsWordChar(text[j])) ++j;
    tokens.insert(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

}  // namespace

// --- PathIndex ------------------------------------------------------------

namespace {

template <typename Fn>
void WalkElements(const xml::Node& node, std::string& path, const Fn& fn) {
  if (!node.is_element()) return;
  const size_t saved = path.size();
  if (!path.empty()) path += '/';
  path += node.name();
  fn(node, path);
  for (const auto& child : node.children()) WalkElements(*child, path, fn);
  path.resize(saved);
}

}  // namespace

void PathIndex::AddDocument(const xml::Node& root) {
  std::string path;
  WalkElements(root, path, [&](const xml::Node& node, const std::string& p) {
    if (++path_counts_[p] == 1) paths_changed_ = true;
    ++element_counts_[node.name()];
    ++total_elements_;
  });
  if (root.is_element()) ++root_counts_[root.name()];
  ++documents_;
}

void PathIndex::RemoveDocument(const xml::Node& root) {
  std::string path;
  WalkElements(root, path, [&](const xml::Node& node, const std::string& p) {
    auto path_it = path_counts_.find(p);
    if (path_it != path_counts_.end() && --path_it->second == 0) {
      path_counts_.erase(path_it);
      paths_changed_ = true;
    }
    auto it = element_counts_.find(node.name());
    if (it != element_counts_.end() && --it->second == 0) {
      element_counts_.erase(it);
    }
    --total_elements_;
  });
  if (root.is_element()) {
    auto it = root_counts_.find(root.name());
    if (it != root_counts_.end() && --it->second == 0) root_counts_.erase(it);
  }
  if (documents_ > 0) --documents_;
}

void PathIndex::RefreshGuide() {
  if (!paths_changed_) return;
  std::vector<std::string> paths;
  paths.reserve(path_counts_.size());
  for (const auto& [path, count] : path_counts_) paths.push_back(path);
  guide_ = std::make_shared<const xquery::PathGuide>(paths);
  paths_changed_ = false;
}

std::vector<std::string> PathIndex::root_names() const {
  std::vector<std::string> names;
  names.reserve(root_counts_.size());
  for (const auto& [name, count] : root_counts_) names.push_back(name);
  return names;
}

// --- TextIndex ------------------------------------------------------------

namespace {

/// Posts every direct token of `node`'s subtree into `postings`, returns
/// the full token set of TextContent(node). Children are processed first
/// so a token merged across a child boundary ("foo"+"word" -> "fooword")
/// posts at the merge point while the fragments post below it.
std::set<std::string> IndexElementText(
    const xml::Node& node, size_t ordinal,
    std::map<std::string, std::vector<uint64_t>>& postings,
    uint64_t& entries) {
  std::set<std::string> child_tokens;
  for (const auto& child : node.children()) {
    if (!child->is_element()) continue;
    std::set<std::string> sub =
        IndexElementText(*child, ordinal, postings, entries);
    child_tokens.insert(sub.begin(), sub.end());
  }
  std::set<std::string> tokens = Tokenize(node.TextContent());
  for (const std::string& token : tokens) {
    if (child_tokens.count(token)) continue;
    postings[token].push_back(PackNodeRid(ordinal, node.order()));
    ++entries;
  }
  return tokens;
}

}  // namespace

void TextIndex::AddDocument(size_t ordinal, const xml::Node& root) {
  if (!root.is_element()) return;
  IndexElementText(root, ordinal, postings_, entries_);
}

void TextIndex::RemoveDocument(size_t ordinal) {
  for (auto it = postings_.begin(); it != postings_.end();) {
    auto& vec = it->second;
    const size_t before = vec.size();
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](uint64_t rid) {
                               return RidOrdinal(rid) == ordinal;
                             }),
              vec.end());
    entries_ -= before - vec.size();
    it = vec.empty() ? postings_.erase(it) : std::next(it);
  }
}

std::vector<uint64_t> TextIndex::Lookup(const std::string& word) const {
  auto it = postings_.find(word);
  std::vector<uint64_t> rids;
  if (it != postings_.end()) rids = it->second;
  std::sort(rids.begin(), rids.end());
  if (clock_ != nullptr) {
    clock_->AdvanceMicros(page_read_micros_ * (1 + rids.size() / 128));
  }
  return rids;
}

// --- Value postings -------------------------------------------------------

std::vector<std::pair<std::string, uint32_t>> ExtractIndexPostings(
    const xml::Node& root, const std::string& path, bool* single_valued) {
  std::vector<std::pair<std::string, uint32_t>> out;
  std::vector<std::string> parts = Split(path, '/');
  if (parts.empty()) return out;
  const std::string& element = parts[0];
  std::string attribute;
  if (parts.size() == 2 && !parts[1].empty() && parts[1][0] == '@') {
    attribute = parts[1].substr(1);
  }
  std::set<const xml::Node*> posted_parents;
  root.Visit([&](const xml::Node& node) {
    if (!node.is_element() || node.name() != element) return;
    if (!attribute.empty()) {
      // Anchor = the element carrying the attribute; one value each, so
      // the per-parent multiplicity check is vacuous.
      if (const std::string_view* v = node.FindAttribute(attribute)) {
        out.emplace_back(std::string(*v), node.order());
      }
      return;
    }
    // Child-value path: anchor = the named element; probes resolve it to
    // its parent, so two posted siblings make that parent multi-valued.
    out.emplace_back(node.TextContent(), node.order());
    if (single_valued != nullptr && node.parent() != nullptr) {
      if (!posted_parents.insert(node.parent()).second) {
        *single_valued = false;
      }
    }
  });
  return out;
}

}  // namespace xbench::engines
