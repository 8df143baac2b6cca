#include "xquery/sequence.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace xbench::xquery {

std::string FormatNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "INF" : "-INF";
  // The double→int64 conversion is undefined outside int64's range, so
  // only integral values inside [-2^63, 2^63) take the integer format.
  if (value >= -9223372036854775808.0 && value < 9223372036854775808.0 &&
      value == static_cast<double>(static_cast<int64_t>(value))) {
    return std::to_string(static_cast<int64_t>(value));
  }
  std::string s = std::to_string(value);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string AtomizeToString(const Item& item) {
  switch (item.kind) {
    case Item::Kind::kNode:
      return item.node->is_text() ? std::string(item.node->text())
                                  : item.node->TextContent();
    case Item::Kind::kAttribute:
      return std::string(
          item.node->attributes()[static_cast<size_t>(item.attr_index)]
              .value);
    case Item::Kind::kString:
      return item.str;
    case Item::Kind::kNumber:
      return FormatNumber(item.num);
    case Item::Kind::kBool:
      return item.boolean ? "true" : "false";
  }
  return "";
}

std::optional<double> AtomizeToNumber(const Item& item) {
  if (item.kind == Item::Kind::kNumber) return item.num;
  if (item.kind == Item::Kind::kBool) return item.boolean ? 1.0 : 0.0;
  const double value = ParseDouble(AtomizeToString(item));
  if (std::isnan(value)) return std::nullopt;
  return value;
}

Result<bool> EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  const Item& first = seq.front();
  if (first.is_node_kind()) return true;
  if (seq.size() > 1) {
    return Status::InvalidArgument(
        "effective boolean value of a multi-item atomic sequence");
  }
  switch (first.kind) {
    case Item::Kind::kBool:
      return first.boolean;
    case Item::Kind::kNumber:
      return first.num != 0.0 && !std::isnan(first.num);
    case Item::Kind::kString:
      return !first.str.empty();
    default:
      return true;
  }
}

namespace {

/// Documents order by their arena's rank (the collection ordinal of a
/// stored document), then by root address for unranked trees.
struct DocOrderKey {
  uint64_t rank;
  const xml::Node* root;
  uint32_t order;
  int attr_index;
};

DocOrderKey KeyOf(const Item& item) {
  const xml::Node* root = xml::TreeRoot(item.node);
  return {root->arena().rank(), root, item.node->order(),
          item.kind == Item::Kind::kAttribute ? item.attr_index : -1};
}

bool KeyLess(const DocOrderKey& a, const DocOrderKey& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.root != b.root) return a.root < b.root;
  if (a.order != b.order) return a.order < b.order;
  return a.attr_index < b.attr_index;
}

}  // namespace

bool SameItem(const Item& a, const Item& b) {
  if (a.kind != b.kind) return false;
  if (!a.is_node_kind()) return false;
  return a.node == b.node && a.attr_index == b.attr_index;
}

void SortDocumentOrderUnique(Sequence& seq) {
  for (const Item& item : seq) {
    if (!item.is_node_kind()) return;  // mixed: leave untouched
  }
  std::stable_sort(seq.begin(), seq.end(), [](const Item& a, const Item& b) {
    return KeyLess(KeyOf(a), KeyOf(b));
  });
  seq.erase(std::unique(seq.begin(), seq.end(),
                        [](const Item& a, const Item& b) {
                          return SameItem(a, b);
                        }),
            seq.end());
}

}  // namespace xbench::xquery
