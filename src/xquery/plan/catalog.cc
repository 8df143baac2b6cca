#include "xquery/plan/catalog.h"

namespace xbench::xquery::plan {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kValue:
      return "value";
    case IndexKind::kText:
      return "text";
  }
  return "?";
}

const IndexStats* IndexCatalog::Find(const std::string& name) const {
  for (const IndexStats& index : indexes) {
    if (index.name == name) return &index;
  }
  return nullptr;
}

const IndexStats* IndexCatalog::FindValueIndexForPath(
    const std::string& path) const {
  for (const IndexStats& index : indexes) {
    if (index.kind == IndexKind::kValue && index.path == path) return &index;
  }
  return nullptr;
}

const IndexStats* IndexCatalog::FindByKind(IndexKind kind) const {
  for (const IndexStats& index : indexes) {
    if (index.kind == kind) return &index;
  }
  return nullptr;
}

}  // namespace xbench::xquery::plan
