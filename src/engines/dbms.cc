#include "engines/dbms.h"

namespace xbench::engines {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNative:
      return "X-Hive (native)";
    case EngineKind::kClob:
      return "Xcolumn";
    case EngineKind::kShredDb2:
      return "Xcollection";
    case EngineKind::kShredMsSql:
      return "SQL Server";
  }
  return "?";
}

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kValue:
      return "value";
    case IndexKind::kText:
      return "text";
  }
  return "?";
}

Status XmlDbms::DropIndex(const std::string& name) {
  (void)name;
  return Status(StatusCode::kUnsupported,
                std::string(EngineKindName(kind())) +
                    " cannot drop indexes after load");
}

std::vector<IndexInfo> XmlDbms::ListIndexes() const { return {}; }

XmlDbms::XmlDbms()
    : disk_(std::make_unique<storage::SimulatedDisk>()),
      pool_(std::make_unique<storage::BufferPool>(*disk_, kDefaultPoolPages)) {
}

}  // namespace xbench::engines
