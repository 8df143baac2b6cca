#include "relational/table.h"

namespace xbench::relational {

Result<storage::RecordId> Table::Insert(const Row& row) {
  XBENCH_RETURN_IF_ERROR(schema_.Validate(row));
  const storage::RecordId rid = file_.Append(EncodeRow(row));
  for (auto& [name, info] : indexes_) {
    info.tree->Insert(ExtractKey(info, row), rid);
  }
  return rid;
}

Status Table::Delete(storage::RecordId rid) {
  if (deleted_.count(rid) != 0) {
    return Status::NotFound("row already deleted");
  }
  XBENCH_ASSIGN_OR_RETURN(Row row, Fetch(rid));
  for (auto& [name, info] : indexes_) {
    info.tree->Erase(ExtractKey(info, row), rid);
  }
  deleted_.insert(rid);
  return Status::Ok();
}

Result<Row> Table::Fetch(storage::RecordId rid) {
  if (deleted_.count(rid) != 0) {
    return Status::NotFound("row deleted");
  }
  return DecodeRow(file_.Read(rid));
}

void Table::Scan(
    const std::function<bool(storage::RecordId, const Row&)>& visit) {
  file_.Scan([&](storage::RecordId rid, std::string_view payload) {
    if (deleted_.count(rid) != 0) return true;
    auto row = DecodeRow(payload);
    if (!row.ok()) return false;  // corruption terminates the scan
    return visit(rid, *row);
  });
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& column_names) {
  if (indexes_.count(index_name) != 0) {
    return Status::AlreadyExists("index '" + index_name + "'");
  }
  IndexInfo info;
  for (const std::string& column : column_names) {
    const int idx = schema_.IndexOf(column);
    if (idx < 0) {
      return Status::NotFound("column '" + column + "' in table '" + name_ +
                              "'");
    }
    info.column_indexes.push_back(idx);
  }
  info.tree = std::make_unique<BTreeIndex>(disk_->clock());
  IndexInfo& stored = indexes_[index_name] = std::move(info);
  Scan([&](storage::RecordId rid, const Row& row) {
    stored.tree->Insert(ExtractKey(stored, row), rid);
    return true;
  });
  return Status::Ok();
}

const BTreeIndex* Table::FindIndex(const std::string& index_name) const {
  auto it = indexes_.find(index_name);
  return it == indexes_.end() ? nullptr : it->second.tree.get();
}

Key Table::MakeKey(const std::string& index_name, const Row& row) const {
  auto it = indexes_.find(index_name);
  if (it == indexes_.end()) return {};
  return ExtractKey(it->second, row);
}

Key Table::ExtractKey(const IndexInfo& info, const Row& row) const {
  Key key;
  key.reserve(info.column_indexes.size());
  for (int idx : info.column_indexes) {
    key.push_back(row[static_cast<size_t>(idx)]);
  }
  return key;
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  auto table = std::make_unique<Table>(name, std::move(schema), *disk_, *pool_);
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

void Database::DropTable(const std::string& name) { tables_.erase(name); }

Table* Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

}  // namespace xbench::relational
