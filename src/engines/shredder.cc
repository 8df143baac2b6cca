#include "engines/shredder.h"

#include <cmath>

#include "common/strings.h"

namespace xbench::engines {

using relational::Row;
using relational::Schema;
using relational::Value;
using relational::ValueType;

Status CreateDadTables(const Dad& dad, relational::Database& db) {
  for (const TableMap& map : dad.tables) {
    std::vector<relational::Column> columns = {
        {"doc", ValueType::kString},          {"row_id", ValueType::kInt},
        {"parent_table", ValueType::kString}, {"parent_row", ValueType::kInt},
        {"seq", ValueType::kInt},
    };
    for (const ColumnMap& col : map.columns) {
      columns.push_back({col.column, col.type});
    }
    auto table = db.CreateTable(map.table, Schema(std::move(columns)));
    if (!table.ok()) return table.status();
  }
  return Status::Ok();
}

std::pair<bool, std::string> ExtractRelPath(const xml::Node& element,
                                            const std::string& rel_path) {
  if (rel_path == ".") return {true, element.TextContent()};
  const xml::Node* current = &element;
  std::vector<std::string> segments = Split(rel_path, '/');
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& seg = segments[i];
    if (!seg.empty() && seg[0] == '@') {
      const std::string_view* attr = current->FindAttribute(seg.substr(1));
      if (attr == nullptr) return {false, ""};
      return {true, std::string(*attr)};
    }
    const xml::Node* child = current->FirstChild(seg);
    if (child == nullptr) return {false, ""};
    current = child;
  }
  return {true, current->TextContent()};
}

namespace {

Value TypedValue(const std::string& text, ValueType type) {
  switch (type) {
    case ValueType::kInt: {
      const int64_t v = ParseInt(text);
      if (v < 0) return Value::Null();
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      const double v = ParseDouble(text);
      if (std::isnan(v)) return Value::Null();
      return Value::Double(v);
    }
    default:
      return Value::String(text);
  }
}

struct ShredContext {
  const Dad& dad;
  const ShredOptions& options;
  relational::Database& db;
  const std::string& doc_name;
  int64_t& next_row_id;
  std::map<std::string, int64_t>* rows_per_table;
};

const TableMap* FindMap(const Dad& dad, const std::string& element) {
  for (const TableMap& map : dad.tables) {
    if (map.element == element) return &map;
  }
  return nullptr;
}

/// True when the element has both text and element children.
bool HasMixedContent(const xml::Node& element) {
  bool has_text = false;
  bool has_elem = false;
  for (const auto& child : element.children()) {
    if (child->is_text() && !Trim(child->text()).empty()) has_text = true;
    if (child->is_element()) has_elem = true;
  }
  return has_text && has_elem;
}

Status Walk(const xml::Node& node, const std::string& parent_table,
            int64_t parent_row, std::map<std::string, int64_t>& seq_counters,
            ShredContext& ctx) {
  if (!node.is_element()) return Status::Ok();
  const TableMap* map = FindMap(ctx.dad, node.name());
  std::string next_parent_table = parent_table;
  int64_t next_parent_row = parent_row;
  std::map<std::string, int64_t> child_counters;
  std::map<std::string, int64_t>* counters = &seq_counters;

  if (map != nullptr) {
    const int64_t row_id = ++ctx.next_row_id;
    const int64_t seq = ++seq_counters[map->table];
    Row row;
    row.reserve(static_cast<size_t>(kColFirstMapped) + map->columns.size());
    row.push_back(Value::String(ctx.doc_name));
    row.push_back(Value::Int(row_id));
    row.push_back(parent_table.empty() ? Value::Null()
                                       : Value::String(parent_table));
    row.push_back(parent_row < 0 ? Value::Null() : Value::Int(parent_row));
    row.push_back(ctx.options.keep_seq ? Value::Int(seq) : Value::Null());
    for (const ColumnMap& col : map->columns) {
      if (col.mixed_content && ctx.options.drop_mixed_content) {
        row.push_back(Value::Null());
        continue;
      }
      // Also detect mixedness dynamically for "." columns.
      if (ctx.options.drop_mixed_content && col.rel_path == "." &&
          HasMixedContent(node)) {
        row.push_back(Value::Null());
        continue;
      }
      auto [found, text] = ExtractRelPath(node, col.rel_path);
      row.push_back(found ? TypedValue(text, col.type) : Value::Null());
    }
    relational::Table* table = ctx.db.FindTable(map->table);
    if (table == nullptr) {
      return Status::Internal("DAD table '" + map->table + "' missing");
    }
    auto rid = table->Insert(row);
    if (!rid.ok()) return rid.status();
    if (ctx.rows_per_table != nullptr) ++(*ctx.rows_per_table)[map->table];

    next_parent_table = map->table;
    next_parent_row = row_id;
    counters = &child_counters;
  }

  for (const auto& child : node.children()) {
    XBENCH_RETURN_IF_ERROR(
        Walk(*child, next_parent_table, next_parent_row, *counters, ctx));
  }
  return Status::Ok();
}

}  // namespace

Status ShredDocument(const xml::Node& root, const std::string& doc_name,
                     const Dad& dad, const ShredOptions& options,
                     relational::Database& db, int64_t& next_row_id,
                     std::map<std::string, int64_t>* rows_per_table) {
  ShredContext ctx{dad, options, db, doc_name, next_row_id, rows_per_table};
  std::map<std::string, int64_t> counters;
  return Walk(root, /*parent_table=*/"", /*parent_row=*/-1, counters, ctx);
}

}  // namespace xbench::engines
