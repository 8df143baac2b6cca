#include "workload/relational_plans.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "engines/shredder.h"
#include "relational/exec.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"

namespace xbench::workload {

using datagen::DbClass;
using engines::ClobEngine;
using engines::ColumnMap;
using engines::Dad;
using engines::ShredEngine;
using engines::TableMap;
using relational::Key;
using relational::Row;
using relational::RowSet;
using relational::Table;
using relational::Value;

namespace {

// Implicit-column indexes (see engines/shredder.h).
constexpr int kDoc = engines::kColDoc;
constexpr int kRowId = engines::kColRowId;
constexpr int kParentTable = engines::kColParentTable;
constexpr int kParentRow = engines::kColParentRow;

/// Mapped-column index within a row of `table`.
int Col(const Table& table, const std::string& column) {
  return table.schema().IndexOf(column);
}

std::string ColText(const Table& table, const Row& row,
                    const std::string& column) {
  const int idx = Col(table, column);
  return idx < 0 ? "" : row[static_cast<size_t>(idx)].ToText();
}

bool ColNull(const Table& table, const Row& row, const std::string& column) {
  const int idx = Col(table, column);
  return idx < 0 || row[static_cast<size_t>(idx)].is_null();
}

Result<Table*> Find(relational::Database& db, const std::string& name) {
  Table* table = db.FindTable(name);
  if (table == nullptr) return Status::NotFound("table '" + name + "'");
  return table;
}

/// Children of `parent_row_id` in `table` via the auto-created FK index,
/// in insertion (document) order.
RowSet FkChildren(Table& table, int64_t parent_row_id) {
  return relational::IndexLookup(table, table.name() + "_fk",
                                 {Value::Int(parent_row_id)});
}

/// Lookup through an explicitly created Table 3 value index; falls back to
/// a sequential scan when the index was not created (no-index baseline).
RowSet ValueLookup(Table& table, const std::string& index_name,
                   const std::string& column, const std::string& value) {
  if (table.FindIndex(index_name) != nullptr) {
    return relational::IndexLookup(table, index_name,
                                   {Value::String(value)});
  }
  const int idx = Col(table, column);
  return relational::SeqScan(table, [&](const Row& row) {
    return !row[static_cast<size_t>(idx)].is_null() &&
           row[static_cast<size_t>(idx)].ToText() == value;
  });
}

/// Rebuilds an element from a shredded row: "@x" columns become
/// attributes, single-segment paths child elements (DAD order); NULL
/// columns and nested paths are dropped — the lossy reconstruction the
/// paper describes ("the structure ... is not necessarily the same").
std::string ReconstructRow(const TableMap& map, const Table& table,
                           const Row& row) {
  std::string out = "<" + map.element;
  for (const ColumnMap& col : map.columns) {
    if (col.rel_path.size() > 1 && col.rel_path[0] == '@' &&
        !ColNull(table, row, col.column)) {
      out += StrCat({" ", std::string_view(col.rel_path).substr(1), "=\"",
                     xml::EscapeAttribute(ColText(table, row, col.column)),
                     "\""});
    }
  }
  out += ">";
  for (const ColumnMap& col : map.columns) {
    if (col.rel_path.empty() || col.rel_path[0] == '@') continue;
    if (col.rel_path.find('/') != std::string::npos) continue;
    if (ColNull(table, row, col.column)) continue;
    if (col.rel_path == ".") {
      out += xml::EscapeText(ColText(table, row, col.column));
      continue;
    }
    out += "<" + col.rel_path + ">" +
           xml::EscapeText(ColText(table, row, col.column)) + "</" +
           col.rel_path + ">";
  }
  out += "</" + map.element + ">";
  return out;
}

const TableMap* MapFor(const Dad& dad, const std::string& table_name) {
  for (const TableMap& map : dad.tables) {
    if (map.table == table_name) return &map;
  }
  return nullptr;
}

/// Date-period predicate on a string column.
relational::RowPredicate InPeriod(const Table& table,
                                  const std::string& column,
                                  const QueryParams& p) {
  const int idx = Col(table, column);
  return [idx, lo = p.date_lo, hi = p.date_hi](const Row& row) {
    if (row[static_cast<size_t>(idx)].is_null()) return false;
    const std::string& v = row[static_cast<size_t>(idx)].AsString();
    return v >= lo && v <= hi;
  };
}

// ---------------------------------------------------------------------
// Shredded plans per class
// ---------------------------------------------------------------------

Result<std::vector<std::string>> ShredQ5(ShredEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  auto& db = e.tables();
  switch (e.db_class()) {
    case DbClass::kDcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "order_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * lines, Find(db, "order_line_tab"));
      RowSet hits = ValueLookup(*orders, "order/@id", "order_id", p.order_id);
      if (hits.empty()) return std::vector<std::string>{};
      RowSet children =
          FkChildren(*lines, hits[0][kRowId].AsInt());
      if (children.empty()) return std::vector<std::string>{};
      // No order information is maintained (paper §3.1.3 problem 2): rely
      // on insertion order, which "happens to return the correct result".
      return std::vector<std::string>{ReconstructRow(
          *MapFor(e.dad(), "order_line_tab"), *lines, children[0])};
    }
    case DbClass::kDcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * items, Find(db, "item_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(db, "author_tab"));
      RowSet hits = ValueLookup(*items, "item/@id", "item_id", p.item_id);
      if (hits.empty()) return std::vector<std::string>{};
      RowSet children = FkChildren(*authors, hits[0][kRowId].AsInt());
      if (children.empty()) return std::vector<std::string>{};
      const Row& a = children[0];
      return std::vector<std::string>{
          "<name><first_name>" +
          xml::EscapeText(ColText(*authors, a, "first_name")) +
          "</first_name><last_name>" +
          xml::EscapeText(ColText(*authors, a, "last_name")) +
          "</last_name></name>"};
    }
    case DbClass::kTcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * entries, Find(db, "entry_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * senses, Find(db, "sense_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * quotes, Find(db, "quote_tab"));
      RowSet hits = ValueLookup(*entries, "hw", "hw", p.headword);
      if (hits.empty()) return std::vector<std::string>{};
      for (const Row& sense : FkChildren(*senses, hits[0][kRowId].AsInt())) {
        RowSet qs = FkChildren(*quotes, sense[kRowId].AsInt());
        if (!qs.empty()) {
          return std::vector<std::string>{ReconstructRow(
              *MapFor(e.dad(), "quote_tab"), *quotes, qs[0])};
        }
      }
      return std::vector<std::string>{};
    }
    case DbClass::kTcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(db, "article_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * sections, Find(db, "section_tab"));
      RowSet hits =
          ValueLookup(*articles, "article/@id", "article_id", p.article_id);
      if (hits.empty()) return std::vector<std::string>{};
      RowSet children = FkChildren(*sections, hits[0][kRowId].AsInt());
      if (children.empty()) return std::vector<std::string>{};
      return std::vector<std::string>{
          "<heading>" +
          xml::EscapeText(ColText(*sections, children[0], "heading")) +
          "</heading>"};
    }
  }
  return std::vector<std::string>{};
}

Result<std::vector<std::string>> ShredQ8(ShredEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  auto& db = e.tables();
  std::vector<std::string> out;
  switch (e.db_class()) {
    case DbClass::kTcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * entries, Find(db, "entry_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * senses, Find(db, "sense_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * quotes, Find(db, "quote_tab"));
      RowSet hits = ValueLookup(*entries, "hw", "hw", p.headword);
      for (const Row& entry : hits) {
        for (const Row& sense : FkChildren(*senses, entry[kRowId].AsInt())) {
          for (const Row& q : FkChildren(*quotes, sense[kRowId].AsInt())) {
            out.push_back(ColText(*quotes, q, "qt"));
          }
        }
      }
      return out;
    }
    case DbClass::kDcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "order_tab"));
      for (const Row& row :
           ValueLookup(*orders, "order/@id", "order_id", p.order_id)) {
        out.push_back(ColText(*orders, row, "ship_type"));
      }
      return out;
    }
    case DbClass::kDcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * items, Find(db, "item_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(db, "author_tab"));
      for (const Row& item :
           ValueLookup(*items, "item/@id", "item_id", p.item_id)) {
        for (const Row& a : FkChildren(*authors, item[kRowId].AsInt())) {
          out.push_back(ColText(*authors, a, "first_name"));
        }
      }
      return out;
    }
    case DbClass::kTcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(db, "article_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * keywords, Find(db, "keyword_tab"));
      RowSet hits =
          ValueLookup(*articles, "article/@id", "article_id", p.article_id);
      if (hits.empty()) return out;
      const std::string doc = hits[0][kDoc].ToText();
      const int doc_col = kDoc;
      for (const Row& k : relational::SeqScan(*keywords, [&](const Row& row) {
             return row[static_cast<size_t>(doc_col)].ToText() == doc;
           })) {
        out.push_back(ColText(*keywords, k, "word"));
      }
      return out;
    }
  }
  return out;
}

Result<std::vector<std::string>> ShredQ12(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  auto& db = e.tables();
  switch (e.db_class()) {
    case DbClass::kDcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * items, Find(db, "item_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(db, "author_tab"));
      RowSet hits = ValueLookup(*items, "item/@id", "item_id", p.item_id);
      if (hits.empty()) return std::vector<std::string>{};
      RowSet children = FkChildren(*authors, hits[0][kRowId].AsInt());
      if (children.empty()) return std::vector<std::string>{};
      const Row& a = children[0];
      std::string out = "<mail_address>";
      for (const char* col : {"street", "city", "zip", "country"}) {
        if (!ColNull(*authors, a, col)) {
          out += std::string("<") + col + ">" +
                 xml::EscapeText(ColText(*authors, a, col)) + "</" + col +
                 ">";
        }
      }
      out += "</mail_address>";
      return std::vector<std::string>{out};
    }
    case DbClass::kDcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "order_tab"));
      RowSet hits = ValueLookup(*orders, "order/@id", "order_id", p.order_id);
      if (hits.empty()) return std::vector<std::string>{};
      const Row& o = hits[0];
      std::string out = "<ship_address>";
      const std::pair<const char*, const char*> cols[] = {
          {"ship_street", "street"},
          {"ship_city", "city"},
          {"ship_zip", "zip"},
          {"ship_country", "country"}};
      for (const auto& [column, element] : cols) {
        if (!ColNull(*orders, o, column)) {
          out += std::string("<") + element + ">" +
                 xml::EscapeText(ColText(*orders, o, column)) + "</" +
                 element + ">";
        }
      }
      out += "</ship_address>";
      return std::vector<std::string>{out};
    }
    case DbClass::kTcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * entries, Find(db, "entry_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * senses, Find(db, "sense_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * quotes, Find(db, "quote_tab"));
      RowSet hits = ValueLookup(*entries, "hw", "hw", p.headword);
      if (hits.empty()) return std::vector<std::string>{};
      for (const Row& sense : FkChildren(*senses, hits[0][kRowId].AsInt())) {
        RowSet qs = FkChildren(*quotes, sense[kRowId].AsInt());
        if (!qs.empty()) {
          return std::vector<std::string>{
              "<qp>" +
              ReconstructRow(*MapFor(e.dad(), "quote_tab"), *quotes, qs[0]) +
              "</qp>"};
        }
      }
      return std::vector<std::string>{};
    }
    case DbClass::kTcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(db, "article_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * abstracts, Find(db, "abstract_tab"));
      RowSet hits =
          ValueLookup(*articles, "article/@id", "article_id", p.article_id);
      if (hits.empty()) return std::vector<std::string>{};
      const std::string doc = hits[0][kDoc].ToText();
      for (const Row& row :
           relational::SeqScan(*abstracts, [&](const Row& r) {
             return r[kDoc].ToText() == doc;
           })) {
        return std::vector<std::string>{
            "<abstract>" + xml::EscapeText(ColText(*abstracts, row, "text")) +
            "</abstract>"};
      }
      return std::vector<std::string>{};
    }
  }
  return std::vector<std::string>{};
}

Result<std::vector<std::string>> ShredQ14(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  auto& db = e.tables();
  std::vector<std::string> out;
  switch (e.db_class()) {
    case DbClass::kDcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * items, Find(db, "item_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * pubs, Find(db, "publisher_tab"));
      RowSet in_period =
          relational::SeqScan(*items, InPeriod(*items, "date_of_release", p));
      for (const Row& item : in_period) {
        for (const Row& pub : FkChildren(*pubs, item[kRowId].AsInt())) {
          if (ColNull(*pubs, pub, "fax_number")) {
            out.push_back(ColText(*pubs, pub, "name"));
          }
        }
      }
      return out;
    }
    case DbClass::kDcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "order_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * lines, Find(db, "order_line_tab"));
      // Table scan over order lines (no index on the missing element).
      std::set<int64_t> parents;
      lines->Scan([&](storage::RecordId, const Row& row) {
        if (ColNull(*lines, row, "comments") && !row[kParentRow].is_null()) {
          parents.insert(row[kParentRow].AsInt());
        }
        return true;
      });
      auto period = InPeriod(*orders, "order_date", p);
      orders->Scan([&](storage::RecordId, const Row& row) {
        if (period(row) && parents.count(row[kRowId].AsInt()) != 0) {
          out.push_back(ColText(*orders, row, "order_id"));
        }
        return true;
      });
      return out;
    }
    case DbClass::kTcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * entries, Find(db, "entry_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * senses, Find(db, "sense_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * quotes, Find(db, "quote_tab"));
      // Entries that have at least one quotation: quote -> sense -> entry.
      std::map<int64_t, int64_t> sense_parent;
      senses->Scan([&](storage::RecordId, const Row& row) {
        if (!row[kParentRow].is_null()) {
          sense_parent[row[kRowId].AsInt()] = row[kParentRow].AsInt();
        }
        return true;
      });
      std::set<int64_t> entries_with_quotes;
      quotes->Scan([&](storage::RecordId, const Row& row) {
        if (!row[kParentRow].is_null()) {
          auto it = sense_parent.find(row[kParentRow].AsInt());
          if (it != sense_parent.end()) entries_with_quotes.insert(it->second);
        }
        return true;
      });
      entries->Scan([&](storage::RecordId, const Row& row) {
        if (ColNull(*entries, row, "etym") &&
            entries_with_quotes.count(row[kRowId].AsInt()) != 0) {
          out.push_back(ColText(*entries, row, "hw"));
        }
        return true;
      });
      return out;
    }
    case DbClass::kTcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(db, "article_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * keywords, Find(db, "keyword_tab"));
      std::set<std::string> docs_with_keywords;
      keywords->Scan([&](storage::RecordId, const Row& row) {
        docs_with_keywords.insert(row[kDoc].ToText());
        return true;
      });
      auto period = InPeriod(*articles, "date", p);
      articles->Scan([&](storage::RecordId, const Row& row) {
        if (period(row) &&
            docs_with_keywords.count(row[kDoc].ToText()) == 0) {
          out.push_back(ColText(*articles, row, "title"));
        }
        return true;
      });
      return out;
    }
  }
  return out;
}

Result<std::vector<std::string>> ShredQ17(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  auto& db = e.tables();
  std::vector<std::string> out;
  const std::string& word = p.search_word;
  switch (e.db_class()) {
    case DbClass::kTcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * entries, Find(db, "entry_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * senses, Find(db, "sense_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * quotes, Find(db, "quote_tab"));
      std::map<int64_t, int64_t> sense_parent;
      senses->Scan([&](storage::RecordId, const Row& row) {
        if (!row[kParentRow].is_null()) {
          sense_parent[row[kRowId].AsInt()] = row[kParentRow].AsInt();
        }
        return true;
      });
      std::set<int64_t> matching_entries;
      quotes->Scan([&](storage::RecordId, const Row& row) {
        if (!ColNull(*quotes, row, "qt") &&
            ContainsWord(ColText(*quotes, row, "qt"), word) &&
            !row[kParentRow].is_null()) {
          auto it = sense_parent.find(row[kParentRow].AsInt());
          if (it != sense_parent.end()) matching_entries.insert(it->second);
        }
        return true;
      });
      entries->Scan([&](storage::RecordId, const Row& row) {
        if (matching_entries.count(row[kRowId].AsInt()) != 0) {
          out.push_back(ColText(*entries, row, "hw"));
        }
        return true;
      });
      return out;
    }
    case DbClass::kTcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(db, "article_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * paras, Find(db, "para_tab"));
      std::set<std::string> docs;
      paras->Scan([&](storage::RecordId, const Row& row) {
        if (!ColNull(*paras, row, "text") &&
            ContainsWord(ColText(*paras, row, "text"), word)) {
          docs.insert(row[kDoc].ToText());
        }
        return true;
      });
      articles->Scan([&](storage::RecordId, const Row& row) {
        if (docs.count(row[kDoc].ToText()) != 0) {
          out.push_back(ColText(*articles, row, "title"));
        }
        return true;
      });
      return out;
    }
    case DbClass::kDcSd: {
      XBENCH_ASSIGN_OR_RETURN(Table * items, Find(db, "item_tab"));
      items->Scan([&](storage::RecordId, const Row& row) {
        if (!ColNull(*items, row, "description") &&
            ContainsWord(ColText(*items, row, "description"), word)) {
          out.push_back(ColText(*items, row, "title"));
        }
        return true;
      });
      return out;
    }
    case DbClass::kDcMd: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "order_tab"));
      XBENCH_ASSIGN_OR_RETURN(Table * lines, Find(db, "order_line_tab"));
      std::set<int64_t> parents;
      lines->Scan([&](storage::RecordId, const Row& row) {
        if (!ColNull(*lines, row, "comments") &&
            ContainsWord(ColText(*lines, row, "comments"), word) &&
            !row[kParentRow].is_null()) {
          parents.insert(row[kParentRow].AsInt());
        }
        return true;
      });
      orders->Scan([&](storage::RecordId, const Row& row) {
        if (parents.count(row[kRowId].AsInt()) != 0) {
          out.push_back(ColText(*orders, row, "order_id"));
        }
        return true;
      });
      return out;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Extended shredded plans: the rest of the 20-query workload, for the
// classes where §2.2 defines them (the paper ran the full workload; it
// reported only the subset).
// ---------------------------------------------------------------------

std::string WrapTag(const char* tag, const std::string& value) {
  return std::string("<") + tag + ">" + xml::EscapeText(value) + "</" + tag +
         ">";
}

/// doc name -> value of `column` in `table` (first row per doc).
std::map<std::string, std::string> DocColumn(Table& table,
                                             const std::string& column) {
  std::map<std::string, std::string> out;
  table.Scan([&](storage::RecordId, const Row& row) {
    out.emplace(row[kDoc].ToText(), ColText(table, row, column));
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ShredQ1(ShredEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * items, Find(e.tables(), "item_tab"));
  std::vector<std::string> out;
  for (const Row& row :
       ValueLookup(*items, "item/@id", "item_id", p.item_id)) {
    out.push_back(WrapTag("title", ColText(*items, row, "title")));
  }
  return out;
}

Result<std::vector<std::string>> ShredQ2(ShredEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(e.tables(), "art_author_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(e.tables(), "article_tab"));
  std::set<std::string> docs;
  authors->Scan([&](storage::RecordId, const Row& row) {
    if (ColText(*authors, row, "name") == p.author) {
      docs.insert(row[kDoc].ToText());
    }
    return true;
  });
  std::vector<std::string> out;
  articles->Scan([&](storage::RecordId, const Row& row) {
    if (docs.count(row[kDoc].ToText()) != 0) {
      out.push_back(WrapTag("title", ColText(*articles, row, "title")));
    }
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ShredQ3(ShredEngine& e,
                                         const QueryParams&)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * senses, Find(e.tables(), "sense_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * quotes, Find(e.tables(), "quote_tab"));
  std::map<int64_t, int64_t> sense_parent;
  senses->Scan([&](storage::RecordId, const Row& row) {
    if (!row[kParentRow].is_null()) {
      sense_parent[row[kRowId].AsInt()] = row[kParentRow].AsInt();
    }
    return true;
  });
  // location -> distinct entries having a quotation there.
  std::map<std::string, std::set<int64_t>> groups;
  quotes->Scan([&](storage::RecordId, const Row& row) {
    if (ColNull(*quotes, row, "qloc") || row[kParentRow].is_null()) {
      return true;
    }
    auto it = sense_parent.find(row[kParentRow].AsInt());
    if (it != sense_parent.end()) {
      groups[ColText(*quotes, row, "qloc")].insert(it->second);
    }
    return true;
  });
  std::vector<std::string> out;
  for (const auto& [loc, entries] : groups) {
    out.push_back("<group><loc>" + xml::EscapeText(loc) + "</loc><entries>" +
                  std::to_string(entries.size()) + "</entries></group>");
  }
  return out;
}

Result<std::vector<std::string>> ShredQ6(ShredEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * paras, Find(e.tables(), "para_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(e.tables(), "article_tab"));
  std::set<std::string> docs;
  paras->Scan([&](storage::RecordId, const Row& row) {
    const std::string text = ColText(*paras, row, "text");
    if (ContainsWord(text, p.keyword1) && ContainsWord(text, p.keyword2)) {
      docs.insert(row[kDoc].ToText());
    }
    return true;
  });
  std::vector<std::string> out;
  articles->Scan([&](storage::RecordId, const Row& row) {
    if (docs.count(row[kDoc].ToText()) != 0) {
      out.push_back(WrapTag("title", ColText(*articles, row, "title")));
    }
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ShredQ7(ShredEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * items, Find(e.tables(), "item_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(e.tables(), "author_tab"));
  // item row -> has an author from another country?
  std::set<int64_t> disqualified;
  authors->Scan([&](storage::RecordId, const Row& row) {
    if (!row[kParentRow].is_null() &&
        ColText(*authors, row, "country") != p.country) {
      disqualified.insert(row[kParentRow].AsInt());
    }
    return true;
  });
  std::vector<std::string> out;
  items->Scan([&](storage::RecordId, const Row& row) {
    if (disqualified.count(row[kRowId].AsInt()) == 0) {
      out.push_back(WrapTag("title", ColText(*items, row, "title")));
    }
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ShredQ9(ShredEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(e.tables(), "order_tab"));
  std::vector<std::string> out;
  for (const Row& row :
       ValueLookup(*orders, "order/@id", "order_id", p.order_id)) {
    out.push_back(ColText(*orders, row, "status"));
  }
  return out;
}

Result<std::vector<std::string>> ShredQ10(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(e.tables(), "order_tab"));
  RowSet rows =
      relational::SeqScan(*orders, InPeriod(*orders, "order_date", p));
  relational::SortRows(rows, {{Col(*orders, "ship_type"), true}});
  std::vector<std::string> out;
  for (const Row& row : rows) {
    out.push_back("<o><id>" +
                  xml::EscapeText(ColText(*orders, row, "order_id")) +
                  "</id><date>" +
                  xml::EscapeText(ColText(*orders, row, "order_date")) +
                  "</date><ship>" +
                  xml::EscapeText(ColText(*orders, row, "ship_type")) +
                  "</ship></o>");
  }
  return out;
}

Result<std::vector<std::string>> ShredQ11(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * entries, Find(e.tables(), "entry_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * senses, Find(e.tables(), "sense_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * quotes, Find(e.tables(), "quote_tab"));
  RowSet hits = ValueLookup(*entries, "hw", "hw", p.headword);
  RowSet quote_rows;
  for (const Row& entry : hits) {
    for (const Row& sense : FkChildren(*senses, entry[kRowId].AsInt())) {
      for (const Row& q : FkChildren(*quotes, sense[kRowId].AsInt())) {
        quote_rows.push_back(q);
      }
    }
  }
  relational::SortRows(quote_rows, {{Col(*quotes, "qd"), true}});
  std::vector<std::string> out;
  for (const Row& row : quote_rows) {
    out.push_back("<quote><qau>" +
                  xml::EscapeText(ColText(*quotes, row, "qau")) +
                  "</qau><qd>" + xml::EscapeText(ColText(*quotes, row, "qd")) +
                  "</qd></quote>");
  }
  return out;
}

Result<std::vector<std::string>> ShredQ13(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(e.tables(), "article_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(e.tables(), "art_author_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * abstracts, Find(e.tables(), "abstract_tab"));
  RowSet hits =
      ValueLookup(*articles, "article/@id", "article_id", p.article_id);
  if (hits.empty()) return std::vector<std::string>{};
  const std::string doc = hits[0][kDoc].ToText();

  std::string first_author;
  authors->Scan([&](storage::RecordId, const Row& row) {
    if (row[kDoc].ToText() == doc) {
      first_author = ColText(*authors, row, "name");
      return false;
    }
    return true;
  });
  std::string abstract_text;
  abstracts->Scan([&](storage::RecordId, const Row& row) {
    if (row[kDoc].ToText() == doc) {
      abstract_text = ColText(*abstracts, row, "text");
      return false;
    }
    return true;
  });
  // Reconstruction from shreds loses the abstract's paragraph structure —
  // the §3.2.2 deviation.
  return std::vector<std::string>{
      "<result><title>" +
      xml::EscapeText(ColText(*articles, hits[0], "title")) +
      "</title><first_author>" + xml::EscapeText(first_author) +
      "</first_author><date>" +
      xml::EscapeText(ColText(*articles, hits[0], "date")) +
      "</date><abstract>" + xml::EscapeText(abstract_text) +
      "</abstract></result>"};
}

Result<std::vector<std::string>> ShredQ15(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(e.tables(), "article_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(e.tables(), "art_author_tab"));
  std::map<std::string, std::string> doc_date =
      DocColumn(*articles, "date");
  std::vector<std::string> out;
  const int contact_idx = Col(*authors, "contact");
  authors->Scan([&](storage::RecordId, const Row& row) {
    const Value& contact = row[static_cast<size_t>(contact_idx)];
    // Present-but-empty contact (NULL = absent, skipped).
    if (contact.is_null() || !contact.AsString().empty()) return true;
    auto it = doc_date.find(row[kDoc].ToText());
    if (it == doc_date.end()) return true;
    if (it->second < p.date_lo || it->second > p.date_hi) return true;
    out.push_back(WrapTag("name", ColText(*authors, row, "name")));
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ShredQ16(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  // Whole-document reconstruction from shredded tables: joins plus a
  // lossy structure, the paper's document-reconstruction weakness.
  XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(e.tables(), "order_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * lines, Find(e.tables(), "order_line_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * xacts, Find(e.tables(), "cc_xact_tab"));
  RowSet hits = ValueLookup(*orders, "order/@id", "order_id", p.order_id);
  if (hits.empty()) return std::vector<std::string>{};
  const int64_t order_row = hits[0][kRowId].AsInt();

  std::string out = "<order id=\"" +
                    xml::EscapeAttribute(ColText(*orders, hits[0],
                                                 "order_id")) +
                    "\">";
  for (const char* col :
       {"customer_id", "order_date", "sub_total", "tax", "total", "ship_type",
        "ship_date", "status"}) {
    if (!ColNull(*orders, hits[0], col)) {
      out += WrapTag(col, ColText(*orders, hits[0], col));
    }
  }
  for (const Row& cx : FkChildren(*xacts, order_row)) {
    out += ReconstructRow(*MapFor(e.dad(), "cc_xact_tab"), *xacts, cx);
  }
  out += "<order_lines>";
  for (const Row& line : FkChildren(*lines, order_row)) {
    out += ReconstructRow(*MapFor(e.dad(), "order_line_tab"), *lines, line);
  }
  out += "</order_lines></order>";
  return std::vector<std::string>{out};
}

Result<std::vector<std::string>> ShredQ18(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * paras, Find(e.tables(), "para_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(e.tables(), "article_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * abstracts, Find(e.tables(), "abstract_tab"));
  std::set<std::string> docs;
  paras->Scan([&](storage::RecordId, const Row& row) {
    if (ContainsPhrase(ColText(*paras, row, "text"), p.phrase)) {
      docs.insert(row[kDoc].ToText());
    }
    return true;
  });
  std::map<std::string, std::string> doc_abstract =
      DocColumn(*abstracts, "text");
  std::vector<std::string> out;
  articles->Scan([&](storage::RecordId, const Row& row) {
    const std::string doc = row[kDoc].ToText();
    if (docs.count(doc) == 0) return true;
    out.push_back("<hit><title>" +
                  xml::EscapeText(ColText(*articles, row, "title")) +
                  "</title><abstract>" +
                  xml::EscapeText(doc_abstract[doc]) + "</abstract></hit>");
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ShredQ19(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(e.tables(), "order_tab"));
  XBENCH_ASSIGN_OR_RETURN(Table * customers, Find(e.tables(), "customer_tab"));
  RowSet hits = ValueLookup(*orders, "order/@id", "order_id", p.order_id);
  if (hits.empty()) return std::vector<std::string>{};
  const std::string customer_id = ColText(*orders, hits[0], "customer_id");
  const std::string status = ColText(*orders, hits[0], "status");
  std::vector<std::string> out;
  customers->Scan([&](storage::RecordId, const Row& row) {
    if (ColText(*customers, row, "customer_id") != customer_id) return true;
    out.push_back("<r><name>" +
                  xml::EscapeText(ColText(*customers, row, "first_name") +
                                  " " +
                                  ColText(*customers, row, "last_name")) +
                  "</name><phone>" +
                  xml::EscapeText(ColText(*customers, row, "phone")) +
                  "</phone><status>" + xml::EscapeText(status) +
                  "</status></r>");
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ShredQ20(ShredEngine& e,
                                          const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * items, Find(e.tables(), "item_tab"));
  std::vector<std::string> out;
  const int size_idx = Col(*items, "size");
  items->Scan([&](storage::RecordId, const Row& row) {
    const Value& size = row[static_cast<size_t>(size_idx)];
    if (!size.is_null() && size.AsInt() > p.size_threshold) {
      out.push_back(WrapTag("title", ColText(*items, row, "title")));
    }
    return true;
  });
  return out;
}

// ---------------------------------------------------------------------
// Xcolumn plans (MD classes)
// ---------------------------------------------------------------------

Result<std::string> ClobDocFor(ClobEngine& e, const std::string& side_table,
                               const std::string& index_name,
                               const std::string& column,
                               const std::string& value)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(Table * table, Find(e.side_tables(), side_table));
  RowSet hits = ValueLookup(*table, index_name, column, value);
  if (hits.empty()) return Status::NotFound("no row for " + value);
  return hits[0][kDoc].ToText();
}

Result<std::vector<std::string>> QueryLines(ClobEngine& e,
                                            const std::string& doc,
                                            const std::string& xquery)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  XBENCH_ASSIGN_OR_RETURN(xquery::QueryResult result,
                          e.QueryDocument(doc, xquery));
  std::vector<std::string> lines = Split(result.ToText(), '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

Result<std::vector<std::string>> ClobQ5(ClobEngine& e, const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  if (e.side_dad().tables.empty()) {
    return Status::Unsupported("Xcolumn hosts only the MD classes");
  }
  if (e.side_tables().FindTable("side_order") != nullptr) {
    auto doc = ClobDocFor(e, "side_order", "order/@id", "order_id",
                          p.order_id);
    if (!doc.ok()) return std::vector<std::string>{};
    return QueryLines(e, *doc, "($input/order_lines/order_line)[1]");
  }
  auto doc = ClobDocFor(e, "side_article", "article/@id", "article_id",
                        p.article_id);
  if (!doc.ok()) return std::vector<std::string>{};
  return QueryLines(e, *doc, "($input/body/sec)[1]/heading");
}

Result<std::vector<std::string>> ClobQ8(ClobEngine& e, const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  std::vector<std::string> out;
  if (e.side_tables().FindTable("side_order") != nullptr) {
    XBENCH_ASSIGN_OR_RETURN(Table * orders,
                            Find(e.side_tables(), "side_order"));
    for (const Row& row :
         ValueLookup(*orders, "order/@id", "order_id", p.order_id)) {
      out.push_back(ColText(*orders, row, "ship_type"));
    }
    return out;
  }
  XBENCH_ASSIGN_OR_RETURN(Table * articles,
                          Find(e.side_tables(), "side_article"));
  XBENCH_ASSIGN_OR_RETURN(Table * keywords,
                          Find(e.side_tables(), "side_keyword"));
  RowSet hits =
      ValueLookup(*articles, "article/@id", "article_id", p.article_id);
  if (hits.empty()) return out;
  const std::string doc = hits[0][kDoc].ToText();
  keywords->Scan([&](storage::RecordId, const Row& row) {
    if (row[kDoc].ToText() == doc) {
      out.push_back(ColText(*keywords, row, "word"));
    }
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ClobQ12(ClobEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  if (e.side_tables().FindTable("side_order") != nullptr) {
    auto doc =
        ClobDocFor(e, "side_order", "order/@id", "order_id", p.order_id);
    if (!doc.ok()) return std::vector<std::string>{};
    return QueryLines(e, *doc, "$input/shipping/ship_address");
  }
  auto doc = ClobDocFor(e, "side_article", "article/@id", "article_id",
                        p.article_id);
  if (!doc.ok()) return std::vector<std::string>{};
  return QueryLines(e, *doc, "$input/prolog/abstract");
}

Result<std::vector<std::string>> ClobQ14(ClobEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  std::vector<std::string> out;
  if (e.side_tables().FindTable("side_order") != nullptr) {
    XBENCH_ASSIGN_OR_RETURN(Table * orders,
                            Find(e.side_tables(), "side_order"));
    XBENCH_ASSIGN_OR_RETURN(Table * lines,
                            Find(e.side_tables(), "side_order_line"));
    std::set<std::string> docs;
    lines->Scan([&](storage::RecordId, const Row& row) {
      if (ColNull(*lines, row, "comments")) docs.insert(row[kDoc].ToText());
      return true;
    });
    auto period = InPeriod(*orders, "order_date", p);
    orders->Scan([&](storage::RecordId, const Row& row) {
      if (period(row) && docs.count(row[kDoc].ToText()) != 0) {
        out.push_back(ColText(*orders, row, "order_id"));
      }
      return true;
    });
    return out;
  }
  XBENCH_ASSIGN_OR_RETURN(Table * articles,
                          Find(e.side_tables(), "side_article"));
  XBENCH_ASSIGN_OR_RETURN(Table * keywords,
                          Find(e.side_tables(), "side_keyword"));
  std::set<std::string> docs_with_keywords;
  keywords->Scan([&](storage::RecordId, const Row& row) {
    docs_with_keywords.insert(row[kDoc].ToText());
    return true;
  });
  auto period = InPeriod(*articles, "date", p);
  articles->Scan([&](storage::RecordId, const Row& row) {
    if (period(row) && docs_with_keywords.count(row[kDoc].ToText()) == 0) {
      out.push_back(ColText(*articles, row, "title"));
    }
    return true;
  });
  return out;
}

Result<std::vector<std::string>> ClobQ17(ClobEngine& e,
                                         const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  std::vector<std::string> out;
  const std::string& word = p.search_word;
  if (e.side_tables().FindTable("side_order") != nullptr) {
    XBENCH_ASSIGN_OR_RETURN(Table * orders,
                            Find(e.side_tables(), "side_order"));
    XBENCH_ASSIGN_OR_RETURN(Table * lines,
                            Find(e.side_tables(), "side_order_line"));
    std::set<std::string> docs;
    lines->Scan([&](storage::RecordId, const Row& row) {
      if (!ColNull(*lines, row, "comments") &&
          ContainsWord(ColText(*lines, row, "comments"), word)) {
        docs.insert(row[kDoc].ToText());
      }
      return true;
    });
    orders->Scan([&](storage::RecordId, const Row& row) {
      if (docs.count(row[kDoc].ToText()) != 0) {
        out.push_back(ColText(*orders, row, "order_id"));
      }
      return true;
    });
    return out;
  }
  XBENCH_ASSIGN_OR_RETURN(Table * articles,
                          Find(e.side_tables(), "side_article"));
  XBENCH_ASSIGN_OR_RETURN(Table * paras, Find(e.side_tables(), "side_para"));
  std::set<std::string> docs;
  paras->Scan([&](storage::RecordId, const Row& row) {
    if (!ColNull(*paras, row, "text") &&
        ContainsWord(ColText(*paras, row, "text"), word)) {
      docs.insert(row[kDoc].ToText());
    }
    return true;
  });
  articles->Scan([&](storage::RecordId, const Row& row) {
    if (docs.count(row[kDoc].ToText()) != 0) {
      out.push_back(ColText(*articles, row, "title"));
    }
    return true;
  });
  return out;
}

// ---------------------------------------------------------------------
// Extended Xcolumn plans: side-table filtering + full XQuery over fetched
// CLOBs.
// ---------------------------------------------------------------------

/// Runs the native query text over each named document and concatenates
/// the answers (Xcolumn's extract-from-CLOB execution model).
Result<std::vector<std::string>> ClobQueryDocs(
    ClobEngine& e, const std::vector<std::string>& docs,
    const std::string& xquery)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  std::vector<std::string> out;
  for (const std::string& doc : docs) {
    XBENCH_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                            QueryLines(e, doc, xquery));
    out.insert(out.end(), lines.begin(), lines.end());
  }
  return out;
}

Result<std::vector<std::string>> ClobExtended(ClobEngine& e, QueryId id,
                                              datagen::DbClass cls,
                                              const QueryParams& p)
    XBENCH_REQUIRES_SHARED(e.collection_mu()) {
  auto& db = e.side_tables();
  switch (id) {
    case QueryId::kQ2:
    case QueryId::kQ4: {
      XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(db, "side_author"));
      std::set<std::string> doc_set;
      authors->Scan([&](storage::RecordId, const Row& row) {
        if (ColText(*authors, row, "name") == p.author) {
          doc_set.insert(row[kDoc].ToText());
        }
        return true;
      });
      return ClobQueryDocs(e, {doc_set.begin(), doc_set.end()},
                           XQueryFor(id, cls, p));
    }
    case QueryId::kQ6:
    case QueryId::kQ18: {
      XBENCH_ASSIGN_OR_RETURN(Table * paras, Find(db, "side_para"));
      std::set<std::string> doc_set;
      paras->Scan([&](storage::RecordId, const Row& row) {
        const std::string text = ColText(*paras, row, "text");
        const bool hit =
            id == QueryId::kQ6
                ? ContainsWord(text, p.keyword1) &&
                      ContainsWord(text, p.keyword2)
                : ContainsPhrase(text, p.phrase);
        if (hit) doc_set.insert(row[kDoc].ToText());
        return true;
      });
      return ClobQueryDocs(e, {doc_set.begin(), doc_set.end()},
                           XQueryFor(id, cls, p));
    }
    case QueryId::kQ9: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "side_order"));
      std::vector<std::string> out;
      for (const Row& row :
           ValueLookup(*orders, "order/@id", "order_id", p.order_id)) {
        out.push_back(ColText(*orders, row, "status"));
      }
      return out;
    }
    case QueryId::kQ10: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "side_order"));
      RowSet rows =
          relational::SeqScan(*orders, InPeriod(*orders, "order_date", p));
      relational::SortRows(rows, {{Col(*orders, "ship_type"), true}});
      std::vector<std::string> out;
      for (const Row& row : rows) {
        out.push_back("<o><id>" +
                      xml::EscapeText(ColText(*orders, row, "order_id")) +
                      "</id><date>" +
                      xml::EscapeText(ColText(*orders, row, "order_date")) +
                      "</date><ship>" +
                      xml::EscapeText(ColText(*orders, row, "ship_type")) +
                      "</ship></o>");
      }
      return out;
    }
    case QueryId::kQ13: {
      auto doc = ClobDocFor(e, "side_article", "article/@id", "article_id",
                            p.article_id);
      if (!doc.ok()) return std::vector<std::string>{};
      return ClobQueryDocs(e, {*doc}, XQueryFor(id, cls, p));
    }
    case QueryId::kQ15: {
      XBENCH_ASSIGN_OR_RETURN(Table * authors, Find(db, "side_author"));
      XBENCH_ASSIGN_OR_RETURN(Table * articles, Find(db, "side_article"));
      std::map<std::string, std::string> doc_date =
          DocColumn(*articles, "date");
      std::vector<std::string> out;
      const int contact_idx = Col(*authors, "contact");
      authors->Scan([&](storage::RecordId, const Row& row) {
        const Value& contact = row[static_cast<size_t>(contact_idx)];
        if (contact.is_null() || !contact.AsString().empty()) return true;
        auto it = doc_date.find(row[kDoc].ToText());
        if (it == doc_date.end() || it->second < p.date_lo ||
            it->second > p.date_hi) {
          return true;
        }
        out.push_back(WrapTag("name", ColText(*authors, row, "name")));
        return true;
      });
      return out;
    }
    case QueryId::kQ16: {
      auto doc =
          ClobDocFor(e, "side_order", "order/@id", "order_id", p.order_id);
      if (!doc.ok()) return std::vector<std::string>{};
      XBENCH_ASSIGN_OR_RETURN(std::string raw, e.FetchRaw(*doc));
      return std::vector<std::string>{std::move(raw)};
    }
    case QueryId::kQ19: {
      XBENCH_ASSIGN_OR_RETURN(Table * orders, Find(db, "side_order"));
      XBENCH_ASSIGN_OR_RETURN(Table * customers, Find(db, "side_customer"));
      RowSet hits =
          ValueLookup(*orders, "order/@id", "order_id", p.order_id);
      if (hits.empty()) return std::vector<std::string>{};
      const std::string customer_id =
          ColText(*orders, hits[0], "customer_id");
      const std::string status = ColText(*orders, hits[0], "status");
      std::vector<std::string> out;
      customers->Scan([&](storage::RecordId, const Row& row) {
        if (ColText(*customers, row, "customer_id") != customer_id) {
          return true;
        }
        out.push_back(
            "<r><name>" +
            xml::EscapeText(ColText(*customers, row, "first_name") + " " +
                            ColText(*customers, row, "last_name")) +
            "</name><phone>" +
            xml::EscapeText(ColText(*customers, row, "phone")) +
            "</phone><status>" + xml::EscapeText(status) + "</status></r>");
        return true;
      });
      return out;
    }
    default:
      return Status::Unsupported(std::string(QueryName(id)) +
                                 " has no Xcolumn plan");
  }
}

}  // namespace

Result<std::vector<std::string>> RunShredQuery(ShredEngine& engine,
                                               QueryId id,
                                               const QueryParams& params) {
  // A query undefined for this class is unsupported per §2.2.
  if (XQueryFor(id, engine.db_class(), params).empty()) {
    return Status::Unsupported(std::string(QueryName(id)) +
                               " is not defined for " +
                               datagen::DbClassName(engine.db_class()));
  }
  switch (id) {
    case QueryId::kQ1:
      return ShredQ1(engine, params);
    case QueryId::kQ2:
      return ShredQ2(engine, params);
    case QueryId::kQ3:
      return ShredQ3(engine, params);
    case QueryId::kQ4:
      // Relative document order is not representable after shredding
      // (§3.1.3 problem 2) — the honest answer is "unsupported".
      return Status::Unsupported(
          "Q4 requires document order, which the shredded mapping does not "
          "maintain");
    case QueryId::kQ5:
      return ShredQ5(engine, params);
    case QueryId::kQ6:
      return ShredQ6(engine, params);
    case QueryId::kQ7:
      return ShredQ7(engine, params);
    case QueryId::kQ8:
      return ShredQ8(engine, params);
    case QueryId::kQ9:
      return ShredQ9(engine, params);
    case QueryId::kQ10:
      return ShredQ10(engine, params);
    case QueryId::kQ11:
      return ShredQ11(engine, params);
    case QueryId::kQ12:
      return ShredQ12(engine, params);
    case QueryId::kQ13:
      return ShredQ13(engine, params);
    case QueryId::kQ14:
      return ShredQ14(engine, params);
    case QueryId::kQ15:
      return ShredQ15(engine, params);
    case QueryId::kQ16:
      return ShredQ16(engine, params);
    case QueryId::kQ17:
      return ShredQ17(engine, params);
    case QueryId::kQ18:
      return ShredQ18(engine, params);
    case QueryId::kQ19:
      return ShredQ19(engine, params);
    case QueryId::kQ20:
      return ShredQ20(engine, params);
  }
  return Status::Internal("unhandled query id");
}

Result<std::vector<std::string>> RunClobQuery(ClobEngine& engine, QueryId id,
                                              const QueryParams& params) {
  if (engine.side_dad().tables.empty()) {
    return Status::Unsupported("Xcolumn hosts only the MD classes");
  }
  const bool is_orders =
      engine.side_tables().FindTable("side_order") != nullptr;
  const datagen::DbClass cls =
      is_orders ? datagen::DbClass::kDcMd : datagen::DbClass::kTcMd;
  if (XQueryFor(id, cls, params).empty()) {
    return Status::Unsupported(std::string(QueryName(id)) +
                               " is not defined for " +
                               datagen::DbClassName(cls));
  }
  switch (id) {
    case QueryId::kQ5:
      return ClobQ5(engine, params);
    case QueryId::kQ8:
      return ClobQ8(engine, params);
    case QueryId::kQ12:
      return ClobQ12(engine, params);
    case QueryId::kQ14:
      return ClobQ14(engine, params);
    case QueryId::kQ17:
      return ClobQ17(engine, params);
    default:
      return ClobExtended(engine, id, cls, params);
  }
}

}  // namespace xbench::workload
