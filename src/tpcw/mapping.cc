#include "tpcw/mapping.h"

#include <cstdio>
#include <map>

#include "common/strings.h"

namespace xbench::tpcw {
namespace {

std::string MoneyText(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

void AddAddress(xml::Node& parent, const char* element_name,
                const Address& addr, const TpcwData& data) {
  xml::Node* node = parent.AddElement(element_name);
  node->AddSimple("street", addr.addr_street1);
  if (!addr.addr_street2.empty()) {
    node->AddSimple("street2", addr.addr_street2);
  }
  node->AddSimple("city", addr.addr_city);
  if (!addr.addr_state.empty()) node->AddSimple("state", addr.addr_state);
  node->AddSimple("zip", addr.addr_zip);
  node->AddSimple(
      "country",
      data.countries[static_cast<size_t>(addr.addr_co_id - 1)].co_name);
}

}  // namespace

xml::Document BuildCatalog(const TpcwData& data) {
  // Pre-index the joins.
  std::map<int64_t, std::vector<int64_t>> item_to_authors;
  for (const ItemAuthor& ia : data.item_authors) {
    item_to_authors[ia.ia_i_id].push_back(ia.ia_a_id);
  }

  xml::Document doc("catalog.xml");
  xml::Node* root = doc.CreateRoot("catalog");
  for (const Item& item : data.items) {
    xml::Node* item_node = root->AddElement("item");
    item_node->SetAttribute("id", ItemIdString(item.i_id));
    item_node->AddSimple("title", item.i_title);

    xml::Node* authors_node = item_node->AddElement("authors");
    for (int64_t a_id : item_to_authors[item.i_id]) {
      const Author& author = data.authors[static_cast<size_t>(a_id - 1)];
      const Author2& author2 = data.authors2[static_cast<size_t>(a_id - 1)];
      xml::Node* author_node = authors_node->AddElement("author");
      author_node->SetAttribute("id", AuthorIdString(a_id));
      xml::Node* name = author_node->AddElement("name");
      name->AddSimple("first_name", author.a_fname);
      name->AddSimple("last_name", author.a_lname);
      author_node->AddSimple("date_of_birth", author.a_dob);
      author_node->AddSimple("biography", author.a_bio);
      AddAddress(*author_node, "mail_address",
                 data.addresses[static_cast<size_t>(author2.a2_addr_id - 1)],
                 data);
      author_node->AddSimple("phone", author2.a2_phone);
      author_node->AddSimple("email", author2.a2_email);
    }

    const Publisher& pub =
        data.publishers[static_cast<size_t>(item.i_pub_id - 1)];
    xml::Node* pub_node = item_node->AddElement("publisher");
    pub_node->AddSimple("name", pub.pub_name);
    if (!pub.pub_fax.empty()) pub_node->AddSimple("fax_number", pub.pub_fax);
    pub_node->AddSimple("phone", pub.pub_phone);
    pub_node->AddSimple("email", pub.pub_email);

    item_node->AddSimple("date_of_release", item.i_date_of_release);
    item_node->AddSimple("subject", item.i_subject);
    item_node->AddSimple("description", item.i_desc);
    item_node->AddSimple("size", std::to_string(item.i_size));
    item_node->AddSimple("pages", std::to_string(item.i_page));
    item_node->AddSimple("srp", MoneyText(item.i_srp));
    item_node->AddSimple("cost", MoneyText(item.i_cost));
    item_node->AddSimple("stock", std::to_string(item.i_stock));
    item_node->AddSimple("isbn", item.i_isbn);
    item_node->AddSimple("backing", item.i_backing);
  }
  doc.AssignOrder();
  return doc;
}

std::vector<xml::Document> BuildOrderDocuments(const TpcwData& data) {
  std::map<int64_t, std::vector<const OrderLine*>> lines_by_order;
  for (const OrderLine& ol : data.order_lines) {
    lines_by_order[ol.ol_o_id].push_back(&ol);
  }
  std::map<int64_t, const CcXact*> xact_by_order;
  for (const CcXact& cx : data.cc_xacts) {
    xact_by_order[cx.cx_o_id] = &cx;
  }

  std::vector<xml::Document> docs;
  docs.reserve(data.orders.size());
  for (const Order& order : data.orders) {
    xml::Document doc("order" + PadNumber(order.o_id, 6) + ".xml");
    xml::Node* root = doc.CreateRoot("order");
    root->SetAttribute("id", OrderIdString(order.o_id));
    root->AddSimple("customer_id", CustomerIdString(order.o_c_id));
    root->AddSimple("order_date", order.o_date);
    root->AddSimple("sub_total", MoneyText(order.o_sub_total));
    root->AddSimple("tax", MoneyText(order.o_tax));
    root->AddSimple("total", MoneyText(order.o_total));
    xml::Node* shipping = root->AddElement("shipping");
    shipping->AddSimple("ship_type", order.o_ship_type);
    shipping->AddSimple("ship_date", order.o_ship_date);
    AddAddress(*shipping, "ship_address",
               data.addresses[static_cast<size_t>(order.o_ship_addr_id - 1)],
               data);
    root->AddSimple("status", order.o_status);

    if (auto it = xact_by_order.find(order.o_id); it != xact_by_order.end()) {
      const CcXact& cx = *it->second;
      xml::Node* cc = root->AddElement("cc_xact");
      cc->AddSimple("cc_type", cx.cx_type);
      cc->AddSimple("cc_number", cx.cx_num);
      cc->AddSimple("cc_name", cx.cx_name);
      cc->AddSimple("cc_expire", cx.cx_expire);
      cc->AddSimple("auth_id", cx.cx_auth_id);
      cc->AddSimple("amount", MoneyText(cx.cx_xact_amt));
      cc->AddSimple("xact_date", cx.cx_xact_date);
      cc->AddSimple(
          "country",
          data.countries[static_cast<size_t>(cx.cx_co_id - 1)].co_name);
    }

    xml::Node* order_lines = root->AddElement("order_lines");
    for (const OrderLine* ol : lines_by_order[order.o_id]) {
      xml::Node* line = order_lines->AddElement("order_line");
      line->SetAttribute("no", std::to_string(ol->ol_id));
      line->AddSimple("item_id", ItemIdString(ol->ol_i_id));
      line->AddSimple("quantity", std::to_string(ol->ol_qty));
      line->AddSimple("discount", MoneyText(ol->ol_discount));
      if (!ol->ol_comments.empty()) {
        line->AddSimple("comments", ol->ol_comments);
      }
    }

    doc.AssignOrder();
    docs.push_back(std::move(doc));
  }
  return docs;
}

namespace {

/// Rows per flat-translation document. Flat tables are chunked into
/// multiple documents so the DC/MD class stays "many small files" at every
/// scale (and fits per-document limits such as DB2's decomposition cap and
/// the CLOB bound, as the paper's methodology requires).
constexpr size_t kFlatChunkRows = 400;

}  // namespace

std::vector<xml::Document> BuildFlatDocuments(const TpcwData& data) {
  std::vector<xml::Document> docs;

  // Emits one table as a sequence of chunked flat documents.
  auto chunked = [&docs](const char* root_name, const char* base_name,
                         size_t row_count, auto&& emit_row) {
    size_t emitted = 0;
    int chunk = 0;
    do {
      xml::Document doc;
      xml::Node* root = doc.CreateRoot(root_name);
      const size_t end = std::min(row_count, emitted + kFlatChunkRows);
      for (; emitted < end; ++emitted) {
        emit_row(*root, emitted);
      }
      ++chunk;
      std::string name = base_name;
      if (row_count > kFlatChunkRows) {
        name += StrCat({"_", PadNumber(chunk, 3)});
      }
      doc.set_name(name + ".xml");
      doc.AssignOrder();
      docs.push_back(std::move(doc));
    } while (emitted < row_count);
  };

  chunked("customers", "Customer", data.customers.size(),
          [&data](xml::Node& root, size_t i) {
            const Customer& c = data.customers[i];
            xml::Node* row = root.AddElement("customer");
            row->SetAttribute("id", CustomerIdString(c.c_id));
            row->AddSimple("uname", c.c_uname);
            row->AddSimple("first_name", c.c_fname);
            row->AddSimple("last_name", c.c_lname);
            row->AddSimple("address_id", std::to_string(c.c_addr_id));
            row->AddSimple("phone", c.c_phone);
            row->AddSimple("email", c.c_email);
            row->AddSimple("since", c.c_since);
            row->AddSimple("discount", MoneyText(c.c_discount));
          });

  chunked("items", "Item", data.items.size(),
          [&data](xml::Node& root, size_t i) {
            const Item& it = data.items[i];
            xml::Node* row = root.AddElement("item");
            row->SetAttribute("id", ItemIdString(it.i_id));
            row->AddSimple("title", it.i_title);
            row->AddSimple("publisher_id", std::to_string(it.i_pub_id));
            row->AddSimple("date_of_release", it.i_date_of_release);
            row->AddSimple("subject", it.i_subject);
            row->AddSimple("srp", MoneyText(it.i_srp));
            row->AddSimple("stock", std::to_string(it.i_stock));
            row->AddSimple("isbn", it.i_isbn);
          });

  chunked("authors", "Author", data.authors.size(),
          [&data](xml::Node& root, size_t i) {
            const Author& a = data.authors[i];
            xml::Node* row = root.AddElement("author");
            row->SetAttribute("id", AuthorIdString(a.a_id));
            row->AddSimple("first_name", a.a_fname);
            row->AddSimple("last_name", a.a_lname);
            row->AddSimple("date_of_birth", a.a_dob);
          });

  chunked("addresses", "Address", data.addresses.size(),
          [&data](xml::Node& root, size_t i) {
            const Address& a = data.addresses[i];
            xml::Node* row = root.AddElement("address");
            row->SetAttribute("id", std::to_string(a.addr_id));
            row->AddSimple("street1", a.addr_street1);
            if (!a.addr_street2.empty()) {
              row->AddSimple("street2", a.addr_street2);
            }
            row->AddSimple("city", a.addr_city);
            if (!a.addr_state.empty()) row->AddSimple("state", a.addr_state);
            row->AddSimple("zip", a.addr_zip);
            row->AddSimple("country_id", std::to_string(a.addr_co_id));
          });

  chunked("countries", "Country", data.countries.size(),
          [&data](xml::Node& root, size_t i) {
            const Country& c = data.countries[i];
            xml::Node* row = root.AddElement("country");
            row->SetAttribute("id", std::to_string(c.co_id));
            row->AddSimple("name", c.co_name);
            row->AddSimple("currency", c.co_currency);
          });

  return docs;
}

}  // namespace xbench::tpcw
