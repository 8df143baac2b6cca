#include "tpcw/mapping.h"

#include <cstdio>
#include <map>

#include "common/strings.h"
#include "xml/serializer.h"

namespace xbench::tpcw {
namespace {

std::string MoneyText(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

void AddAddress(xml::Writer& out, const char* element_name,
                const Address& addr, const TpcwData& data) {
  out.Open(element_name);
  out.Simple("street", addr.addr_street1);
  if (!addr.addr_street2.empty()) {
    out.Simple("street2", addr.addr_street2);
  }
  out.Simple("city", addr.addr_city);
  if (!addr.addr_state.empty()) out.Simple("state", addr.addr_state);
  out.Simple("zip", addr.addr_zip);
  out.Simple(
      "country",
      data.countries[static_cast<size_t>(addr.addr_co_id - 1)].co_name);
  out.Close();
}

}  // namespace

datagen::GeneratedDocument BuildCatalog(const TpcwData& data) {
  // Pre-index the joins.
  std::map<int64_t, std::vector<int64_t>> item_to_authors;
  for (const ItemAuthor& ia : data.item_authors) {
    item_to_authors[ia.ia_i_id].push_back(ia.ia_a_id);
  }

  xml::Writer out;
  out.Open("catalog");
  for (const Item& item : data.items) {
    out.Open("item");
    out.Attribute("id", ItemIdString(item.i_id));
    out.Simple("title", item.i_title);

    out.Open("authors");
    for (int64_t a_id : item_to_authors[item.i_id]) {
      const Author& author = data.authors[static_cast<size_t>(a_id - 1)];
      const Author2& author2 = data.authors2[static_cast<size_t>(a_id - 1)];
      out.Open("author");
      out.Attribute("id", AuthorIdString(a_id));
      out.Open("name");
      out.Simple("first_name", author.a_fname);
      out.Simple("last_name", author.a_lname);
      out.Close();
      out.Simple("date_of_birth", author.a_dob);
      out.Simple("biography", author.a_bio);
      AddAddress(out, "mail_address",
                 data.addresses[static_cast<size_t>(author2.a2_addr_id - 1)],
                 data);
      out.Simple("phone", author2.a2_phone);
      out.Simple("email", author2.a2_email);
      out.Close();
    }
    out.Close();

    const Publisher& pub =
        data.publishers[static_cast<size_t>(item.i_pub_id - 1)];
    out.Open("publisher");
    out.Simple("name", pub.pub_name);
    if (!pub.pub_fax.empty()) out.Simple("fax_number", pub.pub_fax);
    out.Simple("phone", pub.pub_phone);
    out.Simple("email", pub.pub_email);
    out.Close();

    out.Simple("date_of_release", item.i_date_of_release);
    out.Simple("subject", item.i_subject);
    out.Simple("description", item.i_desc);
    out.Simple("size", std::to_string(item.i_size));
    out.Simple("pages", std::to_string(item.i_page));
    out.Simple("srp", MoneyText(item.i_srp));
    out.Simple("cost", MoneyText(item.i_cost));
    out.Simple("stock", std::to_string(item.i_stock));
    out.Simple("isbn", item.i_isbn);
    out.Simple("backing", item.i_backing);
    out.Close();
  }
  out.Close();
  return {"catalog.xml", out.TakeText()};
}

std::vector<datagen::GeneratedDocument> BuildOrderDocuments(
    const TpcwData& data) {
  std::map<int64_t, std::vector<const OrderLine*>> lines_by_order;
  for (const OrderLine& ol : data.order_lines) {
    lines_by_order[ol.ol_o_id].push_back(&ol);
  }
  std::map<int64_t, const CcXact*> xact_by_order;
  for (const CcXact& cx : data.cc_xacts) {
    xact_by_order[cx.cx_o_id] = &cx;
  }

  std::vector<datagen::GeneratedDocument> docs;
  docs.reserve(data.orders.size());
  xml::Writer out;
  for (const Order& order : data.orders) {
    out.Open("order");
    out.Attribute("id", OrderIdString(order.o_id));
    out.Simple("customer_id", CustomerIdString(order.o_c_id));
    out.Simple("order_date", order.o_date);
    out.Simple("sub_total", MoneyText(order.o_sub_total));
    out.Simple("tax", MoneyText(order.o_tax));
    out.Simple("total", MoneyText(order.o_total));
    out.Open("shipping");
    out.Simple("ship_type", order.o_ship_type);
    out.Simple("ship_date", order.o_ship_date);
    AddAddress(out, "ship_address",
               data.addresses[static_cast<size_t>(order.o_ship_addr_id - 1)],
               data);
    out.Close();
    out.Simple("status", order.o_status);

    if (auto it = xact_by_order.find(order.o_id); it != xact_by_order.end()) {
      const CcXact& cx = *it->second;
      out.Open("cc_xact");
      out.Simple("cc_type", cx.cx_type);
      out.Simple("cc_number", cx.cx_num);
      out.Simple("cc_name", cx.cx_name);
      out.Simple("cc_expire", cx.cx_expire);
      out.Simple("auth_id", cx.cx_auth_id);
      out.Simple("amount", MoneyText(cx.cx_xact_amt));
      out.Simple("xact_date", cx.cx_xact_date);
      out.Simple(
          "country",
          data.countries[static_cast<size_t>(cx.cx_co_id - 1)].co_name);
      out.Close();
    }

    out.Open("order_lines");
    for (const OrderLine* ol : lines_by_order[order.o_id]) {
      out.Open("order_line");
      out.Attribute("no", std::to_string(ol->ol_id));
      out.Simple("item_id", ItemIdString(ol->ol_i_id));
      out.Simple("quantity", std::to_string(ol->ol_qty));
      out.Simple("discount", MoneyText(ol->ol_discount));
      if (!ol->ol_comments.empty()) {
        out.Simple("comments", ol->ol_comments);
      }
      out.Close();
    }
    out.Close();

    out.Close();
    docs.push_back({"order" + PadNumber(order.o_id, 6) + ".xml",
                    out.TakeText()});
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

std::vector<datagen::GeneratedDocument> BuildFlatDocuments(
    const TpcwData& data) {
  std::vector<datagen::GeneratedDocument> docs;

  // Emits one table as a sequence of chunked flat documents.
  auto chunked = [&docs](const char* root_name, const char* base_name,
                         size_t row_count, auto&& emit_row) {
    size_t emitted = 0;
    int chunk = 0;
    do {
      xml::Writer out;
      out.Open(root_name);
      const size_t end = std::min(row_count, emitted + kFlatChunkRows);
      for (; emitted < end; ++emitted) {
        emit_row(out, emitted);
      }
      out.Close();
      ++chunk;
      std::string name = base_name;
      if (row_count > kFlatChunkRows) {
        name += StrCat({"_", PadNumber(chunk, 3)});
      }
      docs.push_back({name + ".xml", out.TakeText()});
    } while (emitted < row_count);
  };

  chunked("customers", "Customer", data.customers.size(),
          [&data](xml::Writer& out, size_t i) {
            const Customer& c = data.customers[i];
            out.Open("customer");
            out.Attribute("id", CustomerIdString(c.c_id));
            out.Simple("uname", c.c_uname);
            out.Simple("first_name", c.c_fname);
            out.Simple("last_name", c.c_lname);
            out.Simple("address_id", std::to_string(c.c_addr_id));
            out.Simple("phone", c.c_phone);
            out.Simple("email", c.c_email);
            out.Simple("since", c.c_since);
            out.Simple("discount", MoneyText(c.c_discount));
            out.Close();
          });

  chunked("items", "Item", data.items.size(),
          [&data](xml::Writer& out, size_t i) {
            const Item& it = data.items[i];
            out.Open("item");
            out.Attribute("id", ItemIdString(it.i_id));
            out.Simple("title", it.i_title);
            out.Simple("publisher_id", std::to_string(it.i_pub_id));
            out.Simple("date_of_release", it.i_date_of_release);
            out.Simple("subject", it.i_subject);
            out.Simple("srp", MoneyText(it.i_srp));
            out.Simple("stock", std::to_string(it.i_stock));
            out.Simple("isbn", it.i_isbn);
            out.Close();
          });

  chunked("authors", "Author", data.authors.size(),
          [&data](xml::Writer& out, size_t i) {
            const Author& a = data.authors[i];
            out.Open("author");
            out.Attribute("id", AuthorIdString(a.a_id));
            out.Simple("first_name", a.a_fname);
            out.Simple("last_name", a.a_lname);
            out.Simple("date_of_birth", a.a_dob);
            out.Close();
          });

  chunked("addresses", "Address", data.addresses.size(),
          [&data](xml::Writer& out, size_t i) {
            const Address& a = data.addresses[i];
            out.Open("address");
            out.Attribute("id", std::to_string(a.addr_id));
            out.Simple("street1", a.addr_street1);
            if (!a.addr_street2.empty()) {
              out.Simple("street2", a.addr_street2);
            }
            out.Simple("city", a.addr_city);
            if (!a.addr_state.empty()) out.Simple("state", a.addr_state);
            out.Simple("zip", a.addr_zip);
            out.Simple("country_id", std::to_string(a.addr_co_id));
            out.Close();
          });

  chunked("countries", "Country", data.countries.size(),
          [&data](xml::Writer& out, size_t i) {
            const Country& c = data.countries[i];
            out.Open("country");
            out.Attribute("id", std::to_string(c.co_id));
            out.Simple("name", c.co_name);
            out.Simple("currency", c.co_currency);
            out.Close();
          });

  return docs;
}

}  // namespace xbench::tpcw
