#include <gtest/gtest.h>

#include <set>

#include "datagen/word_pool.h"
#include "tpcw/mapping.h"
#include "tpcw/populate.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xbench::tpcw {
namespace {

PopulateScale SmallScale() {
  PopulateScale scale;
  scale.items = 40;
  scale.customers = 30;
  scale.orders = 50;
  scale.authors = 15;
  scale.publishers = 8;
  scale.countries = 10;
  return scale;
}

class TpcwTest : public ::testing::Test {
 protected:
  TpcwTest() : words_(), data_(Populate(SmallScale(), 42, words_)) {}
  datagen::WordPool words_;
  TpcwData data_;
};

TEST_F(TpcwTest, CardinalitiesMatchScale) {
  EXPECT_EQ(data_.items.size(), 40u);
  EXPECT_EQ(data_.customers.size(), 30u);
  EXPECT_EQ(data_.orders.size(), 50u);
  EXPECT_EQ(data_.authors.size(), 15u);
  EXPECT_EQ(data_.authors2.size(), 15u);
  EXPECT_EQ(data_.publishers.size(), 8u);
  EXPECT_EQ(data_.countries.size(), 10u);
  EXPECT_EQ(data_.cc_xacts.size(), 50u);  // one per order
  EXPECT_GE(data_.order_lines.size(), 50u);
}

TEST_F(TpcwTest, ReferentialIntegrity) {
  for (const Address& a : data_.addresses) {
    EXPECT_GE(a.addr_co_id, 1);
    EXPECT_LE(a.addr_co_id, 10);
  }
  for (const Item& i : data_.items) {
    EXPECT_GE(i.i_pub_id, 1);
    EXPECT_LE(i.i_pub_id, 8);
  }
  for (const ItemAuthor& ia : data_.item_authors) {
    EXPECT_GE(ia.ia_a_id, 1);
    EXPECT_LE(ia.ia_a_id, 15);
    EXPECT_GE(ia.ia_i_id, 1);
    EXPECT_LE(ia.ia_i_id, 40);
  }
  for (const Order& o : data_.orders) {
    EXPECT_GE(o.o_c_id, 1);
    EXPECT_LE(o.o_c_id, 30);
  }
  for (const OrderLine& ol : data_.order_lines) {
    EXPECT_GE(ol.ol_i_id, 1);
    EXPECT_LE(ol.ol_i_id, 40);
    EXPECT_GE(ol.ol_o_id, 1);
    EXPECT_LE(ol.ol_o_id, 50);
  }
}

TEST_F(TpcwTest, EveryItemHasAtLeastOneAuthor) {
  std::set<int64_t> items_with_authors;
  for (const ItemAuthor& ia : data_.item_authors) {
    items_with_authors.insert(ia.ia_i_id);
  }
  EXPECT_EQ(items_with_authors.size(), data_.items.size());
}

TEST_F(TpcwTest, SomePublishersLackFax) {
  int missing = 0;
  for (const Publisher& p : data_.publishers) {
    if (p.pub_fax.empty()) ++missing;
  }
  EXPECT_GT(missing, 0);          // Q14 has answers
  EXPECT_LT(missing, 8);          // but not all
}

TEST_F(TpcwTest, OrderTotalsAreConsistent) {
  for (const Order& o : data_.orders) {
    EXPECT_NEAR(o.o_total, o.o_sub_total + o.o_tax, 0.02);
    EXPECT_GT(o.o_sub_total, 0);
  }
}

TEST_F(TpcwTest, DeterministicForSeed) {
  TpcwData again = Populate(SmallScale(), 42, words_);
  ASSERT_EQ(again.items.size(), data_.items.size());
  for (size_t i = 0; i < again.items.size(); ++i) {
    EXPECT_EQ(again.items[i].i_title, data_.items[i].i_title);
  }
}

// --- Mappings ----------------------------------------------------------------

TEST_F(TpcwTest, CatalogJoinNesting) {
  xml::Document catalog = BuildCatalog(data_);
  EXPECT_EQ(catalog.root()->name(), "catalog");
  const auto items = catalog.root()->Children("item");
  ASSERT_EQ(items.size(), data_.items.size());

  const xml::Node* item = items[0];
  EXPECT_NE(item->FindAttribute("id"), nullptr);
  ASSERT_NE(item->FirstChild("authors"), nullptr);
  EXPECT_FALSE(item->FirstChild("authors")->Children("author").empty());
  ASSERT_NE(item->FirstChild("publisher"), nullptr);
  // Join nesting adds depth: item/authors/author/mail_address/street.
  const xml::Node* author =
      item->FirstChild("authors")->Children("author")[0];
  ASSERT_NE(author->FirstChild("mail_address"), nullptr);
  EXPECT_NE(author->FirstChild("mail_address")->FirstChild("street"), nullptr);
  EXPECT_NE(author->FirstChild("mail_address")->FirstChild("country"),
            nullptr);
  EXPECT_TRUE(xml::CheckWellFormed(xml::Serialize(catalog)).ok());
}

TEST_F(TpcwTest, OrderDocumentsOnePerOrder) {
  auto docs = BuildOrderDocuments(data_);
  ASSERT_EQ(docs.size(), data_.orders.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    const xml::Node* root = docs[i].root();
    EXPECT_EQ(root->name(), "order");
    EXPECT_EQ(*root->FindAttribute("id"),
              OrderIdString(static_cast<int64_t>(i + 1)));
    ASSERT_NE(root->FirstChild("order_lines"), nullptr);
    EXPECT_FALSE(root->FirstChild("order_lines")->Children("order_line")
                     .empty());
    EXPECT_NE(root->FirstChild("status"), nullptr);
    EXPECT_NE(root->FirstChild("cc_xact"), nullptr);  // joined CC_XACTS
  }
}

TEST_F(TpcwTest, OrderLinesKeepDocumentOrder) {
  auto docs = BuildOrderDocuments(data_);
  const xml::Node* lines = docs[0].root()->FirstChild("order_lines");
  int expected = 1;
  for (const xml::Node* line : lines->Children("order_line")) {
    EXPECT_EQ(*line->FindAttribute("no"), std::to_string(expected));
    ++expected;
  }
}

TEST_F(TpcwTest, FlatTranslationIsFlat) {
  auto docs = BuildFlatDocuments(data_);
  ASSERT_EQ(docs.size(), 5u);
  std::set<std::string> names;
  for (const xml::Document& doc : docs) names.insert(doc.name());
  EXPECT_TRUE(names.count("Customer.xml"));
  EXPECT_TRUE(names.count("Item.xml"));
  EXPECT_TRUE(names.count("Author.xml"));
  EXPECT_TRUE(names.count("Address.xml"));
  EXPECT_TRUE(names.count("Country.xml"));

  for (const xml::Document& doc : docs) {
    // depth exactly 3: root / row / leaf.
    int max_depth = 0;
    struct {
      void Walk(const xml::Node& n, int d, int& max) {
        max = std::max(max, d);
        for (const auto& c : n.children()) {
          if (c->is_element()) Walk(*c, d + 1, max);
        }
      }
    } walker;
    walker.Walk(*doc.root(), 1, max_depth);
    EXPECT_EQ(max_depth, 3) << doc.name();
  }
}

TEST_F(TpcwTest, CustomerIdsJoinOrdersToCustomers) {
  auto orders = BuildOrderDocuments(data_);
  auto flat = BuildFlatDocuments(data_);
  const xml::Document* customers = nullptr;
  for (const auto& doc : flat) {
    if (doc.name() == "Customer.xml") customers = &doc;
  }
  ASSERT_NE(customers, nullptr);
  std::set<std::string> customer_ids;
  for (const xml::Node* c : customers->root()->Children("customer")) {
    customer_ids.insert(std::string(*c->FindAttribute("id")));
  }
  for (const xml::Document& order : orders) {
    const std::string cid =
        order.root()->FirstChild("customer_id")->TextContent();
    EXPECT_TRUE(customer_ids.count(cid)) << cid;  // Q19's join is total
  }
}

}  // namespace
}  // namespace xbench::tpcw
