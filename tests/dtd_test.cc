#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/schema_summary.h"

namespace xbench::xml {
namespace {

constexpr const char* kSampleDtd = R"(
<!ELEMENT r (a+, b?)>
<!ATTLIST r id CDATA #REQUIRED>
<!ATTLIST r opt CDATA #IMPLIED>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b EMPTY>
)";

TEST(DtdParseTest, ParsesDeclarations) {
  auto dtd = Dtd::Parse(kSampleDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(dtd->element_count(), 3u);
  const Dtd::ElementDecl* r = dtd->FindElement("r");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->model, Dtd::Model::kSequence);
  ASSERT_EQ(r->sequence.size(), 2u);
  EXPECT_EQ(r->sequence[0].name, "a");
  EXPECT_EQ(r->sequence[0].occurrence, '+');
  EXPECT_EQ(r->sequence[1].occurrence, '?');
  EXPECT_TRUE(r->attributes.at("id"));
  EXPECT_FALSE(r->attributes.at("opt"));
  EXPECT_EQ(dtd->FindElement("a")->model, Dtd::Model::kPcdata);
  EXPECT_EQ(dtd->FindElement("b")->model, Dtd::Model::kEmpty);
}

TEST(DtdParseTest, ParsesMixedModel) {
  auto dtd = Dtd::Parse("<!ELEMENT q (#PCDATA | em | b)*>");
  ASSERT_TRUE(dtd.ok());
  const Dtd::ElementDecl* q = dtd->FindElement("q");
  EXPECT_EQ(q->model, Dtd::Model::kMixed);
  EXPECT_EQ(q->mixed.size(), 2u);
  EXPECT_TRUE(q->mixed.count("em"));
}

TEST(DtdParseTest, RejectsMalformed) {
  EXPECT_FALSE(Dtd::Parse("").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT r").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT r ANY-WEIRD>").ok());
  EXPECT_FALSE(Dtd::Parse("<!ATTLIST nope id CDATA #REQUIRED>").ok());
  EXPECT_FALSE(Dtd::Parse("<!ENTITY x 'y'>").ok());
}

TEST(DtdParseTest, RejectsTruncatedDeclarations) {
  // Truncation anywhere inside a declaration is a Status error (fuzz
  // regressions: the parser must not scan past the end of input).
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT item (name, price").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT a EMPTY>\n<!ATTLIST a id CDATA").ok());
  EXPECT_FALSE(Dtd::Parse("<!").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT a (#PCDATA)>\n<!ELEM").ok());
  EXPECT_FALSE(Dtd::Parse("<!ELEMENT a (b | ").ok());
}

class DtdValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dtd = Dtd::Parse(kSampleDtd);
    ASSERT_TRUE(dtd.ok());
    dtd_ = std::make_unique<Dtd>(std::move(dtd).value());
  }

  Status ValidateText(const char* text) {
    auto doc = Parse(text, "t.xml");
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    return dtd_->Validate(*doc->root());
  }

  std::unique_ptr<Dtd> dtd_;
};

TEST_F(DtdValidateTest, AcceptsConformingDocuments) {
  EXPECT_TRUE(ValidateText(R"(<r id="1"><a>x</a></r>)").ok());
  EXPECT_TRUE(ValidateText(R"(<r id="1" opt="o"><a>x</a><a>y</a><b/></r>)")
                  .ok());
}

TEST_F(DtdValidateTest, RejectsViolations) {
  // Missing required attribute.
  EXPECT_FALSE(ValidateText(R"(<r><a>x</a></r>)").ok());
  // Undeclared attribute.
  EXPECT_FALSE(ValidateText(R"(<r id="1" zzz="1"><a>x</a></r>)").ok());
  // Missing mandatory child a.
  EXPECT_FALSE(ValidateText(R"(<r id="1"><b/></r>)").ok());
  // b repeated beyond its ? bound.
  EXPECT_FALSE(ValidateText(R"(<r id="1"><a>x</a><b/><b/></r>)").ok());
  // Wrong order.
  EXPECT_FALSE(ValidateText(R"(<r id="1"><b/><a>x</a></r>)").ok());
  // Undeclared element.
  EXPECT_FALSE(ValidateText(R"(<r id="1"><a>x</a><zzz/></r>)").ok());
  // Element inside (#PCDATA).
  EXPECT_FALSE(ValidateText(R"(<r id="1"><a><b/></a></r>)").ok());
  // Content in EMPTY.
  EXPECT_FALSE(ValidateText(R"(<r id="1"><a>x</a><b>t</b></r>)").ok());
}

/// The full loop the paper's companion report implies: infer the class
/// DTD from generated data, then every generated document validates
/// against it.
class InferredDtdTest : public ::testing::TestWithParam<datagen::DbClass> {};

std::vector<Document> ParseAll(const datagen::GeneratedDatabase& db) {
  std::vector<Document> docs;
  for (const datagen::GeneratedDocument& doc : db.documents) {
    auto parsed = Parse(doc.text, doc.name);
    EXPECT_TRUE(parsed.ok()) << doc.name << ": " << parsed.status().ToString();
    if (parsed.ok()) docs.push_back(std::move(parsed).value());
  }
  return docs;
}

TEST_P(InferredDtdTest, GeneratedDataValidatesAgainstInferredDtd) {
  datagen::GenConfig config;
  config.target_bytes = 96 * 1024;
  config.seed = 42;
  datagen::GeneratedDatabase db = datagen::Generate(GetParam(), config);

  std::vector<Document> docs = ParseAll(db);
  SchemaSummary summary;
  for (const Document& doc : docs) summary.AddDocument(doc);
  auto dtd = Dtd::Parse(summary.ToDtd());
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString() << "\n" << summary.ToDtd();

  for (const Document& doc : docs) {
    Status status = dtd->Validate(*doc.root());
    EXPECT_TRUE(status.ok()) << doc.name() << ": " << status.ToString();
  }
}

TEST_P(InferredDtdTest, MutatedDocumentFailsValidation) {
  datagen::GenConfig config;
  config.target_bytes = 32 * 1024;
  config.seed = 42;
  datagen::GeneratedDatabase db = datagen::Generate(GetParam(), config);
  std::vector<Document> docs = ParseAll(db);
  SchemaSummary summary;
  for (const Document& doc : docs) summary.AddDocument(doc);
  auto dtd = Dtd::Parse(summary.ToDtd());
  ASSERT_TRUE(dtd.ok());

  // Injecting an alien element into a parsed copy must be caught.
  Document& mutated = docs[0];
  mutated.root()->AddElement("alien_element_xyz");
  EXPECT_FALSE(dtd->Validate(*mutated.root()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllClasses, InferredDtdTest,
                         ::testing::Values(datagen::DbClass::kTcSd,
                                           datagen::DbClass::kTcMd,
                                           datagen::DbClass::kDcSd,
                                           datagen::DbClass::kDcMd),
                         [](const auto& info) {
                           std::string name =
                               datagen::DbClassName(info.param);
                           name.erase(name.find('/'), 1);
                           return name;
                         });

}  // namespace
}  // namespace xbench::xml
