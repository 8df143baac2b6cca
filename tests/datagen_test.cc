#include <gtest/gtest.h>

#include <set>

#include "datagen/article_generator.h"
#include "datagen/dictionary_generator.h"
#include "datagen/generator.h"
#include "datagen/template_engine.h"
#include "datagen/word_pool.h"
#include "stats/corpus_analyzer.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xbench::datagen {
namespace {

constexpr uint64_t kTestBytes = 96 * 1024;

/// Parses generated or written text; a parse error fails the test.
xml::Document ParseText(const std::string& text) {
  auto parsed = xml::Parse(text, "t.xml");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? std::move(parsed).value() : xml::Document();
}

/// Writes `count` instances of `tmpl` under a `<parent>` element and
/// parses the result.
xml::Document InstantiateUnderParent(const TemplateNode& tmpl, GenContext& ctx,
                                     int count) {
  xml::Writer out;
  out.Open("parent");
  for (int i = 0; i < count; ++i) Instantiate(tmpl, ctx, out);
  out.Close();
  return ParseText(out.TakeText());
}

// --- WordPool ----------------------------------------------------------------

TEST(WordPoolTest, DeterministicWords) {
  WordPool a;
  WordPool b;
  EXPECT_EQ(a.WordAt(1), b.WordAt(1));
  EXPECT_EQ(a.WordAt(100), b.WordAt(100));
  EXPECT_NE(a.WordAt(1), a.WordAt(2));
}

TEST(WordPoolTest, ZipfFavorsLowRanks) {
  WordPool pool(1000, 1.0);
  Rng rng(1);
  int rank1 = 0;
  int rank500 = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string& w = pool.RandomWord(rng);
    if (w == pool.WordAt(1)) ++rank1;
    if (w == pool.WordAt(500)) ++rank500;
  }
  EXPECT_GT(rank1, rank500 * 10);
}

TEST(WordPoolTest, SentenceShape) {
  WordPool pool;
  Rng rng(2);
  std::string s = pool.Sentence(rng, 3, 5);
  EXPECT_EQ(s.back(), '.');
  // 3..5 words -> 2..4 spaces.
  const auto spaces = std::count(s.begin(), s.end(), ' ');
  EXPECT_GE(spaces, 2);
  EXPECT_LE(spaces, 4);
}

TEST(WordPoolTest, DateFormat) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    std::string d = WordPool::RandomDate(rng, 1990, 2000);
    ASSERT_EQ(d.size(), 10u);
    EXPECT_EQ(d[4], '-');
    EXPECT_EQ(d[7], '-');
    EXPECT_GE(d.substr(0, 4), "1990");
    EXPECT_LE(d.substr(0, 4), "2000");
  }
}

// --- Template engine ------------------------------------------------------------

TEST(TemplateEngineTest, CountsAndPresence) {
  Rng rng(7);
  GenContext ctx(rng);
  TemplateNode root;
  root.name = "r";
  TemplateNode* child = root.AddChild("c", stats::MakeUniform(2, 4));
  child->text = [](GenContext&) { return std::string("x"); };
  root.AddChild("opt", nullptr, /*presence=*/0.0);

  const xml::Document doc = InstantiateUnderParent(root, ctx, 1);
  ASSERT_EQ(doc.root()->children().size(), 1u);
  const xml::Node* node = doc.root()->children()[0];
  const size_t n = node->Children("c").size();
  EXPECT_GE(n, 2u);
  EXPECT_LE(n, 4u);
  EXPECT_TRUE(node->Children("opt").empty());
}

TEST(TemplateEngineTest, AttributesAndCounters) {
  Rng rng(7);
  GenContext ctx(rng);
  TemplateNode root;
  root.name = "r";
  root.SetAttr("id", [](GenContext& c) {
    return "N" + std::to_string(c.NextCounter("n"));
  });
  const xml::Document doc = InstantiateUnderParent(root, ctx, 2);
  const auto children = doc.root()->children();
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(*children[0]->FindAttribute("id"), "N1");
  EXPECT_EQ(*children[1]->FindAttribute("id"), "N2");
}

TEST(TemplateEngineTest, RecursionBounded) {
  Rng rng(7);
  GenContext ctx(rng);
  TemplateNode sec;
  sec.name = "sec";
  sec.AddRef(&sec, stats::MakeUniform(1, 1), 1.0, /*max_depth=*/3);
  const xml::Document doc = InstantiateUnderParent(sec, ctx, 1);
  const xml::Node* cur = doc.root()->FirstChild("sec");
  ASSERT_NE(cur, nullptr);
  int depth = 1;
  while ((cur = cur->FirstChild("sec")) != nullptr) ++depth;
  // The root plus max_depth levels of self-reference.
  EXPECT_EQ(depth, 4);
}

// --- Dictionary (TC/SD) -----------------------------------------------------------

TEST(DictionaryTest, SizeAndStructure) {
  WordPool words;
  GeneratedDatabase result = GenerateDictionary(kTestBytes, 42, words);
  EXPECT_GT(result.seeds.entry_count, 10);
  ASSERT_EQ(result.documents.size(), 1u);
  EXPECT_EQ(result.documents[0].name, "dictionary.xml");
  const xml::Document doc = ParseText(result.documents[0].text);
  EXPECT_EQ(doc.root()->name(), "dictionary");
  const auto entries = doc.root()->Children("entry");
  EXPECT_EQ(static_cast<int64_t>(entries.size()), result.seeds.entry_count);

  // Headwords and ids follow the deterministic naming scheme.
  EXPECT_EQ(entries[0]->FirstChild("hw")->TextContent(),
            DictionaryHeadword(1));
  EXPECT_EQ(*entries[0]->FindAttribute("id"), DictionaryEntryId(1));

  EXPECT_GE(result.documents[0].text.size(), kTestBytes);
  EXPECT_LT(result.documents[0].text.size(), kTestBytes * 2);
}

TEST(DictionaryTest, DeterministicForSeed) {
  WordPool words;
  auto a = GenerateDictionary(32 * 1024, 7, words);
  auto b = GenerateDictionary(32 * 1024, 7, words);
  EXPECT_EQ(a.documents[0].text, b.documents[0].text);
  auto c = GenerateDictionary(32 * 1024, 8, words);
  EXPECT_NE(a.documents[0].text, c.documents[0].text);
}

TEST(DictionaryTest, EntriesHaveSensesAndQuotes) {
  WordPool words;
  auto result = GenerateDictionary(kTestBytes, 42, words);
  int with_sense = 0;
  int with_quote = 0;
  int with_mixed_qt = 0;
  const xml::Document doc = ParseText(result.documents[0].text);
  for (const xml::Node* entry : doc.root()->Children("entry")) {
    if (entry->FirstChild("sn") != nullptr) ++with_sense;
    bool quote = false;
    bool mixed = false;
    entry->Visit([&](const xml::Node& n) {
      if (n.is_element() && n.name() == "q") quote = true;
      if (n.is_element() && n.name() == "qt" &&
          n.FirstChild("em") != nullptr) {
        mixed = true;
      }
    });
    if (quote) ++with_quote;
    if (mixed) ++with_mixed_qt;
  }
  EXPECT_EQ(with_sense, result.seeds.entry_count);  // >=1 sense each
  EXPECT_GT(with_quote, result.seeds.entry_count / 3);
  EXPECT_GT(with_mixed_qt, 0);  // mixed content exists (paper problem 3)
}

TEST(DictionaryTest, CrossReferencesPointToExistingEntries) {
  WordPool words;
  auto result = GenerateDictionary(kTestBytes, 42, words);
  std::set<std::string> ids;
  const xml::Document doc = ParseText(result.documents[0].text);
  for (const xml::Node* entry : doc.root()->Children("entry")) {
    ids.insert(std::string(*entry->FindAttribute("id")));
  }
  doc.root()->Visit([&](const xml::Node& n) {
    if (n.is_element() && n.name() == "ref") {
      const std::string_view* to = n.FindAttribute("to");
      ASSERT_NE(to, nullptr);
      EXPECT_TRUE(ids.count(std::string(*to))) << *to;
    }
  });
}

// --- Articles (TC/MD) ----------------------------------------------------------------

TEST(ArticlesTest, CollectionShape) {
  WordPool words;
  GeneratedDatabase result = GenerateArticles(kTestBytes, 42, words);
  EXPECT_GT(result.seeds.article_count, 5);
  EXPECT_EQ(static_cast<int64_t>(result.documents.size()),
            result.seeds.article_count);
  for (const GeneratedDocument& generated : result.documents) {
    const xml::Document doc = ParseText(generated.text);
    EXPECT_EQ(doc.root()->name(), "article");
    ASSERT_NE(doc.root()->FirstChild("prolog"), nullptr);
    ASSERT_NE(doc.root()->FirstChild("body"), nullptr);
  }
}

TEST(ArticlesTest, FirstSectionIsIntroduction) {
  WordPool words;
  auto result = GenerateArticles(kTestBytes, 42, words);
  for (const GeneratedDocument& generated : result.documents) {
    const xml::Document doc = ParseText(generated.text);
    const xml::Node* body = doc.root()->FirstChild("body");
    const auto secs = body->Children("sec");
    ASSERT_FALSE(secs.empty());
    EXPECT_EQ(secs[0]->FirstChild("heading")->TextContent(), "Introduction");
  }
}

TEST(ArticlesTest, WellKnownAuthorAppearsPeriodically) {
  WordPool words;
  auto result = GenerateArticles(kTestBytes, 42, words);
  int count = 0;
  for (const GeneratedDocument& generated : result.documents) {
    ParseText(generated.text).root()->Visit([&](const xml::Node& n) {
      if (n.is_element() && n.name() == "name" &&
          n.TextContent() == WellKnownAuthor()) {
        ++count;
      }
    });
  }
  EXPECT_GE(count, result.seeds.article_count / kWellKnownAuthorStride);
}

TEST(ArticlesTest, ContactIrregularityExists) {
  WordPool words;
  auto result = GenerateArticles(2 * kTestBytes, 42, words);
  int absent = 0;
  int empty = 0;
  int populated = 0;
  for (const GeneratedDocument& generated : result.documents) {
    ParseText(generated.text).root()->Visit([&](const xml::Node& n) {
      if (!n.is_element() || n.name() != "author") return;
      const xml::Node* contact = n.FirstChild("contact");
      if (contact == nullptr) {
        ++absent;
      } else if (contact->children().empty()) {
        ++empty;
      } else {
        ++populated;
      }
    });
  }
  EXPECT_GT(absent, 0);
  EXPECT_GT(empty, 0);      // Q15's target
  EXPECT_GT(populated, 0);
}

TEST(ArticlesTest, SectionsNestRecursively) {
  WordPool words;
  auto result = GenerateArticles(4 * kTestBytes, 42, words);
  bool nested = false;
  for (const GeneratedDocument& generated : result.documents) {
    ParseText(generated.text).root()->Visit([&](const xml::Node& n) {
      if (n.is_element() && n.name() == "sec" &&
          n.FirstChild("sec") != nullptr) {
        nested = true;
      }
    });
  }
  EXPECT_TRUE(nested);
}

// --- Facade -------------------------------------------------------------------------

class GenerateAllClassesTest
    : public ::testing::TestWithParam<DbClass> {};

TEST_P(GenerateAllClassesTest, ProducesWellFormedSizedDatabase) {
  GenConfig config;
  config.target_bytes = kTestBytes;
  config.seed = 42;
  GeneratedDatabase db = Generate(GetParam(), config);
  EXPECT_EQ(db.db_class, GetParam());
  ASSERT_FALSE(db.documents.empty());
  EXPECT_GE(db.total_bytes, kTestBytes / 2);
  EXPECT_LE(db.total_bytes, kTestBytes * 3);
  for (const GeneratedDocument& doc : db.documents) {
    EXPECT_FALSE(doc.name.empty());
    EXPECT_TRUE(xml::CheckWellFormed(doc.text).ok()) << doc.name;
  }
  const bool single_doc =
      GetParam() == DbClass::kTcSd || GetParam() == DbClass::kDcSd;
  if (single_doc) {
    EXPECT_EQ(db.documents.size(), 1u);
  } else {
    EXPECT_GT(db.documents.size(), 5u);
  }
}

TEST_P(GenerateAllClassesTest, DeterministicAcrossRuns) {
  GenConfig config;
  config.target_bytes = 32 * 1024;
  config.seed = 11;
  GeneratedDatabase a = Generate(GetParam(), config);
  GeneratedDatabase b = Generate(GetParam(), config);
  ASSERT_EQ(a.documents.size(), b.documents.size());
  for (size_t i = 0; i < a.documents.size(); ++i) {
    EXPECT_EQ(a.documents[i].text, b.documents[i].text);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, GenerateAllClassesTest,
                         ::testing::Values(DbClass::kTcSd, DbClass::kTcMd,
                                           DbClass::kDcSd, DbClass::kDcMd),
                         [](const auto& info) {
                           std::string name = DbClassName(info.param);
                           name.erase(name.find('/'), 1);
                           return name;
                         });

TEST(GenerateTest, TextCentricityDistinguishesClasses) {
  GenConfig config;
  config.target_bytes = kTestBytes;

  auto text_ratio = [&](DbClass cls) {
    GeneratedDatabase db = Generate(cls, config);
    stats::CorpusAnalyzer analyzer(DbClassName(cls));
    for (const GeneratedDocument& doc : db.documents) {
      analyzer.AddDocument(ParseText(doc.text), doc.text.size());
    }
    return analyzer.stats().TextRatio();
  };

  // TC classes carry substantially more character data than DC classes —
  // the defining axis of the paper's classification.
  EXPECT_GT(text_ratio(DbClass::kTcSd), text_ratio(DbClass::kDcMd));
  EXPECT_GT(text_ratio(DbClass::kTcMd), text_ratio(DbClass::kDcMd));
}

}  // namespace
}  // namespace xbench::datagen
