#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/schema_summary.h"
#include "xml/serializer.h"

namespace xbench::xml {
namespace {

/// Appends `<name>content</name>` under `parent`.
Node* AddSimple(Node& parent, std::string_view name, std::string_view content) {
  Node* child = parent.AddElement(name);
  child->AddText(content);
  return child;
}

// --- Node model ------------------------------------------------------------

TEST(NodeTest, BuildTree) {
  Arena arena;
  Node* root = arena.NewElement("a");
  Node* b = root->AddElement("b");
  b->AddText("hello");
  root->SetAttribute("id", "1");

  EXPECT_TRUE(root->is_element());
  EXPECT_EQ(root->name(), "a");
  ASSERT_NE(root->FindAttribute("id"), nullptr);
  EXPECT_EQ(*root->FindAttribute("id"), "1");
  EXPECT_EQ(root->FindAttribute("nope"), nullptr);
  EXPECT_EQ(root->FirstChild("b"), b);
  EXPECT_EQ(b->parent(), root);
  EXPECT_EQ(&b->arena(), &arena);
  EXPECT_EQ(root->TextContent(), "hello");
}

TEST(NodeTest, AddSimpleAndChildren) {
  Arena arena;
  Node* root = arena.NewElement("r");
  AddSimple(*root, "x", "1");
  AddSimple(*root, "y", "2");
  AddSimple(*root, "x", "3");
  EXPECT_EQ(root->Children("x").size(), 2u);
  EXPECT_EQ(root->ChildElements().size(), 3u);
  EXPECT_EQ(root->FirstChild("y")->TextContent(), "2");
}

TEST(NodeTest, SubtreeSizeCountsAllNodes) {
  Arena arena;
  Node* root = arena.NewElement("r");
  AddSimple(*root, "a", "t");  // element + text
  root->AddElement("b");
  EXPECT_EQ(root->SubtreeSize(), 4u);
}

TEST(NodeTest, CloneIsDeepAndEqual) {
  Arena arena;
  Node* root = arena.NewElement("r");
  root->SetAttribute("k", "v");
  AddSimple(*root, "c", "text");
  Arena copies;
  Node* copy = root->CloneInto(copies);
  EXPECT_TRUE(root->StructurallyEquals(*copy));
  EXPECT_EQ(copy->parent(), nullptr);
  EXPECT_EQ(&copy->children()[0]->arena(), &copies);
  copy->SetAttribute("k", "other");
  EXPECT_FALSE(root->StructurallyEquals(*copy));
}

TEST(NodeTest, SetAttributeOverwrites) {
  Arena arena;
  Node* root = arena.NewElement("r");
  root->SetAttribute("a", "1");
  root->SetAttribute("a", "2");
  EXPECT_EQ(root->attributes().size(), 1u);
  EXPECT_EQ(*root->FindAttribute("a"), "2");
}

TEST(DocumentTest, MovingKeepsNodesInPlace) {
  auto parsed = Parse("<r><a>x</a><b/></r>", "d.xml");
  ASSERT_TRUE(parsed.ok());
  const Node* root = parsed->root();
  const Node* b = parsed->NodeAt(4);
  Document moved = std::move(parsed).value();
  Document target;
  target = std::move(moved);
  EXPECT_EQ(target.root(), root);
  EXPECT_EQ(target.NodeAt(4), b);
  EXPECT_EQ(b->name(), "b");
}

TEST(ArenaTest, AdoptedNodesOutliveTheirArenaHandle) {
  Arena run;
  Node* built = nullptr;
  {
    auto scratch = std::make_unique<Arena>();
    built = scratch->NewElement("made");
    AddSimple(*built, "c", "text");
    run.Adopt(std::move(scratch));
  }
  // The adopted arena still owns the node and still grows it.
  built->AddText(" more");
  EXPECT_EQ(built->TextContent(), "text more");
  Arena empty;
  run.Adopt(std::make_unique<Arena>());  // empty arenas are dropped
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(run.empty());
}

TEST(ArenaTest, LargeRequestsGetTheirOwnBlock) {
  Arena arena;
  char* big = arena.AllocateArray<char>(Arena::kMaxBlockBytes + 1);
  big[Arena::kMaxBlockBytes] = 'x';
  EXPECT_GE(arena.reserved_bytes(), Arena::kMaxBlockBytes + 1);
  Node* after = arena.NewElement("after");
  EXPECT_EQ(after->name(), "after");
}

TEST(ArenaTest, ResetKeepsBlocksForTheNextDocument) {
  // A long name owns heap memory; Reset must destroy it (ASan would
  // report the leak) and hand the blocks to the next parse.
  const std::string long_name(64, 'n');
  auto first = Parse("<" + long_name + "><b>1</b><b>2</b></" + long_name + ">",
                     "first.xml");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const Arena* arena = &first->root()->arena();
  const size_t reserved = arena->reserved_bytes();
  first->root()->arena().set_rank(7);

  auto second = Parse("<a><b>3</b></a>", "second.xml", {}, std::move(*first));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(&second->root()->arena(), arena);
  EXPECT_EQ(second->root()->arena().reserved_bytes(), reserved);
  EXPECT_EQ(second->root()->arena().rank(), Arena::kNoRank);
  EXPECT_EQ(second->root()->name(), "a");
  EXPECT_EQ(second->root()->TextContent(), "3");
  EXPECT_EQ(second->NodeCount(), 3u);
  EXPECT_EQ(second->NodeAt(2)->name(), "b");
}

// --- Parser -----------------------------------------------------------------

TEST(ParserTest, ParsesSimpleDocument) {
  auto doc = Parse("<a><b>hi</b></a>", "t.xml");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->name(), "a");
  EXPECT_EQ(doc->root()->FirstChild("b")->TextContent(), "hi");
}

TEST(ParserTest, ParsesAttributes) {
  auto doc = Parse(R"(<a x="1" y='two'/>)", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root()->FindAttribute("x"), "1");
  EXPECT_EQ(*doc->root()->FindAttribute("y"), "two");
}

TEST(ParserTest, DecodesEntities) {
  auto doc = Parse("<a>&lt;&gt;&amp;&apos;&quot;&#65;</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "<>&'\"A");
}

TEST(ParserTest, DecodesHexCharRef) {
  auto doc = Parse("<a>&#x41;&#x e9;</a>", "t.xml");
  // Malformed hex with space is an unknown entity -> error; test clean one.
  auto good = Parse("<a>&#x41;</a>", "t.xml");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->root()->TextContent(), "A");
  (void)doc;
}

TEST(ParserTest, SkipsPrologCommentsAndPis) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!-- c --><!DOCTYPE a [<!ELEMENT a ANY>]>"
      "<a><?pi data?><!-- inner -->x</a>",
      "t.xml");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->TextContent(), "x");
}

TEST(ParserTest, CdataIsVerbatim) {
  auto doc = Parse("<a><![CDATA[<not><markup>&amp;]]></a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "<not><markup>&amp;");
}

TEST(ParserTest, StripsIndentationWhitespace) {
  auto doc = Parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 2u);
}

TEST(ParserTest, PreservesMixedContent) {
  auto doc = Parse("<a>before <b>mid</b> after</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "before mid after");
  EXPECT_EQ(doc->root()->children().size(), 3u);
}

TEST(ParserTest, RejectsMismatchedTags) {
  auto doc = Parse("<a><b></a></b>", "t.xml");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kCorruption);
}

TEST(ParserTest, RejectsUnterminatedElement) {
  EXPECT_FALSE(Parse("<a><b>", "t.xml").ok());
}

TEST(ParserTest, RejectsDuplicateAttributes) {
  EXPECT_FALSE(Parse(R"(<a x="1" x="2"/>)", "t.xml").ok());
}

TEST(ParserTest, RejectsContentAfterRoot) {
  EXPECT_FALSE(Parse("<a/><b/>", "t.xml").ok());
}

TEST(ParserTest, RejectsUnknownEntity) {
  EXPECT_FALSE(Parse("<a>&unknown;</a>", "t.xml").ok());
}

TEST(ParserTest, ErrorsIncludeLocation) {
  auto doc = Parse("<a>\n<b>\n</c>\n</a>", "t.xml");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().ToString();
}

TEST(ParserTest, CheckWellFormedMatchesParse) {
  EXPECT_TRUE(CheckWellFormed("<a><b/>text</a>").ok());
  EXPECT_FALSE(CheckWellFormed("<a><b/>").ok());
}

// --- Serializer --------------------------------------------------------------

TEST(SerializerTest, EscapesSpecialCharacters) {
  Arena arena;
  Node* root = arena.NewElement("a");
  root->SetAttribute("q", "x\"<y");
  root->AddText("1 < 2 & 3 > 2");
  std::string out = Serialize(*root);
  EXPECT_EQ(out, "<a q=\"x&quot;&lt;y\">1 &lt; 2 &amp; 3 &gt; 2</a>");
}

TEST(SerializerTest, EmptyElementUsesSelfClosing) {
  Arena arena;
  Node* root = arena.NewElement("empty");
  EXPECT_EQ(Serialize(*root), "<empty/>");
}

TEST(SerializerTest, RoundTripCompact) {
  const std::string text =
      R"(<order id="O1"><total>9.50</total><lines><line no="1">a &amp; b</line><line no="2"/></lines></order>)";
  auto doc = Parse(text, "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Serialize(*doc), text);
}

TEST(SerializerTest, ParseSerializeParseIsStable) {
  auto doc = Parse("<a>mixed <b>content</b> here</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  std::string once = Serialize(*doc);
  auto doc2 = Parse(once, "t.xml");
  ASSERT_TRUE(doc2.ok());
  EXPECT_TRUE(doc->root()->StructurallyEquals(*doc2->root()));
  EXPECT_EQ(once, Serialize(*doc2));
}

// --- Writer ------------------------------------------------------------------

TEST(XmlWriterTest, EmptyElementSelfCloses) {
  Writer out;
  out.Open("x");
  out.Close();
  EXPECT_EQ(out.TakeText(), "<x/>");
}

TEST(XmlWriterTest, EmptyTextIsSkipped) {
  Writer out;
  out.Open("r");
  out.Open("a");
  out.Attribute("k", "v");
  out.Text("");
  out.Close();
  out.Simple("b", "");
  out.Close();
  const std::string text = out.TakeText();
  EXPECT_EQ(text, R"(<r><a k="v"/><b/></r>)");
  EXPECT_EQ(text.find("<a></a>"), std::string::npos);
}

TEST(XmlWriterTest, QuoteEscapedInAttributesOnly) {
  Writer out;
  out.Open("a");
  out.Attribute("q", "say \"hi\"");
  out.Text("say \"hi\"");
  out.Close();
  EXPECT_EQ(out.TakeText(), R"(<a q="say &quot;hi&quot;">say "hi"</a>)");
}

TEST(XmlWriterTest, MarkupEscapedInAttributesAndText) {
  Writer out;
  out.Open("a");
  out.Attribute("q", "<&>");
  out.Text("1 < 2 & 3 > 2");
  out.Close();
  EXPECT_EQ(out.TakeText(),
            R"(<a q="&lt;&amp;&gt;">1 &lt; 2 &amp; 3 &gt; 2</a>)");
}

TEST(XmlWriterTest, NestedElementsCloseInOrder) {
  Writer out;
  out.Open("a");
  out.Open("b");
  out.Text("x");
  out.Open("c");
  out.Close();
  out.Close();
  out.Simple("d", "y");
  out.Close();
  const std::string text = out.TakeText();
  EXPECT_EQ(text, "<a><b>x<c/></b><d>y</d></a>");
  // The text is what Serialize prints for the parsed tree.
  auto parsed = Parse(text, "t.xml");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(Serialize(*parsed), text);
}

TEST(XmlWriterTest, SizeAroundAChildIsTheChildsLength) {
  Writer out;
  out.Open("r");
  const size_t before = out.size();
  out.Simple("child", "text");
  EXPECT_EQ(out.size() - before, std::string("<child>text</child>").size());
  out.Close();
  const size_t size = out.size();
  EXPECT_EQ(out.TakeText().size(), size);
}

// --- SchemaSummary -----------------------------------------------------------

TEST(SchemaSummaryTest, ComputesOccurrenceBounds) {
  SchemaSummary summary;
  auto d1 = Parse("<r><a/><a/><b/></r>", "1.xml");
  auto d2 = Parse("<r><a/></r>", "2.xml");
  summary.AddDocument(*d1);
  summary.AddDocument(*d2);

  auto children = summary.ChildrenOf("r");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0].name, "a");
  EXPECT_EQ(children[0].min_occurs, 1);
  EXPECT_EQ(children[0].max_occurs, 2);
  EXPECT_EQ(children[1].name, "b");
  EXPECT_EQ(children[1].min_occurs, 0);  // absent in d2
  EXPECT_EQ(children[1].max_occurs, 1);
}

TEST(SchemaSummaryTest, TracksAttributesAndDepth) {
  SchemaSummary summary;
  auto doc = Parse(R"(<r id="1"><a k="x"><deep/></a></r>)", "1.xml");
  summary.AddDocument(*doc);
  EXPECT_EQ(summary.max_depth(), 3);
  auto attrs = summary.AttributesOf("a");
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0], "k");
}

TEST(SchemaSummaryTest, RendersTreeWithMarkers) {
  SchemaSummary summary;
  auto d1 = Parse("<r><a/><a/></r>", "1.xml");
  auto d2 = Parse("<r/>", "2.xml");
  summary.AddDocument(*d1);
  summary.AddDocument(*d2);
  std::string tree = summary.ToTree();
  EXPECT_NE(tree.find("r"), std::string::npos);
  EXPECT_NE(tree.find("? * a"), std::string::npos) << tree;
}

TEST(SchemaSummaryTest, EmitsDtd) {
  SchemaSummary summary;
  auto d1 = Parse(R"(<r id="1"><a>text</a><a>more</a><b/></r>)", "1.xml");
  auto d2 = Parse(R"(<r><a>x</a></r>)", "2.xml");
  summary.AddDocument(*d1);
  summary.AddDocument(*d2);
  std::string dtd = summary.ToDtd();
  // r comes first (root), children ordered with occurrence markers:
  // a appears 1..2 times -> a+; b is optional -> b?.
  EXPECT_NE(dtd.find("<!ELEMENT r (a+, b?)>"), std::string::npos) << dtd;
  EXPECT_NE(dtd.find("<!ELEMENT a (#PCDATA)>"), std::string::npos) << dtd;
  EXPECT_NE(dtd.find("<!ELEMENT b EMPTY>"), std::string::npos) << dtd;
  // id appears on 1 of 2 r instances -> #IMPLIED.
  EXPECT_NE(dtd.find("<!ATTLIST r id CDATA #IMPLIED>"), std::string::npos)
      << dtd;
}

TEST(SchemaSummaryTest, DtdMixedContentAndRequiredAttrs) {
  SchemaSummary summary;
  auto doc = Parse(R"(<q k="1">text <em>word</em> tail</q>)", "1.xml");
  summary.AddDocument(*doc);
  std::string dtd = summary.ToDtd();
  EXPECT_NE(dtd.find("<!ELEMENT q (#PCDATA | em)*>"), std::string::npos)
      << dtd;
  EXPECT_NE(dtd.find("<!ATTLIST q k CDATA #REQUIRED>"), std::string::npos)
      << dtd;
}

TEST(SchemaSummaryTest, HandlesRecursiveTypes) {
  SchemaSummary summary;
  auto doc = Parse("<sec><sec><sec/></sec></sec>", "1.xml");
  summary.AddDocument(*doc);
  // Must terminate and include the type once.
  std::string tree = summary.ToTree();
  EXPECT_NE(tree.find("sec"), std::string::npos);
}

// --- Parser hardening (fuzz regressions) -----------------------------------

TEST(ParserHardeningTest, RejectsExcessiveElementDepth) {
  std::string open, close;
  for (int i = 0; i < 300; ++i) {
    open += "<a>";
    close += "</a>";
  }
  auto doc = Parse(open + "x" + close, "deep.xml");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("nesting"), std::string::npos)
      << doc.status().ToString();
}

TEST(ParserHardeningTest, AcceptsDepthUnderTheLimit) {
  std::string open, close;
  for (int i = 0; i < 200; ++i) {
    open += "<a>";
    close += "</a>";
  }
  EXPECT_TRUE(Parse(open + "x" + close, "ok.xml").ok());
}

TEST(ParserHardeningTest, RejectsMalformedCharacterReferences) {
  // Empty, junk-suffixed, overflowing, non-BMP, digitless-hex, NUL and
  // other non-Char (C0 control, surrogate, U+FFFE) references must all be
  // Status errors, never UB, silent truncation or invalid UTF-8.
  EXPECT_FALSE(Parse("<a>&#;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#12junk;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#99999999999999999999;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#x1F600;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#x;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#0;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#1;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#xD800;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#xFFFE;</a>", "t.xml").ok());
}

TEST(ParserHardeningTest, CheckWellFormedAgreesWithParseOnHardInputs) {
  const char* inputs[] = {
      "<a>&#;</a>", "<root><child attr=\"v", "<root/><!-- never closed",
      "<a>&#x41;</a>",
  };
  for (const char* input : inputs) {
    EXPECT_EQ(Parse(input, "t.xml").ok(), CheckWellFormed(input).ok())
        << input;
  }
}

// --- Round trip over generated data --------------------------------------

class XmlRoundTripTest : public ::testing::TestWithParam<datagen::DbClass> {};

/// Parsing a generated document and serializing it compactly reproduces
/// the generator's text byte for byte, and the parser numbers the nodes
/// in pre-order.
TEST_P(XmlRoundTripTest, SerializeOfParseIsTheGeneratedText) {
  datagen::GenConfig config;
  config.target_bytes = 160 * 1024;
  config.seed = 42;
  const datagen::GeneratedDatabase db = datagen::Generate(GetParam(), config);
  ASSERT_FALSE(db.documents.empty());
  for (const datagen::GeneratedDocument& doc : db.documents) {
    auto parsed = Parse(doc.text, doc.name);
    ASSERT_TRUE(parsed.ok()) << doc.name << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(Serialize(*parsed), doc.text) << doc.name;
    ASSERT_EQ(parsed->NodeCount(), parsed->root()->SubtreeSize())
        << doc.name;
    for (uint32_t order = 1; order <= parsed->NodeCount(); ++order) {
      ASSERT_EQ(parsed->NodeAt(order)->order(), order) << doc.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, XmlRoundTripTest,
    ::testing::Values(datagen::DbClass::kTcSd, datagen::DbClass::kTcMd,
                      datagen::DbClass::kDcSd, datagen::DbClass::kDcMd),
    [](const auto& info) {
      std::string name = datagen::DbClassName(info.param);
      name.erase(name.find('/'), 1);
      return name;
    });

}  // namespace
}  // namespace xbench::xml
