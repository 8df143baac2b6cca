#include "datagen/article_generator.h"

#include <algorithm>

#include "common/strings.h"
#include "xml/serializer.h"

namespace xbench::datagen {

std::string ArticleId(int64_t n) { return StrCat({"A", PadNumber(n, 6)}); }

std::string ArticleFileName(int64_t n) {
  return "article" + PadNumber(n, 6) + ".xml";
}

std::string WellKnownAuthor() { return "Alan Turing"; }

namespace {

void AddAuthors(xml::Node& prolog, int64_t article_index, Rng& rng,
                const WordPool& words) {
  const int n = static_cast<int>(rng.NextInt(1, 4));
  for (int i = 0; i < n; ++i) {
    xml::Node* author = prolog.AddElement("author");
    std::string name;
    if (i == 0 && article_index % kWellKnownAuthorStride == 0) {
      name = WellKnownAuthor();
    } else {
      name = words.PersonName(rng) + " " + words.PersonName(rng);
    }
    author->AddSimple("name", name);
    // Irregularity (Q15): contact may be absent, present-but-empty, or
    // populated.
    const double r = rng.NextDouble();
    if (r < 0.2) {
      // absent entirely
    } else if (r < 0.45) {
      author->AddElement("contact");  // empty element
    } else {
      xml::Node* contact = author->AddElement("contact");
      if (rng.NextBool(0.9)) {
        contact->AddSimple("email",
                           ToLower(name.substr(0, name.find(' '))) + "@" +
                               words.RandomWord(rng) + ".example");
      }
      if (rng.NextBool(0.6)) {
        contact->AddSimple("phone",
                           "+1-" + PadNumber(rng.NextInt(200, 999), 3) + "-" +
                               PadNumber(rng.NextInt(0, 9999999), 7));
      }
    }
  }
}

void AddSection(xml::Node& parent, int depth, bool force_intro, Rng& rng,
                const WordPool& words) {
  xml::Node* sec = parent.AddElement("sec");
  std::string heading = force_intro
                            ? "Introduction"
                            : words.Sentence(rng, 2, 5);
  if (!force_intro && !heading.empty()) heading.pop_back();  // drop '.'
  sec->AddSimple("heading", heading);
  const int paragraphs = static_cast<int>(rng.NextInt(1, 5));
  for (int i = 0; i < paragraphs; ++i) {
    sec->AddSimple("p", words.Paragraph(rng, static_cast<int>(rng.NextInt(2, 6))));
  }
  if (depth < 3) {
    const int nested = static_cast<int>(rng.NextInt(0, 2));
    for (int i = 0; i < nested; ++i) {
      AddSection(*sec, depth + 1, /*force_intro=*/false, rng, words);
    }
  }
}

xml::Document GenerateArticle(int64_t index, Rng& rng, const WordPool& words) {
  xml::Document doc(ArticleFileName(index));
  xml::Node* root = doc.CreateRoot("article");
  root->SetAttribute("id", ArticleId(index));

  xml::Node* prolog = root->AddElement("prolog");
  std::string title = words.Sentence(rng, 3, 8);
  title.pop_back();
  prolog->AddSimple("title", title);
  AddAuthors(*prolog, index, rng, words);
  prolog->AddSimple("date", WordPool::RandomDate(rng, 1995, 2002));
  if (rng.NextBool(0.8)) {
    xml::Node* keywords = prolog->AddElement("keywords");
    const int n = static_cast<int>(rng.NextInt(2, 6));
    for (int i = 0; i < n; ++i) {
      keywords->AddSimple("keyword", words.RandomWord(rng));
    }
  }
  xml::Node* abstract = prolog->AddElement("abstract");
  const int abs_paras = static_cast<int>(rng.NextInt(1, 2));
  for (int i = 0; i < abs_paras; ++i) {
    abstract->AddSimple("p", words.Paragraph(rng, 3));
  }

  xml::Node* body = root->AddElement("body");
  const int sections = static_cast<int>(rng.NextInt(2, 6));
  for (int i = 0; i < sections; ++i) {
    AddSection(*body, 1, /*force_intro=*/i == 0, rng, words);
  }

  if (rng.NextBool(0.7)) {
    xml::Node* epilog = root->AddElement("epilog");
    xml::Node* references = epilog->AddElement("references");
    const int refs = static_cast<int>(rng.NextInt(1, 6));
    for (int i = 0; i < refs; ++i) {
      xml::Node* ref = references->AddElement("ref");
      ref->SetAttribute("to",
                        ArticleId(rng.NextInt(1, std::max<int64_t>(1, index))));
    }
    if (rng.NextBool(0.3)) {
      epilog->AddSimple("ack", words.Sentence(rng, 5, 12));
    }
  }

  doc.AssignOrder();
  return doc;
}

}  // namespace

ArticlesResult GenerateArticles(uint64_t target_bytes, uint64_t seed,
                                const WordPool& words) {
  Rng master(seed ^ 0xA27Cull);
  ArticlesResult result;
  uint64_t bytes = 0;
  while (bytes < target_bytes) {
    ++result.article_num;
    Rng doc_rng = master.Fork();
    xml::Document doc = GenerateArticle(result.article_num, doc_rng, words);
    bytes += xml::Serialize(doc).size();
    result.docs.push_back(std::move(doc));
  }
  return result;
}

}  // namespace xbench::datagen
