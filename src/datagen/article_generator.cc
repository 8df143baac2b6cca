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

void AddAuthors(xml::Writer& out, int64_t article_index, Rng& rng,
                const WordPool& words) {
  const int n = static_cast<int>(rng.NextInt(1, 4));
  for (int i = 0; i < n; ++i) {
    out.Open("author");
    std::string name;
    if (i == 0 && article_index % kWellKnownAuthorStride == 0) {
      name = WellKnownAuthor();
    } else {
      name = words.PersonName(rng) + " " + words.PersonName(rng);
    }
    out.Simple("name", name);
    // Irregularity (Q15): contact may be absent, present-but-empty, or
    // populated.
    const double r = rng.NextDouble();
    if (r < 0.2) {
      // absent entirely
    } else if (r < 0.45) {
      out.Simple("contact", "");  // empty element
    } else {
      out.Open("contact");
      if (rng.NextBool(0.9)) {
        out.Simple("email", ToLower(name.substr(0, name.find(' '))) + "@" +
                                words.RandomWord(rng) + ".example");
      }
      if (rng.NextBool(0.6)) {
        out.Simple("phone", "+1-" + PadNumber(rng.NextInt(200, 999), 3) +
                                "-" + PadNumber(rng.NextInt(0, 9999999), 7));
      }
      out.Close();
    }
    out.Close();
  }
}

void AddSection(xml::Writer& out, int depth, bool force_intro, Rng& rng,
                const WordPool& words) {
  out.Open("sec");
  std::string heading = force_intro
                            ? "Introduction"
                            : words.Sentence(rng, 2, 5);
  if (!force_intro && !heading.empty()) heading.pop_back();  // drop '.'
  out.Simple("heading", heading);
  const int paragraphs = static_cast<int>(rng.NextInt(1, 5));
  for (int i = 0; i < paragraphs; ++i) {
    out.Simple("p", words.Paragraph(rng, static_cast<int>(rng.NextInt(2, 6))));
  }
  if (depth < 3) {
    const int nested = static_cast<int>(rng.NextInt(0, 2));
    for (int i = 0; i < nested; ++i) {
      AddSection(out, depth + 1, /*force_intro=*/false, rng, words);
    }
  }
  out.Close();
}

std::string GenerateArticle(int64_t index, Rng& rng, const WordPool& words) {
  xml::Writer out;
  out.Open("article");
  out.Attribute("id", ArticleId(index));

  out.Open("prolog");
  std::string title = words.Sentence(rng, 3, 8);
  title.pop_back();
  out.Simple("title", title);
  AddAuthors(out, index, rng, words);
  out.Simple("date", WordPool::RandomDate(rng, 1995, 2002));
  if (rng.NextBool(0.8)) {
    out.Open("keywords");
    const int n = static_cast<int>(rng.NextInt(2, 6));
    for (int i = 0; i < n; ++i) {
      out.Simple("keyword", words.RandomWord(rng));
    }
    out.Close();
  }
  out.Open("abstract");
  const int abs_paras = static_cast<int>(rng.NextInt(1, 2));
  for (int i = 0; i < abs_paras; ++i) {
    out.Simple("p", words.Paragraph(rng, 3));
  }
  out.Close();
  out.Close();  // prolog

  out.Open("body");
  const int sections = static_cast<int>(rng.NextInt(2, 6));
  for (int i = 0; i < sections; ++i) {
    AddSection(out, 1, /*force_intro=*/i == 0, rng, words);
  }
  out.Close();

  if (rng.NextBool(0.7)) {
    out.Open("epilog");
    out.Open("references");
    const int refs = static_cast<int>(rng.NextInt(1, 6));
    for (int i = 0; i < refs; ++i) {
      out.Open("ref");
      out.Attribute("to",
                    ArticleId(rng.NextInt(1, std::max<int64_t>(1, index))));
      out.Close();
    }
    out.Close();
    if (rng.NextBool(0.3)) {
      out.Simple("ack", words.Sentence(rng, 5, 12));
    }
    out.Close();
  }

  out.Close();
  return out.TakeText();
}

}  // namespace

GeneratedDatabase GenerateArticles(uint64_t target_bytes, uint64_t seed,
                                   const WordPool& words) {
  Rng master(seed ^ 0xA27Cull);
  GeneratedDatabase db;
  int64_t& n = db.seeds.article_count;
  uint64_t bytes = 0;
  while (bytes < target_bytes) {
    ++n;
    Rng doc_rng = master.Fork();
    std::string text = GenerateArticle(n, doc_rng, words);
    bytes += text.size();
    db.documents.push_back({ArticleFileName(n), std::move(text)});
  }
  return db;
}

}  // namespace xbench::datagen
