#include "datagen/dictionary_generator.h"

#include "common/strings.h"
#include "datagen/template_engine.h"

namespace xbench::datagen {

std::string QuoteLocation(int index) {
  // Location names are disjoint from the Zipf text stream so Q3's grouping
  // domain is exactly kQuoteLocationCount values.
  return "Loc" + PadNumber(index % kQuoteLocationCount, 2);
}

std::string DictionaryHeadword(int64_t n) {
  return "word_" + std::to_string(n);
}

std::string DictionaryEntryId(int64_t n) {
  return StrCat({"E", PadNumber(n, 6)});
}

namespace {

/// Builds the reusable entry template (everything below <entry>).
std::unique_ptr<TemplateNode> BuildEntryTemplate(const WordPool& words) {
  auto entry = std::make_unique<TemplateNode>();
  entry->name = "entry";
  entry->SetAttr("id", [](GenContext& ctx) {
    return DictionaryEntryId(ctx.NextCounter("entry"));
  });

  TemplateNode* hw = entry->AddChild("hw");
  hw->text = [](GenContext& ctx) {
    return DictionaryHeadword(ctx.CurrentCounter("entry"));
  };

  TemplateNode* pr = entry->AddChild("pr", nullptr, /*presence=*/0.7);
  pr->text = [&words](GenContext& ctx) {
    return "\\" + words.RandomWord(ctx.rng()) + "\\";
  };

  TemplateNode* pos = entry->AddChild("pos", nullptr, /*presence=*/0.9);
  pos->text = [](GenContext& ctx) {
    static const char* kPos[] = {"n.", "v.", "adj.", "adv.", "prep."};
    return std::string(kPos[ctx.rng().NextBounded(5)]);
  };

  TemplateNode* etym = entry->AddChild("etym", nullptr, /*presence=*/0.4);
  etym->text = [&words](GenContext& ctx) {
    return words.Sentence(ctx.rng(), 4, 10);
  };

  // Senses with nested quotation paragraphs: the deep, text-dominated part.
  TemplateNode* sn =
      entry->AddChild("sn", stats::MakeNormal(2.2, 1.2, 1, 6));
  sn->SetAttr("no", [](GenContext& ctx) {
    return std::to_string(ctx.NextCounter("sense_no"));
  });
  TemplateNode* def = sn->AddChild("def");
  def->text = [&words](GenContext& ctx) {
    return words.Sentence(ctx.rng(), 8, 20);
  };
  TemplateNode* qp =
      sn->AddChild("qp", stats::MakeExponential(1.0, 0, 4));
  TemplateNode* q = qp->AddChild("q");
  // qt is mixed content: leading text plus an occasional inline emphasis
  // element — the mapping problem the paper hits with SQL Server (§3.1.3
  // problem 3).
  TemplateNode* qt = q->AddChild("qt");
  qt->text = [&words](GenContext& ctx) {
    return words.Paragraph(ctx.rng(), 2);
  };
  TemplateNode* em = qt->AddChild("em", nullptr, /*presence=*/0.3);
  em->text = [&words](GenContext& ctx) { return words.RandomWord(ctx.rng()); };
  TemplateNode* qau = q->AddChild("qau");
  qau->text = [&words](GenContext& ctx) {
    return words.PersonName(ctx.rng()) + " " + words.PersonName(ctx.rng());
  };
  TemplateNode* qd = q->AddChild("qd");
  qd->text = [](GenContext& ctx) {
    return WordPool::RandomDate(ctx.rng(), 1500, 2000);
  };
  TemplateNode* qloc = q->AddChild("qloc", nullptr, /*presence=*/0.8);
  qloc->text = [](GenContext& ctx) {
    return QuoteLocation(
        static_cast<int>(ctx.rng().NextBounded(kQuoteLocationCount)));
  };

  // Synonym cross-references to already-generated entries.
  TemplateNode* ss = entry->AddChild("ss", nullptr, /*presence=*/0.3);
  TemplateNode* ref =
      ss->AddChild("ref", stats::MakeUniform(1, 3));
  ref->SetAttr("to", [](GenContext& ctx) {
    const int64_t current = ctx.CurrentCounter("entry");
    return DictionaryEntryId(ctx.rng().NextInt(1, std::max<int64_t>(1, current)));
  });

  return entry;
}

}  // namespace

GeneratedDatabase GenerateDictionary(uint64_t target_bytes, uint64_t seed,
                                     const WordPool& words) {
  Rng rng(seed ^ 0xD1C7ull);
  GenContext ctx(rng);
  auto entry_template = BuildEntryTemplate(words);

  xml::Writer out;
  out.Open("dictionary");
  uint64_t bytes = 2 * (sizeof("dictionary") + 4);
  int64_t entry_num = 0;
  while (bytes < target_bytes) {
    const size_t before = out.size();
    Instantiate(*entry_template, ctx, out);
    bytes += out.size() - before;
    ++entry_num;
  }
  out.Close();

  GeneratedDatabase db;
  db.documents.push_back({"dictionary.xml", out.TakeText()});
  db.seeds.entry_count = entry_num;
  return db;
}

}  // namespace xbench::datagen
