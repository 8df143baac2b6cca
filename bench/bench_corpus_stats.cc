// Reproduces paper Table 2 ("Analyzed TC Class Data") over our generated
// corpora: the original Reuters/Springer/GCIDE/OED corpora are proprietary,
// so we run the same analysis on the synthetic stand-ins (DESIGN.md
// documents this substitution) and additionally report the structural
// statistics (§2.1.1) that drive the generators.
#include <cstdio>

#include "datagen/generator.h"
#include "harness/scale.h"
#include "stats/corpus_analyzer.h"
#include "stats/fitting.h"
#include "workload/classes.h"
#include "xml/parser.h"

int main() {
  using namespace xbench;
  std::printf("XBench reproduction — corpus statistics (paper Table 2)\n\n");
  std::printf("%-12s %8s  %-16s %13s\n", "Source", "Files", "[min,max] size",
              "Total");

  for (datagen::DbClass cls : workload::AllClasses()) {
    datagen::GenConfig config;
    config.target_bytes = harness::TargetBytes(workload::Scale::kNormal);
    config.seed = harness::BenchSeed();
    datagen::GeneratedDatabase db = datagen::Generate(cls, config);

    stats::CorpusAnalyzer analyzer(datagen::DbClassName(cls));
    std::vector<xml::Document> docs;
    for (const datagen::GeneratedDocument& doc : db.documents) {
      auto parsed = xml::Parse(doc.text, doc.name);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", doc.name.c_str(),
                     parsed.status().ToString().c_str());
        return 1;
      }
      analyzer.AddDocument(*parsed, doc.text.size());
      docs.push_back(std::move(parsed).value());
    }
    const stats::CorpusStats& s = analyzer.stats();
    std::printf("%s\n", s.ToRow().c_str());
    std::printf(
        "  elements=%llu attrs=%llu element-types=%zu max-depth=%d "
        "text-ratio=%.2f\n",
        static_cast<unsigned long long>(s.element_count),
        static_cast<unsigned long long>(s.attribute_count),
        s.element_type_counts.size(), s.max_depth, s.TextRatio());

    // §2.1.1: fit standard distributions to key occurrence statistics —
    // the parameters that drive the generators.
    struct Edge {
      datagen::DbClass cls;
      const char* parent;
      const char* child;
    };
    static const Edge kEdges[] = {
        {datagen::DbClass::kTcSd, "entry", "sn"},
        {datagen::DbClass::kTcSd, "sn", "qp"},
        {datagen::DbClass::kTcMd, "prolog", "author"},
        {datagen::DbClass::kTcMd, "body", "sec"},
        {datagen::DbClass::kDcSd, "authors", "author"},
        {datagen::DbClass::kDcMd, "order_lines", "order_line"},
    };
    for (const Edge& edge : kEdges) {
      if (edge.cls != cls) continue;
      std::vector<int64_t> samples;
      for (const xml::Document& doc : docs) {
        auto part =
            stats::OccurrenceSamples(*doc.root(), edge.parent, edge.child);
        samples.insert(samples.end(), part.begin(), part.end());
      }
      if (samples.empty()) continue;
      stats::Fit fit = stats::FitDistribution(samples);
      std::printf("  %s/%s occurrences ~ %s (n=%zu)\n", edge.parent,
                  edge.child, fit.ToString().c_str(), samples.size());
    }
  }
  std::printf(
      "\nPaper reference rows (real corpora):\n"
      "  GCIDE        1        [56 MB]         56 MB\n"
      "  OED          1        [548 MB]        548 MB\n"
      "  Reuters      807000   [1, 59] KB      2484 MB\n"
      "  Springer     196000   [1, 613] KB     1343 MB\n");
  return 0;
}
