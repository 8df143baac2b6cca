// Reproduces paper Figures 1-4: the schema diagrams of the four database
// classes, rendered as ASCII trees derived from the generated data (the
// same derive-from-instances process the paper used), plus the Table 1
// class matrix.
#include <cstdio>

#include "datagen/generator.h"
#include "stats/corpus_analyzer.h"
#include "workload/classes.h"
#include "xml/parser.h"
#include "xml/schema_summary.h"

int main() {
  using namespace xbench;
  std::printf("XBench reproduction — schema diagrams (paper Figures 1-4)\n");
  std::printf(
      "\n== Table 1: Classification & Sample Applications ==\n"
      "        SD                     MD\n"
      "  TC    Online dictionaries    News corpus, digital libraries\n"
      "  DC    E-commerce catalogs    Transactional data\n");

  const char* figures[] = {"Figure 3 (DC/SD catalog.xml)",
                           "Figure 4 (DC/MD orderXXX.xml)",
                           "Figure 1 (TC/SD dictionary.xml)",
                           "Figure 2 (TC/MD articleXXX.xml)"};
  int figure_index = 0;
  for (datagen::DbClass cls : workload::AllClasses()) {
    datagen::GenConfig config;
    config.target_bytes = 128 * 1024;
    config.seed = 42;
    datagen::GeneratedDatabase db = datagen::Generate(cls, config);

    xml::SchemaSummary summary;
    size_t limit = 50;  // enough instances to see optional children
    for (const datagen::GeneratedDocument& doc : db.documents) {
      auto parsed = xml::Parse(doc.text, doc.name);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", doc.name.c_str(),
                     parsed.status().ToString().c_str());
        return 1;
      }
      summary.AddDocument(*parsed);
      if (--limit == 0) break;
    }
    std::printf("\n== %s ==\n", figures[figure_index++]);
    std::printf("legend: '?' optional child, '*' repeated child, @ attr\n");
    std::fputs(summary.ToTree().c_str(), stdout);
    std::printf("-- inferred DTD (paper's companion report ships these) --\n");
    std::fputs(summary.ToDtd().c_str(), stdout);
  }
  return 0;
}
