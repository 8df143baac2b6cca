// News archive (TC/MD scenario): a Reuters-like article corpus. Shows the
// text-centric side of XBench: text search, quantified queries, structural
// transformation, and the schema summarizer on loosely structured
// documents.
#include <cstdio>

#include "datagen/generator.h"
#include "engines/native_engine.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "xml/parser.h"
#include "xml/schema_summary.h"

int main() {
  using namespace xbench;

  datagen::GenConfig config;
  config.target_bytes = 160 * 1024;
  config.seed = 33;
  datagen::GeneratedDatabase db =
      datagen::Generate(datagen::DbClass::kTcMd, config);
  std::printf("news corpus: %zu articles (%llu bytes)\n\n",
              db.documents.size(),
              static_cast<unsigned long long>(db.total_bytes));

  // Derive the corpus schema from instances (paper Figure 2).
  xml::SchemaSummary summary;
  for (size_t i = 0; i < db.documents.size() && i < 20; ++i) {
    auto parsed = xml::Parse(db.documents[i].text, db.documents[i].name);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    summary.AddDocument(*parsed);
  }
  std::printf("derived schema (first 20 articles):\n%s\n",
              summary.ToTree().c_str());

  engines::NativeEngine engine;
  if (Status s = engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db));
      !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  (void)engine.CreateIndex({"article/@id", "article/@id"});

  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);

  struct Demo {
    const char* label;
    workload::QueryId id;
  };
  for (const Demo& demo : std::initializer_list<Demo>{
           {"articles by the well-known author (Q2)", workload::QueryId::kQ2},
           {"heading after 'Introduction' (Q4)", workload::QueryId::kQ4},
           {"keyword co-occurrence in a paragraph (Q6)",
            workload::QueryId::kQ6},
           {"authors with empty contact info (Q15)", workload::QueryId::kQ15},
           {"uni-gram text search (Q17)", workload::QueryId::kQ17},
           {"phrase search with construction (Q18)",
            workload::QueryId::kQ18}}) {
    workload::ExecutionResult result =
        workload::RunQuery(engine, demo.id, db.db_class, params);
    if (!result.status.ok()) {
      std::printf("%-45s ERROR %s\n", demo.label,
                  result.status.ToString().c_str());
      continue;
    }
    std::printf("%-45s %4zu hits, %6.1f ms\n", demo.label,
                result.lines.size(), result.TotalMillis());
    if (!result.lines.empty()) {
      std::printf("  e.g. %.70s\n", result.lines[0].c_str());
    }
  }
  return 0;
}
