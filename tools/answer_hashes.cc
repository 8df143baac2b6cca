// answer_hashes: prints the canonical answer hash of every (engine, class,
// query) cell at the tier-1 fixture scale (160 KiB per class, seed 42).
//
// Each class is generated once and bulk-loaded into all four engines with
// the Table 3 indexes; every one of Q1..Q20 then runs cold through
// workload::RunQuery and prints one line
//
//   <engine> | <class> | <query> | <hex AnswerHash(CanonicalizeAnswer(lines))>
//
// or, when the engine refuses the cell, the status code name in place of
// the hash. The output is deterministic. The answer_hashes_golden ctest
// diffs it against tools/golden/answer_hashes.txt, which pins the answers
// the engines gave when the golden was written; regenerate it only for an
// intended answer change:
//
//   build/tools/answer_hashes > tools/golden/answer_hashes.txt
//
// With --text it prints the generator's output instead: for each class at
// the fixture scale, at 1 MiB and at the 96 KiB canonical schema sample
// (seed 42), plus the first document of the 64 KiB seed-43 database that
// the write workloads insert, one header line
//
//   <class> | <target bytes> | <seed> | docs=N bytes=B <workload seeds>
//
// and one line per document
//
//   <class> | <target bytes> | <seed> | <name> | <size> | <hex FNV-1a 64>
//
// The datagen_text_golden ctest diffs it against
// tools/golden/datagen_text.txt, which pins every generated byte;
// regenerate it only for an intended generator change:
//
//   build/tools/answer_hashes --text > tools/golden/datagen_text.txt

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "analysis/class_schemas.h"
#include "datagen/generator.h"
#include "workload/classes.h"
#include "workload/queries.h"
#include "workload/runner.h"

namespace {

using xbench::datagen::DbClass;
using xbench::engines::EngineKind;
using xbench::workload::QueryId;

constexpr uint64_t kFixtureBytes = 160 * 1024;
constexpr uint64_t kFixtureSeed = 42;
/// The document the write workloads insert: the first of a database of
/// this size generated with the fixture seed + 1.
constexpr uint64_t kWriteDocumentBytes = 64 * 1024;

uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Prints one database's header line and its first `max_docs` documents.
void PrintDatabase(DbClass cls, uint64_t bytes, uint64_t seed,
                   size_t max_docs) {
  xbench::datagen::GenConfig config;
  config.target_bytes = bytes;
  config.seed = seed;
  const xbench::datagen::GeneratedDatabase db =
      xbench::datagen::Generate(cls, config);
  const char* name = xbench::datagen::DbClassName(cls);
  const xbench::datagen::WorkloadSeeds& s = db.seeds;
  std::printf("%s | %" PRIu64 " | %" PRIu64 " | docs=%zu bytes=%" PRIu64
              " entries=%" PRId64 " articles=%" PRId64 " items=%" PRId64
              " orders=%" PRId64 " customers=%" PRId64 " authors=%" PRId64
              " countries=%" PRId64 "\n",
              name, bytes, seed, db.documents.size(), db.total_bytes,
              s.entry_count, s.article_count, s.item_count, s.order_count,
              s.customer_count, s.author_count, s.country_count);
  for (size_t i = 0; i < db.documents.size() && i < max_docs; ++i) {
    const xbench::datagen::GeneratedDocument& doc = db.documents[i];
    std::printf("%s | %" PRIu64 " | %" PRIu64 " | %s | %zu | %016" PRIx64
                "\n",
                name, bytes, seed, doc.name.c_str(), doc.text.size(),
                Fnv1a64(doc.text));
  }
}

int PrintTextHashes() {
  const uint64_t sample_bytes =
      xbench::analysis::CanonicalSampleConfig().target_bytes;
  for (DbClass cls : xbench::workload::AllClasses()) {
    for (uint64_t bytes : {kFixtureBytes, uint64_t{1} << 20, sample_bytes}) {
      PrintDatabase(cls, bytes, kFixtureSeed, SIZE_MAX);
    }
    PrintDatabase(cls, kWriteDocumentBytes, kFixtureSeed + 1, 1);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--text") == 0) {
    return PrintTextHashes();
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: answer_hashes [--text]\n");
    return 2;
  }
  namespace workload = xbench::workload;
  for (DbClass cls : workload::AllClasses()) {
    xbench::datagen::GenConfig config;
    config.target_bytes = kFixtureBytes;
    config.seed = kFixtureSeed;
    const xbench::datagen::GeneratedDatabase db =
        xbench::datagen::Generate(cls, config);
    const workload::QueryParams params =
        workload::DeriveParams(cls, db.seeds);
    for (EngineKind kind : workload::AllEngines()) {
      auto engine = workload::MakeEngine(kind);
      xbench::Status status =
          engine->BulkLoad(cls, workload::ToLoadDocuments(db));
      if (status.ok()) status = workload::CreateTable3Indexes(*engine, cls);
      for (int q = static_cast<int>(QueryId::kQ1);
           q <= static_cast<int>(QueryId::kQ20); ++q) {
        const QueryId id = static_cast<QueryId>(q);
        std::printf("%s | %s | %s | ", xbench::engines::EngineKindName(kind),
                    xbench::datagen::DbClassName(cls),
                    workload::QueryName(id));
        if (!status.ok()) {
          std::printf("load:%s\n", xbench::StatusCodeName(status.code()));
          continue;
        }
        workload::ExecutionResult result =
            workload::RunQuery(*engine, id, cls, params);
        if (!result.status.ok()) {
          std::printf("%s\n", xbench::StatusCodeName(result.status.code()));
          continue;
        }
        const uint64_t hash = workload::AnswerHash(
            workload::CanonicalizeAnswer(id, std::move(result.lines)));
        std::printf("%016" PRIx64 "\n", hash);
      }
    }
  }
  return 0;
}
