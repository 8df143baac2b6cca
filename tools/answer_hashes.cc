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

#include <cinttypes>
#include <cstdio>

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

}  // namespace

int main() {
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
