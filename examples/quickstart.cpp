// Quickstart: generate a small XBench database, load it into the native
// XML engine, create a value index, and run an XQuery — the minimal
// end-to-end path through the library. Set XBENCH_TRACE_OUT=<path> to
// dump a Chrome trace of the run (open it in Perfetto or
// chrome://tracing) and XBENCH_REPORT=<path> to dump the metrics
// registry snapshot. The run is single-threaded and the tracer clock is
// virtual, so the trace is byte-identical across runs — the
// trace_quickstart_golden test diffs it against
// tools/golden/trace_quickstart.json.
#include <cstdio>
#include <cstdlib>

#include "datagen/article_generator.h"
#include "datagen/generator.h"
#include "datagen/word_pool.h"
#include "engines/native_engine.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/runner.h"

int main() {
  using namespace xbench;

  obs::EnvTraceSession trace_session;

  // 1. Generate a ~64 KiB TC/MD database (a small news-article corpus).
  datagen::GenConfig config;
  config.target_bytes = 64 * 1024;
  config.seed = 7;
  datagen::GeneratedDatabase db =
      datagen::Generate(datagen::DbClass::kTcMd, config);
  std::printf("generated %zu article documents (%llu bytes)\n",
              db.documents.size(),
              static_cast<unsigned long long>(db.total_bytes));

  // 2. Bulk-load into the native engine.
  engines::NativeEngine engine;
  Status status = engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db));
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // 3. Index article ids (paper Table 3) and look one article up. The
  //    planner costs the index probe against a scan; over these nine
  //    small documents the scan wins, on larger collections the probe.
  if (Status s = engine.CreateIndex({"article/@id", "article/@id"}); !s.ok()) {
    std::fprintf(stderr, "index failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto result = engine.Query(
      "for $a in $input[@id = \"" + datagen::ArticleId(1) +
      "\"] return <hit><id>{$a/@id}</id>"
      "<title>{data($a/prolog/title)}</title></hit>");
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("lookup by article id:\n%s", result->ToText().c_str());

  // 4. Run a collection-wide XQuery (no index).
  datagen::WordPool words;
  const std::string needle = words.WordAt(3);  // a frequent corpus word
  auto count = engine.Query(
      "count(for $a in $input where some $p in $a//p "
      "satisfies contains-word($p, \"" +
      needle + "\") return $a)");
  if (!count.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 count.status().ToString().c_str());
    return 1;
  }
  std::printf("articles mentioning '%s': %s", needle.c_str(),
              count->ToText().c_str());
  std::printf("virtual I/O spent: %.1f ms\n", engine.IoMillis());

  // 5. Optional observability dump for tooling (ctest validates these).
  if (const char* report_path = std::getenv("XBENCH_REPORT")) {
    Status written = obs::WriteFile(
        report_path, obs::MetricsRegistry::Default().ToJson());
    if (!written.ok()) {
      std::fprintf(stderr, "report write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", report_path);
  }
  return 0;
}
