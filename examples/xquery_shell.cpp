// Interactive XQuery shell over a generated XBench database: pick a
// class and size on the command line, then type XQuery against $input
// (the collection roots). Demonstrates the library as a standalone tool:
//
//   ./xquery_shell tcmd 256        # TC/MD corpus, ~256 KiB
//   xquery> for $a in $input where $a/prolog/author/name = "Alan Turing"
//           return data($a/prolog/title)
//
// Commands: \schema (inferred schema tree), \dtd, \docs (document list),
// \stats (engine counters), \q (quit). Reads one query per line.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/strings.h"
#include "datagen/generator.h"
#include "engines/native_engine.h"
#include "workload/classes.h"
#include "workload/runner.h"
#include "xml/parser.h"
#include "xml/schema_summary.h"

namespace {

xbench::datagen::DbClass ParseClass(const std::string& name) {
  using xbench::datagen::DbClass;
  const std::string lower = xbench::ToLower(name);
  if (lower == "tcsd") return DbClass::kTcSd;
  if (lower == "tcmd") return DbClass::kTcMd;
  if (lower == "dcsd") return DbClass::kDcSd;
  return DbClass::kDcMd;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xbench;

  const datagen::DbClass cls =
      argc > 1 ? ParseClass(argv[1]) : datagen::DbClass::kTcMd;
  const int64_t kb = argc > 2 ? ParseInt(argv[2]) : 128;

  datagen::GenConfig config;
  config.target_bytes = static_cast<uint64_t>(kb > 0 ? kb : 128) * 1024;
  config.seed = 42;
  std::printf("generating %s (~%lld KiB)...\n", datagen::DbClassName(cls),
              static_cast<long long>(kb));
  datagen::GeneratedDatabase db = datagen::Generate(cls, config);

  engines::NativeEngine engine;
  if (Status s = engine.BulkLoad(cls, workload::ToLoadDocuments(db));
      !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const engines::IndexSpec& spec : workload::Table3Indexes(cls)) {
    (void)engine.CreateIndex(spec);
  }
  std::printf(
      "%zu documents loaded; $input is bound to their roots.\n"
      "Commands: \\schema \\dtd \\docs \\stats \\q\n",
      db.documents.size());

  std::string line;
  while (std::printf("xquery> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    const std::string query{Trim(line)};
    if (query.empty()) continue;
    if (query == "\\q") break;
    if (query == "\\schema" || query == "\\dtd") {
      xml::SchemaSummary summary;
      for (size_t i = 0; i < db.documents.size() && i < 50; ++i) {
        auto parsed = xml::Parse(db.documents[i].text, db.documents[i].name);
        if (!parsed.ok()) {
          std::printf("parse: %s\n", parsed.status().ToString().c_str());
          break;
        }
        summary.AddDocument(*parsed);
      }
      std::fputs(query == "\\schema" ? summary.ToTree().c_str()
                                     : summary.ToDtd().c_str(),
                 stdout);
      continue;
    }
    if (query == "\\docs") {
      for (size_t i = 0; i < db.documents.size(); ++i) {
        std::printf("%s%s", i == 0 ? "" : ", ",
                    db.documents[i].name.c_str());
        if (i == 19 && db.documents.size() > 20) {
          std::printf(", ... (%zu total)", db.documents.size());
          break;
        }
      }
      std::printf("\n");
      continue;
    }
    if (query == "\\stats") {
      std::printf("documents=%zu stored=%llu bytes, disk reads=%llu "
                  "writes=%llu, virtual I/O=%.1f ms\n",
                  engine.document_count(),
                  static_cast<unsigned long long>(engine.stored_bytes()),
                  static_cast<unsigned long long>(engine.disk().reads()),
                  static_cast<unsigned long long>(engine.disk().writes()),
                  engine.IoMillis());
      continue;
    }

    engine.ColdRestart();
    Stopwatch watch;
    const double io0 = engine.IoMillis();
    auto result = engine.Query(query);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    const double cpu = watch.ElapsedMillis();
    std::fputs(result->ToText().c_str(), stdout);
    std::printf("-- %zu item(s), %.1f ms CPU + %.1f ms I/O (cold)\n",
                result->items.size(), cpu, engine.IoMillis() - io0);
  }
  return 0;
}
