// Google-benchmark micro-benchmarks over the substrates: XML parsing and
// serialization throughput, B+-tree operations, XQuery evaluation, heap
// file scans, and shredding — the per-component costs that compose into
// the paper's end-to-end numbers.
#include <benchmark/benchmark.h>

#include <optional>

#include "datagen/generator.h"
#include "engines/dad.h"
#include "engines/shredder.h"
#include "relational/btree.h"
#include "workload/runner.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"

namespace {

using namespace xbench;

const datagen::GeneratedDatabase& SharedDb(datagen::DbClass cls,
                                           uint64_t kib = 256) {
  static auto* cache = new std::map<std::pair<datagen::DbClass, uint64_t>,
                                    datagen::GeneratedDatabase>();
  auto it = cache->find({cls, kib});
  if (it == cache->end()) {
    datagen::GenConfig config;
    config.target_bytes = kib * 1024;
    config.seed = 42;
    it = cache->emplace(std::make_pair(cls, kib), datagen::Generate(cls, config))
             .first;
  }
  return it->second;
}

/// The single document of an SD class at `kib` KiB (range(0) = class,
/// range(1) = KiB), as the parse benchmarks' input.
const std::string& ParseInput(benchmark::State& state) {
  return SharedDb(static_cast<datagen::DbClass>(state.range(0)),
                  static_cast<uint64_t>(state.range(1)))
      .documents[0]
      .text;
}

void ParseArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"class", "kib"});
  bench->Args({static_cast<int64_t>(datagen::DbClass::kTcSd), 256});
  bench->Args({static_cast<int64_t>(datagen::DbClass::kTcSd), 10240});
  bench->Args({static_cast<int64_t>(datagen::DbClass::kDcSd), 10240});
}

/// Parsing alone: the document is dropped outside the timed region.
void BM_XmlParse(benchmark::State& state) {
  const std::string& text = ParseInput(state);
  std::optional<Result<xml::Document>> doc;
  for (auto _ : state) {
    doc.emplace(xml::Parse(text, "bench.xml"));
    benchmark::DoNotOptimize(*doc);
    state.PauseTiming();
    doc.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_XmlParse)->Apply(ParseArgs)->Unit(benchmark::kMillisecond);

/// Parse then drop: one cold materialization's whole DOM lifetime (what a
/// cold restart pays per document, besides the page reads).
void BM_XmlParseAndDrop(benchmark::State& state) {
  const std::string& text = ParseInput(state);
  for (auto _ : state) {
    auto doc = xml::Parse(text, "bench.xml");
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_XmlParseAndDrop)->Apply(ParseArgs)->Unit(benchmark::kMillisecond);

void BM_XmlSerialize(benchmark::State& state) {
  const auto& db = SharedDb(datagen::DbClass::kTcSd);
  for (auto _ : state) {
    std::string out = xml::Serialize(db.documents[0].dom);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_XmlSerialize)->Unit(benchmark::kMillisecond);

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    VirtualClock clock;
    relational::BTreeIndex tree(clock);
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert({relational::Value::Int(i * 2654435761 % 1000000)},
                  static_cast<storage::RecordId>(i));
    }
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BTreeLookup(benchmark::State& state) {
  VirtualClock clock;
  relational::BTreeIndex tree(clock);
  for (int64_t i = 0; i < state.range(0); ++i) {
    tree.Insert({relational::Value::Int(i)}, static_cast<storage::RecordId>(i));
  }
  int64_t key = 0;
  for (auto _ : state) {
    auto rids = tree.Lookup({relational::Value::Int(key++ % state.range(0))});
    benchmark::DoNotOptimize(rids);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(10000)->Arg(100000);

void BM_XQueryPathScan(benchmark::State& state) {
  const auto& db = SharedDb(datagen::DbClass::kTcSd);
  xquery::Bindings bindings;
  bindings["input"] = {xquery::Item::Node(db.documents[0].dom.root())};
  for (auto _ : state) {
    auto result = xquery::EvaluateQuery("count($input//qt)", bindings);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_XQueryPathScan)->Unit(benchmark::kMillisecond);

void BM_XQueryFlworSort(benchmark::State& state) {
  const auto& db = SharedDb(datagen::DbClass::kTcSd);
  xquery::Bindings bindings;
  bindings["input"] = {xquery::Item::Node(db.documents[0].dom.root())};
  for (auto _ : state) {
    auto result = xquery::EvaluateQuery(
        "for $e in $input//entry order by $e/hw descending return data($e/hw)",
        bindings);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_XQueryFlworSort)->Unit(benchmark::kMillisecond);

void BM_Shred(benchmark::State& state) {
  const auto& db = SharedDb(datagen::DbClass::kDcMd);
  const engines::Dad dad = engines::ShredDadFor(datagen::DbClass::kDcMd);
  for (auto _ : state) {
    storage::SimulatedDisk disk;
    storage::BufferPool pool(disk, 2048);
    relational::Database database(disk, pool);
    (void)engines::CreateDadTables(dad, database);
    int64_t next_row = 0;
    for (const auto& doc : db.documents) {
      (void)engines::ShredDocument(*doc.dom.root(), doc.name, dad, {},
                                   database, next_row, nullptr);
    }
    benchmark::DoNotOptimize(next_row);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db.total_bytes));
}
BENCHMARK(BM_Shred)->Unit(benchmark::kMillisecond);

void BM_Generate(benchmark::State& state) {
  const auto cls = static_cast<datagen::DbClass>(state.range(0));
  for (auto _ : state) {
    datagen::GenConfig config;
    config.target_bytes = 128 * 1024;
    config.seed = 42;
    auto db = datagen::Generate(cls, config);
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_Generate)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
