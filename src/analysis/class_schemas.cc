#include "analysis/class_schemas.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace xbench::analysis {
namespace {

/// Sample size for schema inference. Large enough that every optional
/// element of every class (the dotted boxes of the paper's Figures 1–4)
/// occurs at least once; small enough to build in milliseconds.
constexpr uint64_t kSampleBytes = 96 * 1024;
constexpr uint64_t kSampleSeed = 42;

std::unique_ptr<ClassSchema> BuildSchema(datagen::DbClass cls) {
  const datagen::GeneratedDatabase db =
      datagen::Generate(cls, CanonicalSampleConfig());

  auto schema = std::make_unique<ClassSchema>();
  schema->seeds = db.seeds;
  for (const datagen::GeneratedDocument& doc : db.documents) {
    schema->summary.AddDocument(doc.dom);
  }
  schema->roots = schema->summary.RootTypes();
  schema->dtd_text = schema->summary.ToDtd();
  auto dtd = xml::Dtd::Parse(schema->dtd_text);
  if (!dtd.ok()) {
    // The inferred DTD always round-trips through our parser (dtd_test
    // asserts this for every class); a failure here is a programming
    // error, and continuing with an empty DTD would turn every later
    // analysis into misleading unknown-name errors.
    std::fprintf(stderr,
                 "xbench: canonical DTD for class %s failed to parse: %s\n",
                 datagen::DbClassName(cls), dtd.status().ToString().c_str());
    std::abort();
  }
  schema->dtd = std::move(dtd).value();
  return schema;
}

}  // namespace

datagen::GenConfig CanonicalSampleConfig() {
  datagen::GenConfig config;
  config.target_bytes = kSampleBytes;
  config.seed = kSampleSeed;
  return config;
}

const ClassSchema& CanonicalClassSchema(datagen::DbClass cls) {
  static std::array<std::once_flag, 4> flags;
  static std::array<std::unique_ptr<ClassSchema>, 4>* cache =
      new std::array<std::unique_ptr<ClassSchema>, 4>{};
  const auto index = static_cast<size_t>(cls);
  std::call_once(flags[index], [&] { (*cache)[index] = BuildSchema(cls); });
  return *(*cache)[index];
}

}  // namespace xbench::analysis
