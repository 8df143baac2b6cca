#include "analysis/class_schemas.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "xml/parser.h"

namespace xbench::analysis {
namespace {

/// Sample size for schema inference. Large enough that every optional
/// element of every class (the dotted boxes of the paper's Figures 1–4)
/// occurs at least once; small enough to build in milliseconds.
constexpr uint64_t kSampleBytes = 96 * 1024;
constexpr uint64_t kSampleSeed = 42;

/// The sample's text always parses and its inferred DTD always round-trips
/// through our parser (datagen_test and dtd_test assert both for every
/// class), so a failure is a programming error. Continuing with an empty
/// summary or DTD would turn every later analysis into misleading
/// unknown-name errors.
[[noreturn]] void ParseFailed(const char* what, datagen::DbClass cls,
                              const Status& status) {
  std::fprintf(stderr,
               "xbench: canonical %s for class %s failed to parse: %s\n", what,
               datagen::DbClassName(cls), status.ToString().c_str());
  std::abort();
}

std::unique_ptr<ClassSchema> BuildSchema(datagen::DbClass cls) {
  const datagen::GeneratedDatabase db =
      datagen::Generate(cls, CanonicalSampleConfig());

  auto schema = std::make_unique<ClassSchema>();
  schema->seeds = db.seeds;
  for (const datagen::GeneratedDocument& doc : db.documents) {
    auto parsed = xml::Parse(doc.text, doc.name);
    if (!parsed.ok()) ParseFailed("sample document", cls, parsed.status());
    schema->summary.AddDocument(*parsed);
  }
  schema->roots = schema->summary.RootTypes();
  schema->dtd_text = schema->summary.ToDtd();
  auto dtd = xml::Dtd::Parse(schema->dtd_text);
  if (!dtd.ok()) ParseFailed("DTD", cls, dtd.status());
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
