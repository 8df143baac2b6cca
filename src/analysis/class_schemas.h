#ifndef XBENCH_ANALYSIS_CLASS_SCHEMAS_H_
#define XBENCH_ANALYSIS_CLASS_SCHEMAS_H_

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "datagen/generator.h"
#include "xml/dtd.h"
#include "xml/schema_summary.h"

namespace xbench::analysis {

/// The canonical schema of one database class: the DTD inferred from a
/// deterministically generated sample database (the paper's companion
/// report ships these per class), its instance statistics, the document
/// root types, and the workload seeds of the sample (so canned-query
/// parameters can be derived without regenerating).
struct ClassSchema {
  xml::Dtd dtd;
  xml::SchemaSummary summary;
  std::vector<std::string> roots;
  std::string dtd_text;
  datagen::WorkloadSeeds seeds;

  /// View usable by analysis::Analyze.
  SchemaContext Context() const { return {&dtd, &summary, roots}; }
};

/// The generator configuration of the canonical sample database the class
/// schemas are inferred from (seed 42, 96 KiB). Tools that want to run
/// queries over "the schema's database" (xqlint --explain --profile)
/// regenerate it with this.
datagen::GenConfig CanonicalSampleConfig();

/// Lazily built, cached canonical schema for `cls` (seed 42, 96 KiB sample
/// — the same configuration the DTD round-trip tests validate).
/// Thread-safe: concurrent first calls build each class's schema once.
const ClassSchema& CanonicalClassSchema(datagen::DbClass cls);

}  // namespace xbench::analysis

#endif  // XBENCH_ANALYSIS_CLASS_SCHEMAS_H_
