#ifndef XBENCH_DATAGEN_GENERATOR_H_
#define XBENCH_DATAGEN_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xbench::datagen {

/// The four XBench database classes (paper Table 1).
enum class DbClass {
  kTcSd,  // text-centric, single document: dictionary.xml
  kTcMd,  // text-centric, multiple documents: articleXXX.xml
  kDcSd,  // data-centric, single document: catalog.xml
  kDcMd,  // data-centric, multiple documents: orderXXX.xml + flat tables
};

/// "TC/SD" etc.
const char* DbClassName(DbClass cls);

struct GenConfig {
  /// Approximate serialized database size. The paper's small/normal/large
  /// are 10 MB / 100 MB / 1 GB; the harness scales these down (DESIGN.md).
  uint64_t target_bytes = 1 << 20;
  uint64_t seed = 42;
};

/// One generated XML file: its name and its compact XML text.
struct GeneratedDocument {
  std::string name;
  std::string text;
};

/// Knobs the workload uses to derive deterministic query parameters
/// without scanning the data (the id/value spaces are fixed functions of
/// the counters below).
struct WorkloadSeeds {
  int64_t entry_count = 0;    // TC/SD dictionary entries ("entry_num")
  int64_t article_count = 0;  // TC/MD articles ("article_num")
  int64_t item_count = 0;     // DC/SD catalog items
  int64_t order_count = 0;    // DC/MD orders
  int64_t customer_count = 0;
  int64_t author_count = 0;
  int64_t country_count = 0;
};

struct GeneratedDatabase {
  DbClass db_class = DbClass::kTcSd;
  std::vector<GeneratedDocument> documents;
  uint64_t total_bytes = 0;
  WorkloadSeeds seeds;
};

/// Generates a database of the given class at roughly `target_bytes`.
/// Deterministic in (cls, config.seed, config.target_bytes).
GeneratedDatabase Generate(DbClass cls, const GenConfig& config);

}  // namespace xbench::datagen

#endif  // XBENCH_DATAGEN_GENERATOR_H_
