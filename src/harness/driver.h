#ifndef XBENCH_HARNESS_DRIVER_H_
#define XBENCH_HARNESS_DRIVER_H_

#include <map>
#include <memory>
#include <string>

#include "datagen/generator.h"
#include "engines/dbms.h"
#include "harness/report.h"
#include "harness/scale.h"
#include "workload/queries.h"
#include "workload/runner.h"

namespace xbench::harness {

/// Orchestrates the paper's experiment matrix: generates each (class,
/// scale) database once, loads it into each engine on demand, and renders
/// the Tables 4-9 grids. Loaded engines are cached so the per-table
/// benches share work within one process.
class Driver {
 public:
  Driver() = default;

  /// The generated database for (class, scale); cached.
  const datagen::GeneratedDatabase& Database(datagen::DbClass db_class,
                                             workload::Scale scale);

  struct LoadedEngine {
    std::unique_ptr<engines::XmlDbms> engine;
    Status load_status;
    double load_cpu_millis = 0;
    double load_io_millis = 0;
    /// Pool/disk traffic attributed to the bulk load + index build.
    workload::IoStats load_io;

    double LoadMillis() const { return load_cpu_millis + load_io_millis; }
  };

  /// Engine `kind` loaded with (class, scale) + Table 3 indexes; cached.
  LoadedEngine& Loaded(engines::EngineKind kind, datagen::DbClass db_class,
                       workload::Scale scale);

  /// Table 4: bulk-loading time in seconds.
  ResultTable BulkLoadTable();

  /// Tables 5-9: execution time of one benchmark query in milliseconds.
  ResultTable QueryTable(workload::QueryId id);

  /// Renders Table 3 (indexes per class).
  std::string IndexTable() const;

  /// Configuration for JsonReport(). Empty vectors select the defaults:
  /// the paper's Tables 5-9 query subset at the small scale.
  struct ReportOptions {
    std::vector<workload::QueryId> queries;
    std::vector<workload::Scale> scales;
    /// Run queries with RunOptions::profile and emit a per-query
    /// "profile" object (phase timings) plus per-operator depth/self
    /// times in the plan section.
    bool profile = false;
    /// Access-path policy for every query run (native compiled path).
    /// The default kAuto lets the cost model choose among guided walks,
    /// full scans, and index probes; the chosen path lands in each
    /// query's plan section as "access_path".
    xquery::plan::AccessPathPolicy access_path;
  };

  /// Machine-readable run report (BENCH_RESULTS-style): one cell per
  /// (engine, class, scale) with load timings, per-query timings, answer
  /// hashes, and buffer-pool/disk counters, plus a snapshot of the global
  /// metrics registry. Valid JSON by construction (tests parse it).
  std::string JsonReport(const ReportOptions& options);
  std::string JsonReport() { return JsonReport(ReportOptions()); }

  /// Writes JsonReport() to `path`.
  Status WriteJsonReport(const std::string& path,
                         const ReportOptions& options);
  Status WriteJsonReport(const std::string& path) {
    return WriteJsonReport(path, ReportOptions());
  }

 private:
  std::map<std::pair<int, int>, datagen::GeneratedDatabase> databases_;
  std::map<std::tuple<int, int, int>, LoadedEngine> engines_;
};

}  // namespace xbench::harness

#endif  // XBENCH_HARNESS_DRIVER_H_
