#ifndef XBENCH_BENCH_BENCH_COMMON_H_
#define XBENCH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/driver.h"
#include "obs/trace.h"
#include "workload/classes.h"
#include "workload/session.h"

namespace xbench::bench {

/// With --profile: runs `id` once more on the native engine (first class
/// that supports it, small scale) with phase/operator profiling and
/// prints an EXPLAIN ANALYZE-style breakdown.
inline void PrintQueryProfile(harness::Driver& driver, workload::QueryId id) {
  for (datagen::DbClass db_class : workload::AllClasses()) {
    harness::Driver::LoadedEngine& loaded = driver.Loaded(
        engines::EngineKind::kNative, db_class, workload::Scale::kSmall);
    if (!loaded.load_status.ok()) continue;
    const datagen::GeneratedDatabase& db =
        driver.Database(db_class, workload::Scale::kSmall);
    workload::Session session(*loaded.engine, db_class,
                              workload::DeriveParams(db_class, db.seeds),
                              "profile");
    workload::RunOptions options;
    options.profile = true;
    workload::ExecutionResult result = session.Run(id, options);
    if (!result.status.ok()) continue;
    const workload::QueryProfile& profile = result.profile;
    std::printf("\nprofile: %s on native/%s (small)\n",
                workload::QueryName(id), datagen::DbClassName(db_class));
    std::printf(
        "  phases: parse=%.3fms analyze=%.3fms plan=%.3fms%s "
        "engine=%.3fms exec=%.3fms serialize=%.3fms\n",
        profile.parse_millis, profile.analyze_millis, profile.plan_millis,
        profile.compile_cache_hit ? " (cache hit)" : "",
        profile.engine_millis, profile.exec_millis,
        profile.serialize_millis);
    std::printf("  %-44s %10s %8s %10s %10s\n", "operator", "rows", "calls",
                "millis", "self_ms");
    for (const xquery::exec::OperatorStats& op :
         result.plan_stats.operators) {
      std::string label(static_cast<size_t>(op.depth) * 2, ' ');
      label += op.label;
      std::printf("  %-44s %10llu %8llu %10.3f %10.3f\n", label.c_str(),
                  static_cast<unsigned long long>(op.rows_out),
                  static_cast<unsigned long long>(op.invocations), op.millis,
                  op.self_millis);
    }
    return;
  }
  std::fprintf(stderr, "profile: %s is not supported by the native engine\n",
               workload::QueryName(id));
}

/// Prints one of the paper's query tables (Tables 5-9). Honors the
/// observability env hooks: XBENCH_TRACE_OUT=<path> (or legacy
/// XBENCH_TRACE) dumps a Chrome trace of the run, XBENCH_REPORT=<path>
/// writes the machine-readable JSON report for this query. `profile`
/// additionally runs one profiled native execution (printed) and embeds
/// phase/operator profiles in the report.
inline int RunQueryTableBench(workload::QueryId id, const char* paper_table,
                              bool profile = false) {
  obs::EnvTraceSession trace_session;
  harness::Driver driver;
  std::printf("XBench reproduction — %s (paper %s)\n",
              workload::QueryName(id), paper_table);
  std::printf("scales: small=%lluKB normal=%lluKB large=%lluKB, seed=%llu\n",
              static_cast<unsigned long long>(
                  harness::TargetBytes(workload::Scale::kSmall) / 1024),
              static_cast<unsigned long long>(
                  harness::TargetBytes(workload::Scale::kNormal) / 1024),
              static_cast<unsigned long long>(
                  harness::TargetBytes(workload::Scale::kLarge) / 1024),
              static_cast<unsigned long long>(harness::BenchSeed()));
  harness::ResultTable table = driver.QueryTable(id);
  std::fputs(table.ToString().c_str(), stdout);
  if (profile) PrintQueryProfile(driver, id);
  if (const char* report_path = std::getenv("XBENCH_REPORT")) {
    harness::Driver::ReportOptions options;
    options.queries = {id};
    options.profile = profile;
    Status status = driver.WriteJsonReport(report_path, options);
    if (!status.ok()) {
      std::fprintf(stderr, "report write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_path);
  }
  return 0;
}

}  // namespace xbench::bench

#endif  // XBENCH_BENCH_BENCH_COMMON_H_
