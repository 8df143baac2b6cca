#ifndef XBENCH_BENCH_BENCH_COMMON_H_
#define XBENCH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"
#include "harness/driver.h"
#include "obs/json.h"
#include "obs/metrics.h"
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

/// Intra-query parallelism sweep (extension beyond the paper): runs each
/// query on the native engine (first class that supports it, small
/// scale, warm) once per parallelism bound and reports the measured
/// operator-tree wall time (ExecStats::total_millis, the profile's
/// exec_millis) per bound, best of three, on this host's cores. Answers
/// are checked identical across bounds. XBENCH_REPORT=<path> writes the
/// machine-readable JSON artifact.
inline int RunQueryParallelismBench(
    const std::vector<workload::QueryId>& queries,
    const std::vector<int>& parallelisms) {
  obs::EnvTraceSession trace_session;
  harness::Driver driver;
  std::printf(
      "XBench extension — intra-query parallelism sweep "
      "(native engine, small scale, wall-clock exec millis)\n");
  std::printf("%-6s %-6s", "query", "class");
  for (int p : parallelisms) {
    std::printf(" %9s", StrCat({"x", std::to_string(p)}).c_str());
  }
  std::printf(" %9s\n", "speedup");

  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("benchmark").String("xbench_query_parallelism");
  writer.Key("engine").String("native");
  writer.Key("scale").String("small");
  writer.Key("parallelism").BeginArray();
  for (int p : parallelisms) writer.Uint(static_cast<uint64_t>(p));
  writer.EndArray();
  writer.Key("queries").BeginArray();

  constexpr int kRepeats = 3;  // best-of, to damp scheduler noise
  int failures = 0;
  for (workload::QueryId id : queries) {
    bool ran = false;
    for (datagen::DbClass db_class : workload::AllClasses()) {
      harness::Driver::LoadedEngine& loaded = driver.Loaded(
          engines::EngineKind::kNative, db_class, workload::Scale::kSmall);
      if (!loaded.load_status.ok()) continue;
      const datagen::GeneratedDatabase& db =
          driver.Database(db_class, workload::Scale::kSmall);
      workload::Session session(*loaded.engine, db_class,
                                workload::DeriveParams(db_class, db.seeds),
                                "parallelism");
      struct Point {
        int parallelism = 1;
        double exec_millis = 0;
        uint64_t morsels = 0;
      };
      std::vector<Point> points;
      uint64_t baseline_hash = 0;
      bool mismatch = false;
      bool failed = false;
      for (int p : parallelisms) {
        workload::RunOptions options;
        options.cold = false;  // warm: isolate execution, not the pool
        options.compile.parallelism.max_intra = p;
        Point point;
        point.parallelism = p;
        for (int rep = 0; rep < kRepeats; ++rep) {
          workload::ExecutionResult result = session.Run(id, options);
          if (!result.status.ok()) {
            failed = true;
            break;
          }
          const uint64_t hash = workload::AnswerHash(
              workload::CanonicalizeAnswer(id, std::move(result.lines)));
          if (p == parallelisms.front() && rep == 0) baseline_hash = hash;
          if (hash != baseline_hash) mismatch = true;
          const double exec = result.plan_stats.total_millis;
          if (rep == 0 || exec < point.exec_millis) {
            point.exec_millis = exec;
            point.morsels = 0;
            for (const xquery::exec::OperatorStats& op :
                 result.plan_stats.operators) {
              point.morsels += op.morsels;
            }
          }
        }
        if (failed) break;
        points.push_back(point);
      }
      if (failed || points.empty()) continue;
      ran = true;
      const double base = points.front().exec_millis;
      const double last = points.back().exec_millis;
      std::printf("%-6s %-6s", workload::QueryName(id),
                  datagen::DbClassName(db_class));
      for (const Point& point : points) {
        std::printf(" %9.3f", point.exec_millis);
      }
      std::printf(" %8.2fx%s\n", last > 0 ? base / last : 0.0,
                  mismatch ? "  ANSWER-MISMATCH" : "");
      if (mismatch) ++failures;
      writer.BeginObject();
      writer.Key("query").String(workload::QueryName(id));
      writer.Key("class").String(datagen::DbClassName(db_class));
      writer.Key("answers_match").Bool(!mismatch);
      writer.Key("runs").BeginArray();
      for (const Point& point : points) {
        writer.BeginObject()
            .Key("parallelism")
            .Uint(static_cast<uint64_t>(point.parallelism))
            .Key("exec_millis")
            .Number(point.exec_millis)
            .Key("morsels")
            .Uint(point.morsels)
            .Key("speedup")
            .Number(point.exec_millis > 0 ? base / point.exec_millis : 0.0)
            .EndObject();
      }
      writer.EndArray();
      writer.EndObject();
      break;
    }
    if (!ran) {
      std::fprintf(stderr, "%s is not supported by the native engine\n",
                   workload::QueryName(id));
    }
  }
  writer.EndArray();
  writer.Key("metrics");
  obs::MetricsRegistry::Default().WriteJson(writer);
  writer.EndObject();

  if (const char* report_path = std::getenv("XBENCH_REPORT")) {
    Status status = obs::WriteFile(report_path, writer.TakeString());
    if (!status.ok()) {
      std::fprintf(stderr, "report write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_path);
  }
  return failures == 0 ? 0 : 1;
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
