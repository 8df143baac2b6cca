// Extension beyond the paper: a multi-client throughput sweep. XBench's
// published tables are all single-stream response times; this binary runs
// N concurrent sessions (MPL 1/2/4/8/16) over a query mix against one
// shared engine and reports queries/sec and latency percentiles per MPL.
// Every concurrent statement's canonical answer hash is checked against a
// serial baseline on the same engine — any divergence makes the run fail
// with exit code 1, so the sweep doubles as a differential test of the
// thread-safe engine paths.
//
// Usage: bench_throughput [--engine NAME] [--class CLS] [--mpl 1,2,4]
//                         [--ops N] [--slo-p99-millis X]
//   --engine  registry name: native (default), clob, shred-db2,
//             shred-mssql
//   --class   tcsd (default), tcmd, dcsd, dcmd
//   --mpl     comma-separated MPLs (default 1,2,4,8,16)
//   --ops     statements per session per MPL (default 8)
//   --slo-p99-millis  fail (exit 1) if any MPL's p99 latency exceeds X
// XBENCH_REPORT=<path> writes the machine-readable JSON report,
// XBENCH_TRACE_OUT=<path> dumps a Chrome trace with one lane per session,
// XBENCH_OPENMETRICS=<path> writes the metrics registry in OpenMetrics
// text exposition format.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engines/registry.h"
#include "harness/throughput.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/runner.h"

int main(int argc, char** argv) {
  using namespace xbench;
  harness::ThroughputOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--engine" && i + 1 < argc) {
      const std::string name = argv[++i];
      bool found = false;
      for (engines::EngineKind kind : workload::AllEngines()) {
        if (name == engines::EngineKindRegistryName(kind)) {
          options.engine = kind;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown engine '%s' (known:", name.c_str());
        for (const std::string& known :
             engines::EngineRegistry::Default().Names()) {
          std::fprintf(stderr, " %s", known.c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
    } else if (arg == "--class" && i + 1 < argc) {
      const std::string cls = argv[++i];
      if (cls == "tcsd") {
        options.db_class = datagen::DbClass::kTcSd;
      } else if (cls == "tcmd") {
        options.db_class = datagen::DbClass::kTcMd;
      } else if (cls == "dcsd") {
        options.db_class = datagen::DbClass::kDcSd;
      } else if (cls == "dcmd") {
        options.db_class = datagen::DbClass::kDcMd;
      } else {
        std::fprintf(stderr, "unknown class '%s' (tcsd|tcmd|dcsd|dcmd)\n",
                     cls.c_str());
        return 2;
      }
    } else if (arg == "--mpl" && i + 1 < argc) {
      options.mpls.clear();
      std::string list = argv[++i];
      size_t pos = 0;
      while (pos < list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string item =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        const int mpl = std::atoi(item.c_str());
        if (mpl <= 0) {
          std::fprintf(stderr, "bad --mpl entry '%s'\n", item.c_str());
          return 2;
        }
        options.mpls.push_back(mpl);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      if (options.mpls.empty()) {
        std::fprintf(stderr, "--mpl needs at least one value\n");
        return 2;
      }
    } else if (arg == "--ops" && i + 1 < argc) {
      options.ops_per_session = std::atoi(argv[++i]);
      if (options.ops_per_session < 1) {
        std::fprintf(stderr, "--ops must be positive\n");
        return 2;
      }
    } else if (arg == "--slo-p99-millis" && i + 1 < argc) {
      options.slo_p99_millis = std::atof(argv[++i]);
      if (options.slo_p99_millis <= 0) {
        std::fprintf(stderr, "--slo-p99-millis must be positive\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_throughput [--engine NAME] [--class CLS] "
                   "[--mpl 1,2,4] [--ops N] "
                   "[--slo-p99-millis X]\n");
      return 2;
    }
  }

  obs::EnvTraceSession trace_session;

  std::printf(
      "XBench extension — multi-client throughput, engine=%s class=%s "
      "scale=%s, %d ops/session\n",
      engines::EngineKindRegistryName(options.engine),
      datagen::DbClassName(options.db_class), workload::ScaleName(options.scale),
      options.ops_per_session);

  harness::ThroughputDriver driver(options);
  auto run = driver.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "throughput run failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const harness::ThroughputReport& report = run.value();

  std::printf("%-5s %8s %10s %9s %10s %10s %10s %10s %10s %9s\n", "MPL",
              "ops", "qps", "speedup", "mean-ms", "p50-ms", "p90-ms", "p99-ms",
              "p999-ms", "mismatch");
  for (const harness::MplResult& row : report.mpls) {
    std::printf(
        "%-5d %8llu %10.1f %8.2fx %10.3f %10.3f %10.3f %10.3f %10.3f "
        "%9llu%s\n",
        row.mpl, static_cast<unsigned long long>(row.ops), row.qps,
        report.SpeedupAt(row.mpl), row.mean_millis, row.p50_millis,
        row.p90_millis, row.p99_millis, row.p999_millis,
        static_cast<unsigned long long>(row.hash_mismatches),
        row.slo_ok ? "" : "  SLO-VIOLATION");
  }

  if (const char* report_path = std::getenv("XBENCH_REPORT")) {
    obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("benchmark").String("xbench_throughput");
    writer.Key("throughput");
    harness::WriteJson(report, writer);
    writer.Key("metrics");
    obs::MetricsRegistry::Default().WriteJson(writer);
    writer.EndObject();
    Status status = obs::WriteFile(report_path, writer.TakeString());
    if (!status.ok()) {
      std::fprintf(stderr, "report write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_path);
  }

  if (const char* metrics_path = std::getenv("XBENCH_OPENMETRICS")) {
    Status status =
        obs::WriteOpenMetrics(obs::MetricsRegistry::Default(), metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "openmetrics write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("openmetrics written to %s\n", metrics_path);
  }

  if (!report.AllAnswersMatchSerial()) {
    std::fprintf(stderr,
                 "FAIL: concurrent answers diverged from the serial "
                 "baseline\n");
    return 1;
  }
  std::printf("all concurrent answers match the serial baseline\n");
  if (!report.SloSatisfied()) {
    std::fprintf(stderr, "FAIL: p99 latency exceeded the %.3fms SLO\n",
                 report.slo_p99_millis);
    return 1;
  }
  if (report.slo_p99_millis > 0) {
    std::printf("p99 latency within the %.3fms SLO at every MPL\n",
                report.slo_p99_millis);
  }
  return 0;
}
