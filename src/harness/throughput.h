#ifndef XBENCH_HARNESS_THROUGHPUT_H_
#define XBENCH_HARNESS_THROUGHPUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/generator.h"
#include "engines/dbms.h"
#include "obs/json.h"
#include "workload/classes.h"
#include "workload/queries.h"

namespace xbench::harness {

/// Configuration for one multi-programming-level (MPL) throughput sweep.
struct ThroughputOptions {
  engines::EngineKind engine = engines::EngineKind::kNative;
  datagen::DbClass db_class = datagen::DbClass::kTcSd;
  workload::Scale scale = workload::Scale::kSmall;
  /// MPLs to sweep, each run against the same loaded engine.
  std::vector<int> mpls = {1, 2, 4, 8, 16};
  /// Query mix each session cycles through (offset by its session index so
  /// concurrent sessions interleave different statements). Queries the
  /// engine reports Unsupported for are dropped during the serial
  /// baseline. Empty means the default report mix.
  std::vector<workload::QueryId> mix;
  /// Statements each session executes per MPL run.
  int ops_per_session = 8;
  /// SLO gate: when positive, an MPL whose p99 latency exceeds this many
  /// milliseconds is flagged (MplResult::slo_ok = false) and
  /// ThroughputReport::SloSatisfied() turns false. 0 disables the gate.
  double slo_p99_millis = 0;
};

/// One MPL data point. Latency percentiles come from a log-bucketed
/// `xbench.concurrency.mpl<N>.latency_micros` histogram of per-statement
/// samples (see obs::Histogram for the relative-error bound), recorded in
/// microseconds and reported in milliseconds. A statement's latency is
/// its Session wall time plus the simulated-disk time attributed to it.
struct MplResult {
  int mpl = 1;
  uint64_t ops = 0;
  uint64_t failures = 0;
  /// Statements whose canonical answer hash differed from the serial
  /// baseline — must be zero for a correct engine.
  uint64_t hash_mismatches = 0;
  /// Wall time from starting the MPL's session threads to joining the
  /// last one; qps = ops / wall_millis. Measured on this host's cores, so
  /// MPLs above the free core count only timeslice.
  double wall_millis = 0;
  double qps = 0;
  double mean_millis = 0;
  double p50_millis = 0;
  double p90_millis = 0;
  double p99_millis = 0;
  double p999_millis = 0;
  /// False when the SLO gate was enabled and this MPL's p99 exceeded it.
  bool slo_ok = true;
};

/// Serial-baseline answer for one query in the mix.
struct BaselineAnswer {
  workload::QueryId id;
  uint64_t answer_hash = 0;
  uint64_t answer_lines = 0;
};

/// Full sweep outcome.
struct ThroughputReport {
  engines::EngineKind engine = engines::EngineKind::kNative;
  datagen::DbClass db_class = datagen::DbClass::kTcSd;
  workload::Scale scale = workload::Scale::kSmall;
  std::vector<BaselineAnswer> baseline;
  std::vector<MplResult> mpls;
  /// Copy of ThroughputOptions::slo_p99_millis (0 = gate disabled).
  double slo_p99_millis = 0;

  /// True when no concurrent statement's answer diverged from serial.
  bool AllAnswersMatchSerial() const;
  /// True when every MPL met the p99 SLO (vacuously true when disabled).
  bool SloSatisfied() const;
  /// qps at `mpl` divided by qps at MPL 1 (0 when either is missing).
  double SpeedupAt(int mpl) const;
};

/// JSON object for run reports / tooling (engine, mix, per-MPL rows).
std::string ToJson(const ThroughputReport& report);

/// Same object, written into an in-progress JsonWriter (for embedding the
/// sweep into a larger run report).
void WriteJson(const ThroughputReport& report, obs::JsonWriter& writer);

/// Runs N concurrent sessions over a query mix against one shared engine
/// and reports queries/sec and latency percentiles per MPL. Every
/// concurrent statement's canonical answer hash is checked against a
/// serial baseline taken on the same engine, so the sweep doubles as a
/// differential test of the thread-safe engine paths. Publishes
/// `xbench.concurrency.*` metrics into the default registry so JSON run
/// reports pick the sweep up.
class ThroughputDriver {
 public:
  explicit ThroughputDriver(ThroughputOptions options = {});

  /// Generates + loads the database, takes the serial baseline, then runs
  /// each MPL. Statuses: load/baseline failures abort; per-statement
  /// failures during the sweep are counted, not fatal.
  Result<ThroughputReport> Run();

 private:
  ThroughputOptions options_;
};

}  // namespace xbench::harness

#endif  // XBENCH_HARNESS_THROUGHPUT_H_
