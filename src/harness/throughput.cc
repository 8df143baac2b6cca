#include "harness/throughput.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "harness/scale.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/runner.h"
#include "workload/session.h"

namespace xbench::harness {

namespace {

using workload::QueryId;

std::vector<QueryId> DefaultMix() {
  return {QueryId::kQ5, QueryId::kQ8, QueryId::kQ12, QueryId::kQ14,
          QueryId::kQ17};
}

/// What one session's worker thread hands back after joining. Latency
/// samples go straight into the shared per-MPL histogram, so only the
/// scalar tallies ride through here.
struct SessionOutcome {
  uint64_t ops = 0;
  uint64_t failures = 0;
  uint64_t hash_mismatches = 0;
};

}  // namespace

bool ThroughputReport::AllAnswersMatchSerial() const {
  for (const MplResult& result : mpls) {
    if (result.hash_mismatches != 0) return false;
  }
  return true;
}

bool ThroughputReport::SloSatisfied() const {
  for (const MplResult& result : mpls) {
    if (!result.slo_ok) return false;
  }
  return true;
}

double ThroughputReport::SpeedupAt(int mpl) const {
  double base_qps = 0;
  double at_qps = 0;
  for (const MplResult& result : mpls) {
    if (result.mpl == 1) base_qps = result.qps;
    if (result.mpl == mpl) at_qps = result.qps;
  }
  if (base_qps <= 0 || at_qps <= 0) return 0;
  return at_qps / base_qps;
}

std::string ToJson(const ThroughputReport& report) {
  obs::JsonWriter writer;
  WriteJson(report, writer);
  return writer.TakeString();
}

void WriteJson(const ThroughputReport& report, obs::JsonWriter& writer) {
  writer.BeginObject();
  writer.Key("engine").String(engines::EngineKindName(report.engine));
  writer.Key("class").String(datagen::DbClassName(report.db_class));
  writer.Key("scale").String(workload::ScaleName(report.scale));
  writer.Key("answers_match_serial").Bool(report.AllAnswersMatchSerial());
  writer.Key("slo_p99_millis").Number(report.slo_p99_millis);
  writer.Key("slo_satisfied").Bool(report.SloSatisfied());
  writer.Key("baseline").BeginArray();
  for (const BaselineAnswer& answer : report.baseline) {
    writer.BeginObject()
        .Key("query")
        .String(workload::QueryName(answer.id))
        .Key("answer_hash")
        .Uint(answer.answer_hash)
        .Key("answer_lines")
        .Uint(answer.answer_lines)
        .EndObject();
  }
  writer.EndArray();
  writer.Key("mpls").BeginArray();
  for (const MplResult& result : report.mpls) {
    writer.BeginObject()
        .Key("mpl")
        .Uint(static_cast<uint64_t>(result.mpl))
        .Key("ops")
        .Uint(result.ops)
        .Key("failures")
        .Uint(result.failures)
        .Key("hash_mismatches")
        .Uint(result.hash_mismatches)
        .Key("wall_millis")
        .Number(result.wall_millis)
        .Key("qps")
        .Number(result.qps)
        .Key("mean_millis")
        .Number(result.mean_millis)
        .Key("p50_millis")
        .Number(result.p50_millis)
        .Key("p90_millis")
        .Number(result.p90_millis)
        .Key("p99_millis")
        .Number(result.p99_millis)
        .Key("p999_millis")
        .Number(result.p999_millis)
        .Key("slo_ok")
        .Bool(result.slo_ok)
        .EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

ThroughputDriver::ThroughputDriver(ThroughputOptions options)
    : options_(std::move(options)) {}

Result<ThroughputReport> ThroughputDriver::Run() {
  ThroughputReport report;
  report.engine = options_.engine;
  report.db_class = options_.db_class;
  report.scale = options_.scale;
  report.slo_p99_millis = options_.slo_p99_millis;

  datagen::GenConfig config;
  config.target_bytes = TargetBytes(options_.scale);
  config.seed = BenchSeed();
  const datagen::GeneratedDatabase db =
      datagen::Generate(options_.db_class, config);

  std::unique_ptr<engines::XmlDbms> engine =
      workload::MakeEngine(options_.engine);
  if (engine == nullptr) {
    return Status::InvalidArgument("unknown engine kind");
  }
  workload::TimedStatus load = workload::BulkLoad(*engine, db);
  XBENCH_RETURN_IF_ERROR(load.status);
  XBENCH_RETURN_IF_ERROR(
      workload::CreateTable3Indexes(*engine, options_.db_class));

  const workload::QueryParams params =
      workload::DeriveParams(options_.db_class, db.seeds);
  std::vector<QueryId> mix =
      options_.mix.empty() ? DefaultMix() : options_.mix;

  // Serial baseline: one warm run per query on this thread establishes the
  // canonical answer hash the concurrent sweep must reproduce exactly.
  // Unsupported queries are dropped from the mix (an engine that cannot
  // run a query at MPL 1 cannot run it at MPL 8 either); other failures
  // are real errors and abort the sweep.
  workload::RunOptions serial_options;
  serial_options.cold = false;
  workload::Session baseline_session(*engine, options_.db_class, params,
                                     "baseline");
  std::vector<QueryId> supported;
  for (QueryId id : mix) {
    workload::ExecutionResult result = baseline_session.Run(id, serial_options);
    if (result.status.code() == StatusCode::kUnsupported) continue;
    XBENCH_RETURN_IF_ERROR(result.status);
    const std::vector<std::string> canonical =
        workload::CanonicalizeAnswer(id, std::move(result.lines));
    BaselineAnswer answer;
    answer.id = id;
    answer.answer_hash = workload::AnswerHash(canonical);
    answer.answer_lines = canonical.size();
    report.baseline.push_back(answer);
    supported.push_back(id);
  }
  if (supported.empty()) {
    return Status::Unsupported("no query in the mix is supported by " +
                               engine->name());
  }
  mix = std::move(supported);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  for (int mpl : options_.mpls) {
    if (mpl <= 0) {
      return Status::InvalidArgument("MPL values must be positive");
    }
    const std::string tag = "mpl" + std::to_string(mpl);
    std::vector<workload::Session> sessions;
    sessions.reserve(static_cast<size_t>(mpl));
    for (int s = 0; s < mpl; ++s) {
      sessions.emplace_back(*engine, options_.db_class, params,
                            tag + ".s" + std::to_string(s));
    }
    std::vector<SessionOutcome> outcomes(static_cast<size_t>(mpl));
    const int ops = std::max(1, options_.ops_per_session);
    // Per-statement latency samples, shared by this MPL's workers. Reset
    // so a rerun (or a prior sweep in the same process) does not bleed in.
    obs::Histogram& latency_histogram =
        metrics.GetHistogram("xbench.concurrency." + tag + ".latency_micros");
    latency_histogram.Reset();
    auto worker = [&](int index) {
      workload::Session& session = sessions[static_cast<size_t>(index)];
      SessionOutcome& outcome = outcomes[static_cast<size_t>(index)];
      if (obs::Tracer::Default().enabled()) {
        obs::Tracer::Default().SetCurrentThreadName(session.name());
      }
      workload::RunOptions run_options;
      run_options.cold = false;
      run_options.collect_plan_stats = false;
      for (int op = 0; op < ops; ++op) {
        // Offset by the session index so concurrent sessions interleave
        // different statements instead of marching in lockstep.
        const QueryId id = mix[static_cast<size_t>(index + op) % mix.size()];
        workload::ExecutionResult result = session.Run(id, run_options);
        latency_histogram.Record(static_cast<uint64_t>(
            std::llround(result.TotalMillis() * 1000.0)));
        ++outcome.ops;
        if (!result.status.ok()) {
          ++outcome.failures;
          continue;
        }
        const uint64_t hash = workload::AnswerHash(
            workload::CanonicalizeAnswer(id, std::move(result.lines)));
        uint64_t expected = 0;
        for (const BaselineAnswer& answer : report.baseline) {
          if (answer.id == id) expected = answer.answer_hash;
        }
        if (hash != expected) ++outcome.hash_mismatches;
      }
    };
    Stopwatch wall;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(mpl));
    for (int s = 0; s < mpl; ++s) threads.emplace_back(worker, s);
    for (std::thread& t : threads) t.join();

    MplResult result;
    result.mpl = mpl;
    result.wall_millis = wall.ElapsedMillis();
    for (const SessionOutcome& outcome : outcomes) {
      result.ops += outcome.ops;
      result.failures += outcome.failures;
      result.hash_mismatches += outcome.hash_mismatches;
    }
    // Percentiles straight from the recorded samples (micros -> millis);
    // the log-bucketed histogram bounds the relative error at <= 6.25%.
    result.mean_millis = latency_histogram.Mean() / 1000.0;
    result.p50_millis =
        static_cast<double>(latency_histogram.ApproxPercentile(0.50)) / 1000.0;
    result.p90_millis =
        static_cast<double>(latency_histogram.ApproxPercentile(0.90)) / 1000.0;
    result.p99_millis =
        static_cast<double>(latency_histogram.ApproxPercentile(0.99)) / 1000.0;
    result.p999_millis =
        static_cast<double>(latency_histogram.ApproxPercentile(0.999)) /
        1000.0;
    result.slo_ok = options_.slo_p99_millis <= 0 ||
                    result.p99_millis <= options_.slo_p99_millis;
    result.qps = result.wall_millis > 0
                     ? static_cast<double>(result.ops) /
                           (result.wall_millis / 1000.0)
                     : 0;
    report.mpls.push_back(result);

    const std::string prefix = "xbench.concurrency." + tag;
    metrics.GetGauge(prefix + ".qps").Set(result.qps);
    metrics.GetGauge(prefix + ".p50_millis").Set(result.p50_millis);
    metrics.GetGauge(prefix + ".p90_millis").Set(result.p90_millis);
    metrics.GetGauge(prefix + ".p99_millis").Set(result.p99_millis);
    metrics.GetGauge(prefix + ".p999_millis").Set(result.p999_millis);
    metrics.GetCounter("xbench.concurrency.ops").Increment(result.ops);
    metrics.GetCounter("xbench.concurrency.hash_mismatches")
        .Increment(result.hash_mismatches);
  }
  metrics.GetGauge("xbench.concurrency.max_speedup")
      .Set([&report] {
        double best = 0;
        for (const MplResult& result : report.mpls) {
          best = std::max(best, report.SpeedupAt(result.mpl));
        }
        return best;
      }());
  return report;
}

}  // namespace xbench::harness
