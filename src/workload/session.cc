#include "workload/session.h"

#include <utility>

#include "common/stopwatch.h"
#include "common/sync.h"
#include "common/strings.h"
#include "common/thread_io.h"
#include "engines/clob_engine.h"
#include "engines/native_engine.h"
#include "engines/shred_engine.h"
#include "obs/trace.h"
#include "workload/relational_plans.h"
#include "xquery/plan/cache.h"

namespace xbench::workload {

namespace {

using engines::EngineKind;

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

/// Compile phase for the native engine, done before the stopwatch starts:
/// parse, schema analysis, and plan compilation are the DBMS's
/// statement-prepare work, so the timed region covers plan execution only
/// (the paper times query execution, not compilation). Compiled plans are
/// cached in the engine keyed by (query, class, engine, access-path mode,
/// catalog epoch), so a repeat run skips the whole phase — including a
/// run from another session: the plan cache is the engine's shared
/// statement cache. Query parameters are derived deterministically from
/// the database's seeds and every mutation invalidates the cache, so a
/// cached plan's embedded parameter values always match the collection it
/// runs over. The verifier's cardinality bounds stay off whatever the
/// caller asks: the canonical schema's statistics describe the sample
/// database, not the engine's actual collection.
Result<std::shared_ptr<const xquery::plan::CompiledQuery>> PrepareNativePlan(
    engines::NativeEngine& engine, QueryId id, datagen::DbClass db_class,
    const QueryParams& params,
    const xquery::plan::CompilationOptions& requested, bool* cache_hit,
    QueryProfile* profile) {
  xquery::plan::CompilationOptions options = requested;
  options.cost_model.trust_statistics = false;
  // Snapshot the planner-facing catalog before the cache probe: its epoch
  // is part of the key, so a plan costed against superseded index state
  // (DDL or mutation since) misses instead of being served.
  const xquery::plan::IndexCatalog catalog = engine.IndexCatalogSnapshot();
  const xquery::plan::PlanCacheKey key{
      static_cast<int>(id),
      static_cast<int>(db_class),
      static_cast<int>(EngineKind::kNative),
      static_cast<int>(options.access_path.mode),
      catalog.epoch};
  if (auto cached = engine.plan_cache().Lookup(key)) {
    *cache_hit = true;
    if (profile != nullptr) profile->compile_cache_hit = true;
    return cached;
  }
  *cache_hit = false;
  const std::string xquery = XQueryFor(id, db_class, params);
  if (xquery.empty()) {
    return Status::Unsupported(std::string(QueryName(id)) +
                               " is not defined for " +
                               datagen::DbClassName(db_class));
  }
  double parse_millis = 0;
  double analyze_millis = 0;
  XBENCH_ASSIGN_OR_RETURN(
      AnalyzedQuery analyzed,
      AnalyzeForClassFull(xquery, db_class, &parse_millis, &analyze_millis));
  Stopwatch plan_watch;
  XBENCH_ASSIGN_OR_RETURN(
      std::shared_ptr<const xquery::plan::CompiledQuery> compiled,
      xquery::plan::Compile(std::move(analyzed.ast),
                            &analyzed.report.annotations, options, &catalog));
  if (profile != nullptr) {
    profile->parse_millis = parse_millis;
    profile->analyze_millis = analyze_millis;
    profile->plan_millis = plan_watch.ElapsedMillis();
  }
  engine.plan_cache().Insert(key, compiled);
  return compiled;
}

void RunNative(engines::NativeEngine& engine,
               const xquery::plan::CompiledQuery& compiled,
               bool collect_plan_stats, bool profile,
               ExecutionResult& result) {
  xquery::exec::ExecStats scratch;
  xquery::exec::ExecStats* stats =
      collect_plan_stats || profile ? &result.plan_stats : &scratch;
  // The result points into cached documents that a concurrent ColdRestart
  // or mutation frees, so the collection lock stays shared until the
  // answer is serialized.
  ReaderLock lock(engine.collection_mu());
  // No session-level index hint here: access-path selection (including
  // index probes and the document prefilter) is the planner's job now;
  // the compiled plan carries its choices.
  Stopwatch engine_watch;
  auto query_result = engine.ExecutePlanLocked(compiled, stats);
  const double engine_millis = engine_watch.ElapsedMillis();
  if (!query_result.ok()) {
    result.status = query_result.status();
    return;
  }
  Stopwatch serialize_watch;
  result.lines = SplitLines(query_result->ToText());
  result.compiled = true;
  result.access_path = compiled.logical.access_path_summary;
  if (profile) {
    result.profile.collected = true;
    result.profile.engine_millis = engine_millis;
    result.profile.exec_millis = stats->total_millis;
    result.profile.serialize_millis = serialize_watch.ElapsedMillis();
  }
}

}  // namespace

Session::Session(engines::XmlDbms& engine, datagen::DbClass db_class,
                 QueryParams params, std::string name)
    : engine_(&engine),
      db_class_(db_class),
      params_(std::move(params)),
      name_(std::move(name)) {}

ExecutionResult Session::Run(QueryId id, const RunOptions& options) {
  return Run(id, params_, options);
}

ExecutionResult Session::Run(QueryId id, const QueryParams& params,
                             const RunOptions& options) {
  engines::XmlDbms& engine = *engine_;
  if (options.cold) engine.ColdRestart();
  // Native-path compile phase (parse + schema analysis + plan build, or a
  // plan-cache hit), outside the timed region. Analysis failures are hard
  // errors: a canned query that names an element the class DTD cannot
  // produce must not report a (fast, empty) success. ColdRestart above does
  // not touch the plan cache, so cold runs still hit compiled plans — the
  // statement cache survives a buffer-pool flush.
  std::shared_ptr<const xquery::plan::CompiledQuery> native_plan;
  bool native_cache_hit = false;
  QueryProfile profile;
  if (engine.kind() == EngineKind::kNative) {
    obs::ScopedSpan compile_span(
        obs::Tracer::Default().enabled()
            ? std::string("phase.compile.") + QueryName(id)
            : std::string());
    auto prepared = PrepareNativePlan(
        static_cast<engines::NativeEngine&>(engine), id, db_class_, params,
        options.compile, &native_cache_hit,
        options.profile ? &profile : nullptr);
    if (!prepared.ok()) {
      ExecutionResult failed;
      failed.status = prepared.status();
      ++stats_.queries_run;
      ++stats_.failures;
      return failed;
    }
    native_plan = std::move(prepared).value();
  }
  obs::ScopedClockSource clock_scope(engine.disk().clock());
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::ScopedSpan span(tracer.enabled()
                           ? std::string("query.") + QueryName(id) + "." +
                                 engine.name()
                           : std::string(),
                       tracer);
  ExecutionResult result;
  // Timed region. The I/O side is attributed per-thread, so a concurrent
  // session's page reads — or a ColdRestart it issues — never land in this
  // statement's delta.
  const IoStats io_before = ThreadIoSnapshot();
  const double io_millis_before = ThreadIoMillis();
  Stopwatch wall;
  switch (engine.kind()) {
    case EngineKind::kNative: {
      auto& native = static_cast<engines::NativeEngine&>(engine);
      result.profile = profile;
      RunNative(native, *native_plan, options.collect_plan_stats,
                options.profile, result);
      result.plan_cache_hit = native_cache_hit;
      break;
    }
    case EngineKind::kClob: {
      // CLOB statements issue several engine calls (side-table filter,
      // CLOB fetch, reconstruction); hold the collection lock shared so a
      // concurrent mutation cannot land mid-statement.
      ReaderLock lock(engine.collection_mu());
      auto lines =
          RunClobQuery(static_cast<engines::ClobEngine&>(engine), id, params);
      if (lines.ok()) {
        result.lines = std::move(lines).value();
      } else {
        result.status = lines.status();
      }
      break;
    }
    case EngineKind::kShredDb2:
    case EngineKind::kShredMsSql: {
      ReaderLock lock(engine.collection_mu());
      auto lines = RunShredQuery(static_cast<engines::ShredEngine&>(engine),
                                 id, params);
      if (lines.ok()) {
        result.lines = std::move(lines).value();
      } else {
        result.status = lines.status();
      }
      break;
    }
  }
  result.cpu_millis = wall.ElapsedMillis();
  result.io_millis = ThreadIoMillis() - io_millis_before;
  result.io = IoStatsDelta(io_before, ThreadIoSnapshot());
  ++stats_.queries_run;
  if (!result.status.ok()) ++stats_.failures;
  stats_.cpu_millis += result.cpu_millis;
  stats_.io_millis += result.io_millis;
  stats_.io.pool_hits += result.io.pool_hits;
  stats_.io.pool_misses += result.io.pool_misses;
  stats_.io.pool_evictions += result.io.pool_evictions;
  stats_.io.pool_writebacks += result.io.pool_writebacks;
  stats_.io.disk_page_reads += result.io.disk_page_reads;
  stats_.io.disk_page_writes += result.io.disk_page_writes;
  stats_.io.disk_bytes_read += result.io.disk_bytes_read;
  stats_.io.disk_bytes_written += result.io.disk_bytes_written;
  return result;
}

}  // namespace xbench::workload
