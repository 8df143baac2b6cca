#include "harness/driver.h"

#include <cstdio>
#include <tuple>

#include "harness/scale.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workload/classes.h"
#include "workload/session.h"

namespace xbench::harness {

using datagen::DbClass;
using workload::Scale;

const datagen::GeneratedDatabase& Driver::Database(DbClass db_class,
                                                   Scale scale) {
  const auto key =
      std::make_pair(static_cast<int>(db_class), static_cast<int>(scale));
  auto it = databases_.find(key);
  if (it != databases_.end()) return it->second;
  datagen::GenConfig config;
  config.target_bytes = TargetBytes(scale);
  config.seed = BenchSeed();
  auto [inserted, ok] =
      databases_.emplace(key, datagen::Generate(db_class, config));
  return inserted->second;
}

Driver::LoadedEngine& Driver::Loaded(engines::EngineKind kind,
                                     DbClass db_class, Scale scale) {
  const auto key = std::make_tuple(static_cast<int>(kind),
                                   static_cast<int>(db_class),
                                   static_cast<int>(scale));
  auto it = engines_.find(key);
  if (it != engines_.end()) return it->second;

  LoadedEngine loaded;
  loaded.engine = workload::MakeEngine(kind);
  const datagen::GeneratedDatabase& db = Database(db_class, scale);
  workload::TimedStatus timed = workload::BulkLoad(*loaded.engine, db);
  loaded.load_status = timed.status;
  loaded.load_cpu_millis = timed.cpu_millis;
  loaded.load_io_millis = timed.io_millis;
  loaded.load_io = timed.io;
  if (loaded.load_status.ok()) {
    Status index_status =
        workload::CreateTable3Indexes(*loaded.engine, db_class);
    if (!index_status.ok()) loaded.load_status = index_status;
  }
  auto [inserted, ok] = engines_.emplace(key, std::move(loaded));
  return inserted->second;
}

ResultTable Driver::BulkLoadTable() {
  ResultTable table("Table 4: Bulk Loading Time (seconds)");
  for (engines::EngineKind kind : workload::AllEngines()) {
    std::vector<std::string> cells;
    for (DbClass db_class : workload::AllClasses()) {
      for (Scale scale : workload::AllScales()) {
        LoadedEngine& loaded = Loaded(kind, db_class, scale);
        cells.push_back(loaded.load_status.ok()
                            ? FormatSeconds(loaded.LoadMillis())
                            : "-");
      }
    }
    table.AddRow(engines::EngineKindName(kind), cells);
  }
  return table;
}

ResultTable Driver::QueryTable(workload::QueryId id) {
  ResultTable table(std::string("Query ") + workload::QueryName(id) +
                    " Execution Time (milliseconds)");
  for (engines::EngineKind kind : workload::AllEngines()) {
    std::vector<std::string> cells;
    for (DbClass db_class : workload::AllClasses()) {
      for (Scale scale : workload::AllScales()) {
        LoadedEngine& loaded = Loaded(kind, db_class, scale);
        if (!loaded.load_status.ok()) {
          cells.push_back("-");
          continue;
        }
        const datagen::GeneratedDatabase& scale_db =
            Database(db_class, scale);
        workload::Session session(
            *loaded.engine, db_class,
            workload::DeriveParams(db_class, scale_db.seeds), "table");
        workload::ExecutionResult result = session.Run(id);
        cells.push_back(result.status.ok()
                            ? FormatMillis(result.TotalMillis())
                            : "-");
      }
    }
    table.AddRow(engines::EngineKindName(kind), cells);
  }
  return table;
}

namespace {

void WriteIoStats(obs::JsonWriter& writer, const workload::IoStats& io) {
  writer.Key("pool")
      .BeginObject()
      .Key("hits")
      .Uint(io.pool_hits)
      .Key("misses")
      .Uint(io.pool_misses)
      .Key("evictions")
      .Uint(io.pool_evictions)
      .Key("writebacks")
      .Uint(io.pool_writebacks)
      .EndObject();
  writer.Key("disk")
      .BeginObject()
      .Key("page_reads")
      .Uint(io.disk_page_reads)
      .Key("page_writes")
      .Uint(io.disk_page_writes)
      .Key("bytes_read")
      .Uint(io.disk_bytes_read)
      .Key("bytes_written")
      .Uint(io.disk_bytes_written)
      .EndObject();
}

std::string HexHash(uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

std::string Driver::JsonReport(const ReportOptions& options) {
  using workload::QueryId;
  const std::vector<QueryId> queries =
      options.queries.empty()
          ? std::vector<QueryId>{QueryId::kQ5, QueryId::kQ8, QueryId::kQ12,
                                 QueryId::kQ14, QueryId::kQ17}
          : options.queries;
  const std::vector<Scale> scales = options.scales.empty()
                                        ? std::vector<Scale>{Scale::kSmall}
                                        : options.scales;

  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("benchmark").String("xbench");
  writer.Key("seed").Uint(BenchSeed());
  writer.Key("scales").BeginArray();
  for (Scale scale : scales) {
    writer.BeginObject()
        .Key("name")
        .String(workload::ScaleName(scale))
        .Key("target_bytes")
        .Uint(TargetBytes(scale))
        .EndObject();
  }
  writer.EndArray();

  writer.Key("cells").BeginArray();
  for (engines::EngineKind kind : workload::AllEngines()) {
    for (DbClass db_class : workload::AllClasses()) {
      for (Scale scale : scales) {
        LoadedEngine& loaded = Loaded(kind, db_class, scale);
        writer.BeginObject();
        writer.Key("engine").String(engines::EngineKindName(kind));
        writer.Key("class").String(datagen::DbClassName(db_class));
        writer.Key("scale").String(workload::ScaleName(scale));
        writer.Key("instance").String(
            workload::InstanceName(db_class, scale));
        writer.Key("load").BeginObject();
        writer.Key("supported").Bool(loaded.load_status.ok());
        if (loaded.load_status.ok()) {
          writer.Key("cpu_millis").Number(loaded.load_cpu_millis);
          writer.Key("io_millis").Number(loaded.load_io_millis);
          WriteIoStats(writer, loaded.load_io);
        } else {
          writer.Key("error").String(loaded.load_status.ToString());
        }
        writer.EndObject();
        if (loaded.load_status.ok()) {
          const datagen::GeneratedDatabase& db = Database(db_class, scale);
          workload::Session session(
              *loaded.engine, db_class,
              workload::DeriveParams(db_class, db.seeds), "report");
          writer.Key("queries").BeginArray();
          for (QueryId id : queries) {
            workload::RunOptions run_options;
            run_options.profile = options.profile;
            run_options.compile.access_path = options.access_path;
            workload::ExecutionResult result = session.Run(id, run_options);
            writer.BeginObject();
            writer.Key("query").String(workload::QueryName(id));
            writer.Key("supported").Bool(result.status.ok());
            if (result.status.ok()) {
              writer.Key("cpu_millis").Number(result.cpu_millis);
              writer.Key("io_millis").Number(result.io_millis);
              const std::vector<std::string> canonical =
                  workload::CanonicalizeAnswer(id, result.lines);
              writer.Key("answer_lines").Uint(canonical.size());
              writer.Key("answer_hash")
                  .String(HexHash(workload::AnswerHash(canonical)));
              WriteIoStats(writer, result.io);
              if (result.profile.collected) {
                const workload::QueryProfile& profile = result.profile;
                writer.Key("profile").BeginObject();
                writer.Key("parse_millis").Number(profile.parse_millis);
                writer.Key("analyze_millis").Number(profile.analyze_millis);
                writer.Key("plan_millis").Number(profile.plan_millis);
                writer.Key("compile_cache_hit")
                    .Bool(profile.compile_cache_hit);
                writer.Key("engine_millis").Number(profile.engine_millis);
                writer.Key("exec_millis").Number(profile.exec_millis);
                writer.Key("serialize_millis")
                    .Number(profile.serialize_millis);
                writer.EndObject();
              }
              if (result.compiled) {
                const xquery::exec::ExecStats& plan_stats = result.plan_stats;
                writer.Key("plan").BeginObject();
                writer.Key("compiled").Bool(true);
                writer.Key("cache_hit").Bool(result.plan_cache_hit);
                writer.Key("access_path").String(result.access_path);
                writer.Key("operators").BeginArray();
                for (const xquery::exec::OperatorStats& op :
                     plan_stats.operators) {
                  writer.BeginObject()
                      .Key("op")
                      .String(op.label)
                      .Key("depth")
                      .Uint(static_cast<uint64_t>(op.depth))
                      .Key("rows_out")
                      .Uint(op.rows_out)
                      .Key("invocations")
                      .Uint(op.invocations)
                      .Key("millis")
                      .Number(op.millis)
                      .Key("self_millis")
                      .Number(op.self_millis);
                  // Cost-model estimate next to the measured rows, so the
                  // report shows estimated-vs-actual for chosen probes.
                  if (op.estimated_rows >= 0) {
                    writer.Key("estimated_rows").Number(op.estimated_rows);
                  }
                  writer.EndObject();
                }
                writer.EndArray();
                writer.EndObject();
              }
            } else {
              writer.Key("error").String(result.status.ToString());
            }
            writer.EndObject();
          }
          writer.EndArray();
        }
        writer.EndObject();
      }
    }
  }
  writer.EndArray();

  writer.Key("metrics");
  obs::MetricsRegistry::Default().WriteJson(writer);
  writer.EndObject();
  return writer.TakeString();
}

Status Driver::WriteJsonReport(const std::string& path,
                               const ReportOptions& options) {
  return obs::WriteFile(path, JsonReport(options));
}

std::string Driver::IndexTable() const {
  std::string out = "\n== Table 3: Indexes for Each Class ==\n";
  for (DbClass db_class : workload::AllClasses()) {
    out += std::string(datagen::DbClassName(db_class)) + ": ";
    bool first = true;
    for (const engines::IndexSpec& spec : workload::Table3Indexes(db_class)) {
      if (!first) out += ", ";
      out += spec.path;
      first = false;
    }
    out += "\n";
  }
  return out;
}

}  // namespace xbench::harness
