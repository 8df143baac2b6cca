// Validates that each file named on the command line is non-empty,
// well-formed JSON. With --schema report it additionally checks that the
// file matches the harness driver's run-report structure (see
// Driver::JsonReport), including the per-operator "plan" section emitted
// for compiled-plan executions and the per-query "profile" phase
// breakdown (where it checks that operator self times sum to the
// profiled execution time within 5%); with --schema throughput it checks
// the bench_throughput XBENCH_REPORT document (the multi-client MPL
// sweep, see harness::WriteJson in harness/throughput.cc); with
// --schema trace it checks a Chrome trace-event document written by
// obs::Tracer::ToChromeJson (balanced B/E spans per lane, well-formed
// metadata events). Used by the quickstart_obs, bench_query_report,
// bench_throughput_report and trace-validation ctest cases.
//
// The underlying parser (obs::ParseJson) is fuzzed continuously via
// fuzz/fuzz_json.cc; malformed input — unterminated strings, non-finite
// number literals like 1e999, pathological nesting — comes back as a
// Status, so this tool reports it rather than crashing on it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "obs/json.h"

namespace {

using xbench::Status;
using xbench::obs::JsonValue;

Status SchemaError(const std::string& what) {
  return Status::Corruption("report schema: " + what);
}

Status RequireString(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_string()) {
    return SchemaError(std::string("missing string \"") + key + "\"");
  }
  return Status::Ok();
}

Status RequireNumber(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    return SchemaError(std::string("missing number \"") + key + "\"");
  }
  return Status::Ok();
}

xbench::Result<bool> RequireBool(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_bool()) {
    return SchemaError(std::string("missing bool \"") + key + "\"");
  }
  return value->boolean;
}

/// Per-operator counters attached to a compiled-plan query entry. Sums
/// the operators' self times into `self_millis_sum` for the profile
/// consistency check.
Status CheckPlan(const JsonValue& plan, size_t* operators_seen,
                 double* self_millis_sum) {
  if (!plan.is_object()) return SchemaError("\"plan\" is not an object");
  XBENCH_RETURN_IF_ERROR(RequireBool(plan, "compiled").status());
  XBENCH_RETURN_IF_ERROR(RequireBool(plan, "cache_hit").status());
  // The access-path decision summary (e.g. "IndexScan(item/@id = …)",
  // "guided-walk", "full-scan") is part of every compiled plan entry.
  XBENCH_RETURN_IF_ERROR(RequireString(plan, "access_path"));
  const JsonValue* operators = plan.Find("operators");
  if (operators == nullptr || !operators->is_array()) {
    return SchemaError("\"plan\" lacks an \"operators\" array");
  }
  if (operators->items.empty()) {
    return SchemaError("\"operators\" is empty — a compiled plan has at "
                       "least a root operator");
  }
  for (const JsonValue& op : operators->items) {
    if (!op.is_object()) return SchemaError("operator entry is not an object");
    XBENCH_RETURN_IF_ERROR(RequireString(op, "op"));
    for (const char* key :
         {"rows_out", "invocations", "millis", "depth", "self_millis"}) {
      XBENCH_RETURN_IF_ERROR(RequireNumber(op, key));
    }
    // Index-probe operators carry the planner's cardinality estimate so
    // reports can show estimated vs actual rows; absent elsewhere.
    if (const JsonValue* estimate = op.Find("estimated_rows")) {
      if (!estimate->is_number() || estimate->number < 0) {
        return SchemaError("\"estimated_rows\" is not a non-negative number");
      }
    }
    *self_millis_sum += op.Find("self_millis")->number;
  }
  *operators_seen += operators->items.size();
  return Status::Ok();
}

/// The per-phase execution profile emitted under --profile. Cross-checks
/// the profiled execution time against the plan's per-operator self
/// times: the self times partition the operator tree's inclusive root
/// time, so their sum must equal exec_millis within 5% (plus a small
/// absolute floor for sub-millisecond runs where timer granularity
/// dominates). The self times telescope exactly whether or not regions
/// went wide (see the OperatorStats note in exec.h), so one tolerance
/// covers every plan.
Status CheckProfile(const JsonValue& profile, double plan_self_millis,
                    bool has_plan, size_t* profiles_seen) {
  if (!profile.is_object()) return SchemaError("\"profile\" is not an object");
  for (const char* key :
       {"parse_millis", "analyze_millis", "plan_millis", "engine_millis",
        "exec_millis", "serialize_millis"}) {
    XBENCH_RETURN_IF_ERROR(RequireNumber(profile, key));
  }
  XBENCH_RETURN_IF_ERROR(RequireBool(profile, "compile_cache_hit").status());
  if (has_plan) {
    const double exec = profile.Find("exec_millis")->number;
    const double tolerance = std::max(0.05 * exec, 0.5);
    if (std::fabs(plan_self_millis - exec) > tolerance) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "operator self times sum to %.3fms but profile "
                    "exec_millis is %.3fms (tolerance %.3fms)",
                    plan_self_millis, exec, tolerance);
      return SchemaError(buf);
    }
  }
  ++*profiles_seen;
  return Status::Ok();
}

Status CheckQuery(const JsonValue& query, size_t* operators_seen,
                  size_t* profiles_seen) {
  if (!query.is_object()) return SchemaError("query entry is not an object");
  XBENCH_RETURN_IF_ERROR(RequireString(query, "query"));
  XBENCH_ASSIGN_OR_RETURN(bool supported, RequireBool(query, "supported"));
  if (!supported) return RequireString(query, "error");
  XBENCH_RETURN_IF_ERROR(RequireNumber(query, "cpu_millis"));
  XBENCH_RETURN_IF_ERROR(RequireNumber(query, "io_millis"));
  XBENCH_RETURN_IF_ERROR(RequireNumber(query, "answer_lines"));
  XBENCH_RETURN_IF_ERROR(RequireString(query, "answer_hash"));
  const JsonValue* plan = query.Find("plan");
  double self_millis_sum = 0;
  if (plan != nullptr) {
    XBENCH_RETURN_IF_ERROR(CheckPlan(*plan, operators_seen, &self_millis_sum));
  }
  if (const JsonValue* profile = query.Find("profile")) {
    XBENCH_RETURN_IF_ERROR(CheckProfile(*profile, self_millis_sum,
                                        plan != nullptr, profiles_seen));
  }
  return Status::Ok();
}

Status CheckCell(const JsonValue& cell, size_t* queries_seen,
                 size_t* operators_seen, size_t* profiles_seen) {
  if (!cell.is_object()) return SchemaError("cell entry is not an object");
  for (const char* key : {"engine", "class", "scale", "instance"}) {
    XBENCH_RETURN_IF_ERROR(RequireString(cell, key));
  }
  const JsonValue* load = cell.Find("load");
  if (load == nullptr || !load->is_object()) {
    return SchemaError("cell lacks a \"load\" object");
  }
  XBENCH_ASSIGN_OR_RETURN(bool load_supported, RequireBool(*load, "supported"));
  if (!load_supported) return RequireString(*load, "error");
  XBENCH_RETURN_IF_ERROR(RequireNumber(*load, "cpu_millis"));
  XBENCH_RETURN_IF_ERROR(RequireNumber(*load, "io_millis"));
  const JsonValue* queries = cell.Find("queries");
  if (queries == nullptr || !queries->is_array()) {
    return SchemaError("loaded cell lacks a \"queries\" array");
  }
  for (const JsonValue& query : queries->items) {
    XBENCH_RETURN_IF_ERROR(CheckQuery(query, operators_seen, profiles_seen));
  }
  *queries_seen += queries->items.size();
  return Status::Ok();
}

/// Validates one Driver::JsonReport document; on success reports how many
/// cells/queries/plan operators it covered so the ctest log shows the
/// check saw real content.
Status CheckReport(const JsonValue& root, std::string* summary) {
  if (!root.is_object()) return SchemaError("root is not an object");
  const JsonValue* benchmark = root.Find("benchmark");
  if (benchmark == nullptr || !benchmark->is_string() ||
      benchmark->string != "xbench") {
    return SchemaError("\"benchmark\" is not the string \"xbench\"");
  }
  XBENCH_RETURN_IF_ERROR(RequireNumber(root, "seed"));
  const JsonValue* scales = root.Find("scales");
  if (scales == nullptr || !scales->is_array() || scales->items.empty()) {
    return SchemaError("missing non-empty \"scales\" array");
  }
  for (const JsonValue& scale : scales->items) {
    if (!scale.is_object()) return SchemaError("scale entry is not an object");
    XBENCH_RETURN_IF_ERROR(RequireString(scale, "name"));
    XBENCH_RETURN_IF_ERROR(RequireNumber(scale, "target_bytes"));
  }
  const JsonValue* cells = root.Find("cells");
  if (cells == nullptr || !cells->is_array() || cells->items.empty()) {
    return SchemaError("missing non-empty \"cells\" array");
  }
  size_t queries_seen = 0;
  size_t operators_seen = 0;
  size_t profiles_seen = 0;
  for (const JsonValue& cell : cells->items) {
    XBENCH_RETURN_IF_ERROR(
        CheckCell(cell, &queries_seen, &operators_seen, &profiles_seen));
  }
  const JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return SchemaError("missing \"metrics\" object");
  }
  if (operators_seen == 0) {
    return SchemaError("no compiled-plan operator stats anywhere in the "
                       "report — the native engine should emit them");
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%zu cells, %zu queries, %zu plan operators, %zu profiles",
                cells->items.size(), queries_seen, operators_seen,
                profiles_seen);
  *summary = buf;
  return Status::Ok();
}

/// Validates one bench_throughput XBENCH_REPORT document: the serial
/// baseline answers plus one result row per multiprogramming level, with
/// the metrics snapshot alongside. Mirrors harness::WriteJson plus the
/// wrapper object bench_throughput.cc emits around it.
Status CheckThroughputReport(const JsonValue& root, std::string* summary) {
  if (!root.is_object()) return SchemaError("root is not an object");
  const JsonValue* benchmark = root.Find("benchmark");
  if (benchmark == nullptr || !benchmark->is_string() ||
      benchmark->string != "xbench_throughput") {
    return SchemaError(
        "\"benchmark\" is not the string \"xbench_throughput\"");
  }
  const JsonValue* throughput = root.Find("throughput");
  if (throughput == nullptr || !throughput->is_object()) {
    return SchemaError("missing \"throughput\" object");
  }
  for (const char* key : {"engine", "class", "scale"}) {
    XBENCH_RETURN_IF_ERROR(RequireString(*throughput, key));
  }
  XBENCH_RETURN_IF_ERROR(
      RequireBool(*throughput, "answers_match_serial").status());
  const JsonValue* baseline = throughput->Find("baseline");
  if (baseline == nullptr || !baseline->is_array() ||
      baseline->items.empty()) {
    return SchemaError("missing non-empty \"baseline\" array — the serial "
                       "pass always records its answers");
  }
  for (const JsonValue& answer : baseline->items) {
    if (!answer.is_object()) {
      return SchemaError("baseline entry is not an object");
    }
    XBENCH_RETURN_IF_ERROR(RequireString(answer, "query"));
    XBENCH_RETURN_IF_ERROR(RequireNumber(answer, "answer_hash"));
    XBENCH_RETURN_IF_ERROR(RequireNumber(answer, "answer_lines"));
  }
  XBENCH_RETURN_IF_ERROR(RequireNumber(*throughput, "slo_p99_millis"));
  XBENCH_RETURN_IF_ERROR(RequireBool(*throughput, "slo_satisfied").status());
  const JsonValue* mpls = throughput->Find("mpls");
  if (mpls == nullptr || !mpls->is_array() || mpls->items.empty()) {
    return SchemaError("missing non-empty \"mpls\" array");
  }
  for (const JsonValue& row : mpls->items) {
    if (!row.is_object()) return SchemaError("mpl entry is not an object");
    for (const char* key :
         {"mpl", "ops", "failures", "hash_mismatches", "wall_millis", "qps",
          "mean_millis", "p50_millis", "p90_millis", "p99_millis",
          "p999_millis"}) {
      XBENCH_RETURN_IF_ERROR(RequireNumber(row, key));
    }
    XBENCH_RETURN_IF_ERROR(RequireBool(row, "slo_ok").status());
  }
  const JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return SchemaError("missing \"metrics\" object");
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zu baseline queries, %zu MPL rows",
                baseline->items.size(), mpls->items.size());
  *summary = buf;
  return Status::Ok();
}

/// Validates one Chrome trace-event document written by
/// obs::Tracer::ToChromeJson: a non-empty "traceEvents" array whose
/// entries are B (span begin, named), E (span end) or M (metadata)
/// events, with B/E balanced per (pid, tid) lane — every span that opens
/// closes, and no lane ends more spans than it began.
Status CheckTrace(const JsonValue& root, std::string* summary) {
  if (!root.is_object()) return SchemaError("root is not an object");
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array() || events->items.empty()) {
    return SchemaError("missing non-empty \"traceEvents\" array");
  }
  std::map<std::pair<double, double>, long> depth_by_lane;
  size_t spans = 0;
  size_t metadata = 0;
  for (const JsonValue& event : events->items) {
    if (!event.is_object()) return SchemaError("event is not an object");
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return SchemaError("event lacks a string \"ph\"");
    }
    XBENCH_RETURN_IF_ERROR(RequireNumber(event, "pid"));
    XBENCH_RETURN_IF_ERROR(RequireNumber(event, "tid"));
    const auto lane = std::make_pair(event.Find("pid")->number,
                                     event.Find("tid")->number);
    if (ph->string == "M") {
      XBENCH_RETURN_IF_ERROR(RequireString(event, "name"));
      const JsonValue* args = event.Find("args");
      if (args == nullptr || !args->is_object()) {
        return SchemaError("metadata event lacks an \"args\" object");
      }
      XBENCH_RETURN_IF_ERROR(RequireString(*args, "name"));
      ++metadata;
    } else if (ph->string == "B") {
      XBENCH_RETURN_IF_ERROR(RequireString(event, "name"));
      XBENCH_RETURN_IF_ERROR(RequireString(event, "cat"));
      XBENCH_RETURN_IF_ERROR(RequireNumber(event, "ts"));
      ++depth_by_lane[lane];
      ++spans;
    } else if (ph->string == "E") {
      XBENCH_RETURN_IF_ERROR(RequireNumber(event, "ts"));
      if (--depth_by_lane[lane] < 0) {
        return SchemaError("\"E\" event without a matching \"B\" on its "
                           "lane");
      }
    } else {
      return SchemaError("unknown event phase \"" + ph->string + "\"");
    }
  }
  for (const auto& [lane, depth] : depth_by_lane) {
    if (depth != 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "lane tid=%g has %ld unclosed span%s", lane.second, depth,
                    depth == 1 ? "" : "s");
      return SchemaError(buf);
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zu spans, %zu lanes, %zu metadata events",
                spans, depth_by_lane.size(), metadata);
  *summary = buf;
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  bool schema_report = false;
  bool schema_throughput = false;
  bool schema_trace = false;
  int first_file = 1;
  if (argc >= 3 && std::strcmp(argv[1], "--schema") == 0) {
    if (std::strcmp(argv[2], "report") == 0) {
      schema_report = true;
    } else if (std::strcmp(argv[2], "throughput") == 0) {
      schema_throughput = true;
    } else if (std::strcmp(argv[2], "trace") == 0) {
      schema_trace = true;
    } else {
      std::fprintf(stderr, "json_check: unknown schema '%s'\n", argv[2]);
      return 1;
    }
    first_file = 3;
  }
  if (first_file >= argc) {
    std::fprintf(
        stderr,
        "usage: json_check [--schema report|throughput|trace] FILE...\n");
    return 1;
  }
  int failures = 0;
  for (int i = first_file; i < argc; ++i) {
    auto contents = xbench::obs::ReadFile(argv[i]);
    if (!contents.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i],
                   contents.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (contents->empty()) {
      std::fprintf(stderr, "%s: empty file\n", argv[i]);
      ++failures;
      continue;
    }
    auto parsed = xbench::obs::ParseJson(*contents);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i],
                   parsed.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::string summary;
    if (schema_report || schema_throughput || schema_trace) {
      xbench::Status valid =
          schema_report
              ? CheckReport(*parsed, &summary)
              : (schema_throughput ? CheckThroughputReport(*parsed, &summary)
                                   : CheckTrace(*parsed, &summary));
      if (!valid.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[i], valid.ToString().c_str());
        ++failures;
        continue;
      }
    }
    if (summary.empty()) {
      std::printf("%s: ok (%zu bytes)\n", argv[i], contents->size());
    } else {
      std::printf("%s: ok (%zu bytes; %s)\n", argv[i], contents->size(),
                  summary.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}
