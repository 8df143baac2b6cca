// xqlint: static schema analysis of the XBench canned queries.
//
// For each selected database class, builds the canonical class schema
// (DTD inferred from a deterministic sample database, plus instance
// statistics), then parses and analyzes every selected query, printing an
// explain-style report: diagnostics, per-path cardinality classes, and
// the concrete child chains each `//` step resolves to (the paper's §2.2
// "unknown steps", Q8/Q9).
//
// With --explain, each analyzed query is additionally compiled through the
// query planner (guided walks on, statistics-based pruning on — the
// statistics here describe exactly the sample database the schema came
// from) and the logical + physical plan trees are printed. The rendering
// is deterministic; the xqlint_explain_snapshots test diffs it against
// tools/golden/xqlint_explain.txt.
//
// With --explain --profile, each compiled plan is additionally *executed*
// over the canonical sample database (the one the schema was inferred
// from, see analysis::CanonicalSampleConfig) and an EXPLAIN ANALYZE-style
// per-operator table is printed: rows out, invocations, inclusive and
// self time per operator.
//
// With --explain --indexes, the canonical sample database is loaded into
// a native engine, the class's Table 3 value indexes plus a text index
// are created, and each query compiles cost-based (AccessPathMode::kAuto)
// against the engine's index catalog; an "access-path:" line shows the
// planner's decision for each query. The rendering is deterministic and
// diffed against tools/golden/xqlint_explain_indexes.txt by the
// xqlint_explain_index_snapshots test.
//
// With --verify, every selected query is compiled under all four access-
// path modes (Auto, ForceGuided, ForceScan, ForceIndex — the first and
// last cost-based against the class's Table 3 + text index catalog),
// each compile running the static plan verifier (xquery/verify,
// DESIGN.md §14). Any contract violation fails the run and prints the
// structured diagnostics; the per-operator properties derived for the
// Auto plan are printed and diffed against tools/golden/xqlint_verify.txt
// by the plan_verify_all test.
//
// Usage:
//   xqlint [--class TC/SD|TC/MD|DC/SD|DC/MD|all] [--query Q1..Q20|all]
//          [--verbose] [--explain] [--profile] [--indexes] [--verify]
//
// Exit status: 0 when every selected query parses and has no error
// diagnostics (and, under --explain, compiles and — with --profile —
// executes); 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/class_schemas.h"
#include "datagen/generator.h"
#include "engines/native_engine.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "xquery/evaluator.h"
#include "xquery/exec/exec.h"
#include "xquery/parser.h"
#include "xquery/plan/cache.h"
#include "xquery/plan/catalog.h"
#include "xquery/verify/verifier.h"

namespace {

using xbench::analysis::AnalysisReport;
using xbench::analysis::Analyze;
using xbench::analysis::CanonicalClassSchema;
using xbench::analysis::ClassSchema;
using xbench::datagen::DbClass;
using xbench::workload::DeriveParams;
using xbench::workload::QueryId;
using xbench::workload::QueryName;
using xbench::workload::QueryParams;
using xbench::workload::XQueryFor;

constexpr DbClass kAllClasses[] = {DbClass::kTcSd, DbClass::kTcMd,
                                   DbClass::kDcSd, DbClass::kDcMd};
constexpr int kQueryCount = 20;

bool ParseClass(const std::string& text, std::vector<DbClass>& out) {
  if (text == "all") {
    out.assign(std::begin(kAllClasses), std::end(kAllClasses));
    return true;
  }
  for (DbClass cls : kAllClasses) {
    if (text == xbench::datagen::DbClassName(cls)) {
      out = {cls};
      return true;
    }
  }
  return false;
}

bool ParseQueryArg(const std::string& text, std::vector<QueryId>& out) {
  if (text == "all") {
    out.clear();
    for (int i = 0; i < kQueryCount; ++i) {
      out.push_back(static_cast<QueryId>(i));
    }
    return true;
  }
  for (int i = 0; i < kQueryCount; ++i) {
    const auto id = static_cast<QueryId>(i);
    if (text == QueryName(id)) {
      out = {id};
      return true;
    }
  }
  return false;
}

/// Lints one (class, query) cell. Returns false on parse failure or error
/// diagnostics. Undefined cells (empty query text) are skipped silently
/// unless verbose.
bool LintOne(DbClass cls, QueryId id, const ClassSchema& schema,
             const QueryParams& params, bool verbose) {
  const std::string xquery =
      XQueryFor(id, cls, params);
  if (xquery.empty()) {
    if (verbose) {
      std::printf("  %-4s (not defined for this class)\n", QueryName(id));
    }
    return true;
  }
  auto parsed = xbench::xquery::ParseQuery(xquery);
  if (!parsed.ok()) {
    std::printf("  %-4s PARSE ERROR: %s\n", QueryName(id),
                parsed.status().ToString().c_str());
    return false;
  }
  AnalysisReport report = Analyze(**parsed, schema.Context());
  const bool clean = report.diagnostics.empty();
  if (verbose || !clean) {
    std::printf("  %-4s %s", QueryName(id),
                report.HasErrors() ? "FAIL"
                                   : (clean ? "ok" : "ok (warnings)"));
    if (report.resolved_steps > 0) {
      std::printf("  [%d // step%s resolved]", report.resolved_steps,
                  report.resolved_steps == 1 ? "" : "s");
    }
    std::printf("\n");
    std::printf("%s", report.ToString().c_str());
  }
  return !report.HasErrors();
}

/// Prefixes every line of a plan rendering for nesting under the query
/// header.
void PrintIndented(const std::string& text) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::printf("    %.*s\n", static_cast<int>(end - start),
                text.c_str() + start);
    start = end + 1;
  }
}

/// Runs `compiled` over the canonical sample database and prints the
/// per-operator profile (xqlint --explain --profile).
bool ProfileOne(QueryId id, const xbench::xquery::plan::CompiledQuery& compiled,
                const xbench::datagen::GeneratedDatabase& sample_db) {
  xbench::xquery::Sequence input;
  input.reserve(sample_db.documents.size());
  for (const auto& doc : sample_db.documents) {
    input.push_back(xbench::xquery::Item::Node(doc.dom.root()));
  }
  xbench::xquery::Bindings bindings;
  bindings["input"] = std::move(input);
  xbench::xquery::EvalOptions options;
  options.use_step_expansions = true;
  xbench::xquery::exec::ExecStats stats;
  auto result = xbench::xquery::exec::Execute(compiled.physical, bindings,
                                              options, &stats);
  if (!result.ok()) {
    std::printf("  %-4s EXEC ERROR: %s\n", QueryName(id),
                result.status().ToString().c_str());
    return false;
  }
  std::printf("   profile (sample db, %zu items out, %.3fms):\n",
              result->items.size(), stats.total_millis);
  std::printf("    %-42s %10s %8s %10s %10s\n", "operator", "rows", "calls",
              "millis", "self_ms");
  for (const xbench::xquery::exec::OperatorStats& op : stats.operators) {
    std::string label(static_cast<size_t>(op.depth) * 2, ' ');
    label += op.label;
    std::printf("    %-42s %10llu %8llu %10.3f %10.3f\n", label.c_str(),
                static_cast<unsigned long long>(op.rows_out),
                static_cast<unsigned long long>(op.invocations), op.millis,
                op.self_millis);
  }
  return true;
}

/// Explains one (class, query) cell: analyzes, compiles with guided walks
/// and statistics-based pruning enabled (sound here — the statistics
/// describe exactly the sample database the schema was inferred from),
/// and prints the logical and physical plan trees. With `catalog`
/// non-null the compile is cost-based (kAuto) against that index catalog
/// and the access-path decision is printed. With `sample_db` non-null the
/// plan is also executed over it and profiled.
bool ExplainOne(DbClass cls, QueryId id, const ClassSchema& schema,
                const QueryParams& params,
                const xbench::xquery::plan::IndexCatalog* catalog,
                const xbench::datagen::GeneratedDatabase* sample_db) {
  const std::string xquery = XQueryFor(id, cls, params);
  if (xquery.empty()) return true;
  auto parsed = xbench::xquery::ParseQuery(xquery);
  if (!parsed.ok()) {
    std::printf("  %-4s PARSE ERROR: %s\n", QueryName(id),
                parsed.status().ToString().c_str());
    return false;
  }
  AnalysisReport report = Analyze(**parsed, schema.Context());
  if (report.HasErrors()) {
    std::printf("  %-4s FAIL\n%s", QueryName(id), report.ToString().c_str());
    return false;
  }
  xbench::xquery::plan::CompilationOptions options;
  // Without a catalog this reproduces the classic explain rendering:
  // guided walks everywhere chains exist, never probes. With one, the
  // cost model chooses among guided walks, scans and index probes.
  options.access_path.mode =
      catalog != nullptr ? xbench::xquery::plan::AccessPathMode::kAuto
                         : xbench::xquery::plan::AccessPathMode::kForceGuided;
  options.cost_model.trust_statistics = true;
  auto compiled = xbench::xquery::plan::Compile(
      std::move(*parsed), &report.annotations, options, catalog);
  if (!compiled.ok()) {
    std::printf("  %-4s COMPILE ERROR: %s\n", QueryName(id),
                compiled.status().ToString().c_str());
    return false;
  }
  std::printf("  %s\n", QueryName(id));
  if (catalog != nullptr) {
    std::printf("   access-path: %s\n",
                (*compiled)->logical.access_path_summary.c_str());
  }
  std::printf("   logical:\n");
  PrintIndented((*compiled)->logical.ToString());
  std::printf("   physical:\n");
  PrintIndented((*compiled)->physical.ToString());
  if (sample_db != nullptr) {
    return ProfileOne(id, **compiled, *sample_db);
  }
  return true;
}

/// Verifies one (class, query) cell: compiles under every access-path
/// mode with the static plan verifier on, then prints the derived
/// properties of the cost-based plan (xqlint --verify). Returns false
/// when any mode fails to compile or verify.
bool VerifyOne(DbClass cls, QueryId id, const ClassSchema& schema,
               const QueryParams& params,
               const xbench::xquery::plan::IndexCatalog* catalog) {
  const std::string xquery = XQueryFor(id, cls, params);
  if (xquery.empty()) return true;
  std::printf("  %s\n", QueryName(id));
  struct Mode {
    const char* label;
    xbench::xquery::plan::AccessPathMode mode;
  };
  const Mode modes[] = {
      {"Auto", xbench::xquery::plan::AccessPathMode::kAuto},
      {"ForceGuided", xbench::xquery::plan::AccessPathMode::kForceGuided},
      {"ForceScan", xbench::xquery::plan::AccessPathMode::kForceScan},
      {"ForceIndex", xbench::xquery::plan::AccessPathMode::kForceIndex},
  };
  bool ok = true;
  for (const Mode& mode : modes) {
    auto parsed = xbench::xquery::ParseQuery(xquery);
    if (!parsed.ok()) {
      std::printf("   PARSE ERROR: %s\n", parsed.status().ToString().c_str());
      return false;
    }
    AnalysisReport report = Analyze(**parsed, schema.Context());
    if (report.HasErrors()) {
      std::printf("   ANALYSIS FAIL\n%s", report.ToString().c_str());
      return false;
    }
    xbench::xquery::plan::CompilationOptions options;
    options.access_path.mode = mode.mode;
    options.cost_model.trust_statistics = true;
    options.verify = true;
    auto compiled = xbench::xquery::plan::Compile(
        std::move(*parsed), &report.annotations, options, catalog);
    if (!compiled.ok()) {
      std::printf("   verify %s: FAIL: %s\n", mode.label,
                  compiled.status().ToString().c_str());
      ok = false;
      continue;
    }
    xbench::xquery::verify::VerifyResult verified =
        xbench::xquery::verify::VerifyPlan((*compiled)->logical,
                                           (*compiled)->physical, options,
                                           catalog);
    if (!verified.ok()) {
      std::printf("   verify %s: %zu violation(s)\n", mode.label,
                  verified.diagnostics.size());
      for (const auto& diag : verified.diagnostics) {
        std::printf("    %s\n", diag.ToString().c_str());
      }
      ok = false;
      continue;
    }
    std::printf("   verify %s: ok (%zu operators)\n", mode.label,
                verified.derived.size());
    if (mode.mode == xbench::xquery::plan::AccessPathMode::kAuto) {
      std::printf("   properties (Auto):\n");
      for (const std::string& line : verified.derived) {
        std::printf("    %s\n", line.c_str());
      }
    }
  }
  return ok;
}

/// Loads the canonical sample database for `cls` into a native engine and
/// creates the class's Table 3 value indexes plus one text index, then
/// hands back the engine's planner-facing catalog snapshot (xqlint
/// --explain --indexes). Null on load failure (reported to stderr).
std::unique_ptr<xbench::xquery::plan::IndexCatalog> BuildCatalog(
    DbClass cls, const xbench::datagen::GeneratedDatabase& sample_db) {
  xbench::engines::NativeEngine engine;
  xbench::Status loaded =
      engine.BulkLoad(cls, xbench::workload::ToLoadDocuments(sample_db));
  if (!loaded.ok()) {
    std::fprintf(stderr, "sample load failed for %s: %s\n",
                 xbench::datagen::DbClassName(cls),
                 loaded.ToString().c_str());
    return nullptr;
  }
  xbench::Status indexed =
      xbench::workload::CreateTable3Indexes(engine, cls);
  if (!indexed.ok()) {
    std::fprintf(stderr, "index build failed for %s: %s\n",
                 xbench::datagen::DbClassName(cls),
                 indexed.ToString().c_str());
    return nullptr;
  }
  xbench::engines::IndexSpec text;
  text.name = "words";
  text.kind = xbench::engines::IndexKind::kText;
  indexed = engine.CreateIndex(text);
  if (!indexed.ok()) {
    std::fprintf(stderr, "text index build failed for %s: %s\n",
                 xbench::datagen::DbClassName(cls),
                 indexed.ToString().c_str());
    return nullptr;
  }
  return std::make_unique<xbench::xquery::plan::IndexCatalog>(
      engine.IndexCatalogSnapshot());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<DbClass> classes(std::begin(kAllClasses),
                               std::end(kAllClasses));
  std::vector<QueryId> queries;
  ParseQueryArg("all", queries);
  bool verbose = false;
  bool explain = false;
  bool profile = false;
  bool indexes = false;
  bool verify = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--class" && has_value) {
      if (!ParseClass(argv[++i], classes)) {
        std::fprintf(stderr, "unknown class '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--query" && has_value) {
      if (!ParseQueryArg(argv[++i], queries)) {
        std::fprintf(stderr, "unknown query '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--indexes") {
      indexes = true;
    } else if (arg == "--verify") {
      verify = true;
    } else {
      std::fprintf(stderr,
                   "usage: xqlint [--class TC/SD|TC/MD|DC/SD|DC/MD|all] "
                   "[--query Q1..Q20|all] [--verbose] [--explain] "
                   "[--profile] [--indexes] [--verify]\n");
      return 2;
    }
  }
  if (profile && !explain) {
    std::fprintf(stderr, "--profile requires --explain\n");
    return 2;
  }
  if (indexes && !explain) {
    std::fprintf(stderr, "--indexes requires --explain\n");
    return 2;
  }
  if (verify && (explain || profile || indexes)) {
    std::fprintf(stderr, "--verify is a standalone mode\n");
    return 2;
  }

  int failures = 0;
  for (DbClass cls : classes) {
    const ClassSchema& schema = CanonicalClassSchema(cls);
    const QueryParams params = DeriveParams(cls, schema.seeds);
    std::printf("class %s (%zu element types, roots:",
                xbench::datagen::DbClassName(cls),
                schema.dtd.ElementNames().size());
    for (const std::string& root : schema.roots) {
      std::printf(" %s", root.c_str());
    }
    std::printf(")\n");
    xbench::datagen::GeneratedDatabase sample_db;
    if (profile || indexes || verify) {
      sample_db =
          xbench::datagen::Generate(cls, xbench::analysis::CanonicalSampleConfig());
    }
    std::unique_ptr<xbench::xquery::plan::IndexCatalog> catalog;
    if (indexes || verify) {
      catalog = BuildCatalog(cls, sample_db);
      if (catalog == nullptr) {
        ++failures;
        continue;
      }
    }
    for (QueryId id : queries) {
      if (verify) {
        if (!VerifyOne(cls, id, schema, params, catalog.get())) {
          ++failures;
        }
      } else if (explain) {
        if (!ExplainOne(cls, id, schema, params, catalog.get(),
                        profile ? &sample_db : nullptr)) {
          ++failures;
        }
      } else if (!LintOne(cls, id, schema, params, verbose)) {
        ++failures;
      }
    }
  }
  if (failures != 0) {
    std::printf("%d quer%s failed analysis\n", failures,
                failures == 1 ? "y" : "ies");
    return 1;
  }
  std::printf("all queries clean\n");
  return 0;
}
