// xbench_perf — the repository benchmark's program.
//
//   xbench_perf --workload sd-cold|md-warm-rw|relational-cold --seed N
//               --seconds S --trace 0|1 [--size-kb K] [--out-dir DIR]
//
// One process, one client, closed loop: it generates the workload's
// databases from the seed, loads them through the public engine API,
// runs the workload's fixed cells pass after pass, checks every answer,
// and prints one JSON result line last. With --trace 0 the line carries
// the end-to-end metrics of an untraced run; with --trace 1 it carries
// the per-layer metrics, derived from wall-clock spans the benchmark records
// around every public call it makes (perfbench/README.md lists them).
// A JSON report with the seed, build type, cells and the per-cell
// medians is written to --out-dir, and the traced run's spans beside it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "datagen/generator.h"
#include "engines/dbms.h"
#include "engines/native_engine.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "spans.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "workload/session.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using xbench::Status;
using xbench::Stopwatch;
using xbench::datagen::DbClass;
using xbench::engines::EngineKind;
using xbench::workload::ExecutionResult;
using xbench::workload::IoStats;
using xbench::workload::QueryId;
namespace metric_names = xbench::obs::metric_names;

constexpr uint64_t kMiB = 1024 * 1024;
/// Size of the seed+1 database the write documents are taken from.
constexpr uint64_t kFreshDbBytes = 64 * 1024;
/// Set-up repetitions behind setup_s (the untraced run reports their
/// median; the traced run sets up once).
constexpr int kSetupRepetitions = 2;

// --- Workload definitions ----------------------------------------------------

/// One engine loaded with one database class.
struct Deployment {
  EngineKind engine;
  DbClass db_class;
  uint64_t bytes;
};

/// One (deployment, query) pair the workload runs every pass.
struct Cell {
  size_t deployment;
  QueryId query;
};

struct Workload {
  std::string name;
  std::vector<Deployment> deployments;
  /// Pinned to the cells each engine supports at seed 42, so a cell that
  /// starts failing counts as a failure instead of shrinking the mix.
  std::vector<Cell> cells;
  /// ColdRestart before every read (paper §3.1 cold runs).
  bool cold = true;
  /// One insert and one delete of a seed+1 document per pass, on the
  /// deployments in turn; each pass leaves the collections as loaded.
  bool writes = false;
};

QueryId Q(int n) { return static_cast<QueryId>(n - 1); }

std::vector<QueryId> Queries(std::initializer_list<int> numbers) {
  std::vector<QueryId> out;
  for (int n : numbers) out.push_back(Q(n));
  return out;
}

// Queries defined for each class (workload/queries.cc), all supported by
// the native engine at seed 42.
const std::vector<QueryId> kDcSdQueries = Queries({1, 5, 7, 8, 12, 14, 17, 20});
const std::vector<QueryId> kTcSdQueries = Queries({3, 5, 8, 11, 12, 14, 17});
const std::vector<QueryId> kDcMdQueries =
    Queries({5, 8, 9, 10, 12, 14, 16, 17, 19});
const std::vector<QueryId> kTcMdQueries =
    Queries({2, 4, 5, 6, 8, 12, 13, 14, 15, 17, 18});

void AddCells(Workload& w, const Deployment& deployment,
              const std::vector<QueryId>& queries) {
  w.deployments.push_back(deployment);
  for (QueryId id : queries) w.cells.push_back({w.deployments.size() - 1, id});
}

/// The workload called `name` (nullopt when unknown). `size_kb` > 0
/// overrides every database size (the tiny-scale smoke).
std::optional<Workload> MakeWorkload(const std::string& name,
                                     uint64_t size_kb) {
  auto bytes = [&](uint64_t mib) {
    return size_kb > 0 ? size_kb * 1024 : mib * kMiB;
  };
  Workload w;
  w.name = name;
  if (name == "sd-cold") {
    // 10 MiB per class: the paper's small scale, fits the 16 MiB pool.
    AddCells(w, {EngineKind::kNative, DbClass::kDcSd, bytes(10)},
             kDcSdQueries);
    AddCells(w, {EngineKind::kNative, DbClass::kTcSd, bytes(10)},
             kTcSdQueries);
  } else if (name == "md-warm-rw") {
    w.cold = false;
    w.writes = true;
    w.deployments = {{EngineKind::kNative, DbClass::kDcMd, bytes(10)},
                     {EngineKind::kNative, DbClass::kTcMd, bytes(10)}};
    // Interleave the classes so either class's insert is seen by about
    // half of its own class's reads (the delete lands mid-pass).
    for (size_t i = 0; i < std::max(kDcMdQueries.size(), kTcMdQueries.size());
         ++i) {
      if (i < kDcMdQueries.size()) w.cells.push_back({0, kDcMdQueries[i]});
      if (i < kTcMdQueries.size()) w.cells.push_back({1, kTcMdQueries[i]});
    }
  } else if (name == "relational-cold") {
    // 32 MiB per class: the on-disk images (22-76 MiB) exceed the pool.
    // Q4 needs document order, which the shredded mapping does not keep.
    const std::vector<QueryId> tc_md_shred =
        Queries({2, 5, 6, 8, 12, 13, 14, 15, 17, 18});
    AddCells(w, {EngineKind::kShredMsSql, DbClass::kDcSd, bytes(32)},
             kDcSdQueries);
    AddCells(w, {EngineKind::kShredMsSql, DbClass::kTcSd, bytes(32)},
             kTcSdQueries);
    AddCells(w, {EngineKind::kShredMsSql, DbClass::kDcMd, bytes(32)},
             kDcMdQueries);
    AddCells(w, {EngineKind::kShredMsSql, DbClass::kTcMd, bytes(32)},
             tc_md_shred);
    AddCells(w, {EngineKind::kClob, DbClass::kDcMd, bytes(32)}, kDcMdQueries);
    AddCells(w, {EngineKind::kClob, DbClass::kTcMd, bytes(32)}, kTcMdQueries);
  } else {
    return std::nullopt;
  }
  return w;
}

// --- Answer checks -----------------------------------------------------------

/// What tests/cross_engine_test.cc requires of an engine's answer against
/// the native engine's on one cell.
enum class Agreement { kNone, kExact, kSameEmptiness, kDiffers };

/// Mirrors cross_engine_test.cc: Xcolumn agrees exactly (or, on its
/// non-exact extended cells, on emptiness); SQL Server agrees exactly on
/// value-shaped answers, on emptiness for reconstructed fragments, and
/// must *differ* on the TC/SD cells whose mixed content it loads as NULL
/// (the paper's §3.1.3 incorrect results).
Agreement RequiredAgreement(EngineKind engine, QueryId id, DbClass cls) {
  using xbench::workload::AnswerShape;
  struct Extended {
    QueryId id;
    DbClass cls;
    bool shred_exact;
    bool clob_exact;
  };
  static const Extended kExtended[] = {
      {Q(1), DbClass::kDcSd, true, true},
      {Q(2), DbClass::kTcMd, true, true},
      {Q(3), DbClass::kTcSd, true, true},
      {Q(4), DbClass::kTcMd, true, true},
      {Q(6), DbClass::kTcMd, true, true},
      {Q(7), DbClass::kDcSd, true, true},
      {Q(9), DbClass::kDcMd, true, true},
      {Q(10), DbClass::kDcMd, true, true},
      {Q(11), DbClass::kTcSd, true, true},
      {Q(13), DbClass::kTcMd, false, true},
      {Q(15), DbClass::kTcMd, true, true},
      {Q(16), DbClass::kDcMd, false, true},
      {Q(18), DbClass::kTcMd, false, true},
      {Q(19), DbClass::kDcMd, true, true},
      {Q(20), DbClass::kDcSd, true, true}};
  const auto& subset = xbench::workload::BenchmarkSubset();
  const bool in_subset =
      std::find(subset.begin(), subset.end(), id) != subset.end();
  const Extended* extended = nullptr;
  for (const Extended& e : kExtended) {
    if (e.id == id && e.cls == cls) extended = &e;
  }
  if (engine == EngineKind::kClob) {
    if (in_subset) return Agreement::kExact;
    if (extended == nullptr) return Agreement::kNone;
    return extended->clob_exact ? Agreement::kExact
                                : Agreement::kSameEmptiness;
  }
  if (engine == EngineKind::kShredMsSql) {
    if (in_subset) {
      const bool qt_dependent =
          cls == DbClass::kTcSd &&
          (id == Q(8) || id == Q(17) || id == Q(5) || id == Q(12));
      if (xbench::workload::AnswerShapeFor(id) ==
          AnswerShape::kOrderedFragment) {
        return Agreement::kSameEmptiness;
      }
      return qt_dependent ? Agreement::kDiffers : Agreement::kExact;
    }
    if (extended == nullptr) return Agreement::kNone;
    return extended->shred_exact ? Agreement::kExact
                                 : Agreement::kSameEmptiness;
  }
  return Agreement::kNone;
}

struct Answer {
  uint64_t hash = 0;
  bool empty = true;
  bool operator==(const Answer& o) const {
    return hash == o.hash && empty == o.empty;
  }
};

/// Whether `answer` meets `agreement` against `reference`.
bool Agrees(Agreement agreement, const Answer& answer,
            const Answer& reference) {
  switch (agreement) {
    case Agreement::kNone:
      return true;
    case Agreement::kExact:
      return answer == reference;
    case Agreement::kSameEmptiness:
      return answer.empty == reference.empty;
    case Agreement::kDiffers:
      return !(answer == reference);
  }
  return false;
}

// --- Statistics --------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t CounterValue(const char* name) {
  return xbench::obs::MetricsRegistry::Default().GetCounter(name).value();
}

/// Operator family of an ExecStats label, for exec.self_ms.<family>.
const char* OperatorFamily(const std::string& label) {
  auto starts = [&](const char* prefix) {
    return label.rfind(prefix, 0) == 0;
  };
  if (starts("GuidedWalk") || starts("DescendantScan") ||
      starts("ChildStep") || starts("AxisStep")) {
    return "walk";
  }
  if (starts("IndexScan") || starts("IndexRangeScan") ||
      starts("TextIndexProbe")) {
    return "index";
  }
  if (starts("SortMaterialize")) return "sort";
  if (starts("Filter") || starts("Where") || starts("Empty")) return "filter";
  if (starts("Scan") || starts("ForLoop") || starts("NestedLoopJoin") ||
      starts("Let") || starts("Singleton")) {
    return "scan";
  }
  return "construct";  // Return, Construct, Eval, Aggregate
}

const char* const kFamilies[] = {"walk",   "scan",   "index",
                                 "sort",   "filter", "construct"};

// --- The run -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  uint64_t size_kb = 0;
  std::string out_dir = ".bench_build/out";
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

enum class StmtKind { kRead, kInsert, kDelete };

/// One executed statement of the timed phase.
struct Stmt {
  StmtKind kind = StmtKind::kRead;
  size_t cell = 0;        // reads
  size_t deployment = 0;  // all kinds
  bool traced = false;
  bool ok = false;
  /// Reads: ColdRestart (cold workloads) + Session::Run. Writes: the
  /// engine call.
  double wall_ms = 0;
  /// Simulated-disk charge of the whole statement.
  double sim_io_ms = 0;
  // Read counters, from ExecutionResult and the obs registry.
  IoStats io;
  xbench::workload::QueryProfile profile;
  bool plan_cache_hit = false;
  bool guided = false;
  size_t answer_lines = 0;
  uint64_t docs_materialized = 0;
  uint64_t plan_compiles = 0;
  uint64_t rows_out = 0;
  std::map<std::string, double> family_self_ms;
  std::vector<double> qerrors;
};

struct Loaded {
  std::unique_ptr<xbench::engines::XmlDbms> engine;
  std::unique_ptr<xbench::workload::Session> session;
  /// md-warm-rw: the seed+1 document this deployment inserts and deletes.
  std::optional<xbench::engines::LoadDocument> fresh;
  size_t loaded_documents = 0;
};

/// Set-up figures kept for the per-layer metrics (last set-up only).
struct SetupFigures {
  double seconds = 0;
  uint64_t generated_bytes = 0;
  double load_sim_io_ms = 0;
  uint64_t parsed_bytes = 0;
};

class Bench {
 public:
  Bench(Options options, Workload workload)
      : options_(std::move(options)), workload_(std::move(workload)) {}

  /// Runs the workload; returns the process exit code.
  int Run();

 private:
  Status Setup(bool traced);
  Status LoadClass(DbClass cls, uint64_t bytes, bool traced);
  Status NativeReference(const xbench::datagen::GeneratedDatabase& db);
  void RunPass(int64_t pass, bool traced, bool warmup);
  void Read(size_t cell, int64_t slot, bool traced, bool warmup);
  void Write(StmtKind kind, size_t deployment, bool traced, bool warmup);
  void CheckCrossEngine();
  void Fail(const std::string& what);

  std::vector<Metric> EndToEnd() const;
  /// The per-layer metrics; `split` receives where a read statement's
  /// wall time went, layer by layer (ms per read).
  std::vector<Metric> PerLayer(std::vector<Metric>* split) const;
  /// Per-cell median read latency over the given passes' statements.
  std::vector<double> CellMedians(bool traced) const;
  double SpanMillis(const char* name) const;
  std::vector<double> SpanDurations(const char* name) const;
  bool WriteReport(const std::vector<Metric>& metrics,
                   const std::vector<Metric>& split) const;

  Options options_;
  Workload workload_;
  SpanLog spans_;
  std::vector<Loaded> loaded_;
  std::vector<double> setup_seconds_;
  SetupFigures setup_;
  /// Reference answer per read slot, from the warm-up pass.
  std::map<int64_t, Answer> reference_;
  /// Native answers per (query, class) for the cross-engine check
  /// (traced run of relational-cold only).
  std::map<std::pair<QueryId, DbClass>, Answer> native_;
  std::vector<Stmt> stmts_;
  int64_t warmup_statements_ = 0;
  double timed_seconds_ = 0;
  int64_t passes_ = 0;
  std::vector<double> pass_ms_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

void Bench::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

Status Bench::Setup(bool traced) {
  loaded_.clear();
  loaded_.resize(workload_.deployments.size());
  reference_.clear();
  setup_ = SetupFigures{};
  spans_.set_enabled(traced);
  Stopwatch watch;
  // Generate each class once and load it into every engine that hosts it.
  std::set<std::pair<DbClass, uint64_t>> classes;
  for (const Deployment& d : workload_.deployments) {
    if (!classes.insert({d.db_class, d.bytes}).second) continue;
    XBENCH_RETURN_IF_ERROR(LoadClass(d.db_class, d.bytes, traced));
  }
  // The untimed warm-up pass: fills the plan caches and records each read
  // slot's reference answer (writes alternate between deployments, so a
  // read slot is (pass parity, cell)). It runs warm even in the cold
  // workloads; the reference answers need no restart.
  spans_.set_enabled(false);
  const int64_t warmup_passes =
      workload_.writes ? static_cast<int64_t>(workload_.deployments.size()) : 1;
  for (int64_t pass = 0; pass < warmup_passes; ++pass) {
    RunPass(pass, /*traced=*/false, /*warmup=*/true);
  }
  // The traced set-up also times the parser and, for relational-cold,
  // builds the native reference; it reports no setup_s.
  setup_.seconds = watch.ElapsedMillis() / 1000.0;
  return Status::Ok();
}

Status Bench::LoadClass(DbClass cls, uint64_t bytes, bool traced) {
  xbench::datagen::GenConfig config;
  config.target_bytes = bytes;
  config.seed = options_.seed;
  xbench::datagen::GeneratedDatabase db;
  {
    ScopedSpan span(spans_, "datagen.generate");
    db = xbench::datagen::Generate(cls, config);
  }
  setup_.generated_bytes += db.total_bytes;
  const xbench::workload::QueryParams params =
      xbench::workload::DeriveParams(cls, db.seeds);
  for (size_t i = 0; i < workload_.deployments.size(); ++i) {
    const Deployment& d = workload_.deployments[i];
    if (d.db_class != cls || d.bytes != bytes) continue;
    Loaded& loaded = loaded_[i];
    loaded.engine = xbench::workload::MakeEngine(d.engine);
    xbench::workload::TimedStatus load;
    {
      ScopedSpan span(spans_, "workload.bulk_load");
      load = xbench::workload::BulkLoad(*loaded.engine, db);
    }
    if (!load.status.ok()) {
      return Status::Internal(std::string("load ") +
                              xbench::engines::EngineKindName(d.engine) + " " +
                              xbench::datagen::DbClassName(cls) + ": " +
                              load.status.ToString());
    }
    setup_.load_sim_io_ms += load.io_millis;
    {
      ScopedSpan span(spans_, "workload.create_table3_indexes");
      XBENCH_RETURN_IF_ERROR(
          xbench::workload::CreateTable3Indexes(*loaded.engine, cls));
    }
    loaded.loaded_documents = db.documents.size();
    loaded.session = std::make_unique<xbench::workload::Session>(
        *loaded.engine, cls, params, workload_.name);
    if (workload_.writes) {
      xbench::datagen::GenConfig fresh_config;
      fresh_config.target_bytes = kFreshDbBytes;
      fresh_config.seed = options_.seed + 1;
      xbench::datagen::GeneratedDatabase fresh;
      {
        ScopedSpan span(spans_, "datagen.generate");
        fresh = xbench::datagen::Generate(cls, fresh_config);
      }
      setup_.generated_bytes += fresh.total_bytes;
      // Renamed so the delete can never hit a loaded document.
      loaded.fresh = xbench::engines::LoadDocument{
          "fresh-" + fresh.documents.front().name,
          fresh.documents.front().text};
    }
  }
  if (traced) {
    // xml.parse_mb_per_s: the parser over exactly the loaded documents.
    for (const auto& doc : db.documents) {
      ScopedSpan span(spans_, "xml.parse");
      auto parsed = xbench::xml::Parse(doc.text, doc.name);
      if (!parsed.ok()) return parsed.status();
      setup_.parsed_bytes += doc.text.size();
    }
  }
  if (traced && workload_.name == "relational-cold") {
    XBENCH_RETURN_IF_ERROR(NativeReference(db));
  }
  return Status::Ok();
}

/// Loads `db` into a throwaway native engine and records its answer to
/// every cell of the class whose relational answer the cross-engine rules
/// constrain. Warm: the reference needs answers, not timings.
Status Bench::NativeReference(const xbench::datagen::GeneratedDatabase& db) {
  auto native = xbench::workload::MakeEngine(EngineKind::kNative);
  XBENCH_RETURN_IF_ERROR(xbench::workload::BulkLoad(*native, db).status);
  xbench::workload::Session session(
      *native, db.db_class,
      xbench::workload::DeriveParams(db.db_class, db.seeds), "native-ref");
  xbench::workload::RunOptions options;
  options.cold = false;
  options.collect_plan_stats = false;
  for (const Cell& cell : workload_.cells) {
    const Deployment& d = workload_.deployments[cell.deployment];
    if (d.db_class != db.db_class ||
        RequiredAgreement(d.engine, cell.query, d.db_class) ==
            Agreement::kNone ||
        native_.count({cell.query, d.db_class}) > 0) {
      continue;
    }
    ExecutionResult result = session.Run(cell.query, options);
    if (!result.status.ok()) {
      return Status::Internal(std::string("native reference ") +
                              xbench::workload::QueryName(cell.query) + ": " +
                              result.status.ToString());
    }
    auto lines = xbench::workload::CanonicalizeAnswer(cell.query,
                                                      std::move(result.lines));
    native_[{cell.query, d.db_class}] =
        Answer{xbench::workload::AnswerHash(lines), lines.empty()};
  }
  return Status::Ok();
}

void Bench::RunPass(int64_t pass, bool traced, bool warmup) {
  spans_.set_enabled(traced);
  const size_t n = workload_.cells.size();
  // The deployment this pass writes to; read slots are keyed by it too.
  const int64_t deployments =
      static_cast<int64_t>(workload_.deployments.size());
  const int64_t writer = workload_.writes ? pass % deployments : 0;
  for (size_t i = 0; i < n; ++i) {
    if (workload_.writes && i == 0) {
      Write(StmtKind::kInsert, static_cast<size_t>(writer), traced, warmup);
    }
    if (workload_.writes && i == n / 2) {
      Write(StmtKind::kDelete, static_cast<size_t>(writer), traced, warmup);
    }
    Read(i, writer * static_cast<int64_t>(n) + static_cast<int64_t>(i), traced,
         warmup);
  }
  spans_.set_enabled(false);
}

void Bench::Read(size_t cell_index, int64_t slot, bool traced,
                 bool warmup) {
  const Cell& cell = workload_.cells[cell_index];
  const Deployment& d = workload_.deployments[cell.deployment];
  Loaded& loaded = loaded_[cell.deployment];
  const int64_t stmt_id = static_cast<int64_t>(stmts_.size());

  xbench::workload::RunOptions run_options;
  // The benchmark issues the ColdRestart itself so the traced run can time it
  // as its own span; Session::Run(cold) would do exactly the same call.
  run_options.cold = false;
  run_options.profile = traced;
  run_options.collect_plan_stats = traced;

  const uint64_t materialized_before =
      CounterValue(metric_names::kNativeDocsMaterialized);
  const uint64_t compiles_before = CounterValue(metric_names::kPlanCompiles);
  const double io_before = xbench::workload::ThreadIoMillis();
  ExecutionResult result;
  Stopwatch watch;
  {
    ScopedSpan stmt_span(spans_, "stmt.read", stmt_id);
    // The warm-up pass runs warm: it needs the plan caches and answers,
    // and a cold timed answer must equal the warm one.
    if (workload_.cold && !warmup) {
      ScopedSpan span(spans_, "engine.cold_restart", stmt_id);
      loaded.engine->ColdRestart();
    }
    ScopedSpan span(spans_, "session.run", stmt_id);
    result = loaded.session->Run(cell.query, run_options);
  }
  const double wall_ms = watch.ElapsedMillis();

  Stmt stmt;
  stmt.kind = StmtKind::kRead;
  stmt.cell = cell_index;
  stmt.deployment = cell.deployment;
  stmt.traced = traced;
  stmt.wall_ms = wall_ms;
  stmt.sim_io_ms = xbench::workload::ThreadIoMillis() - io_before;
  stmt.io = result.io;
  stmt.profile = result.profile;
  stmt.plan_cache_hit = result.plan_cache_hit;
  stmt.answer_lines = result.lines.size();
  stmt.docs_materialized =
      CounterValue(metric_names::kNativeDocsMaterialized) - materialized_before;
  stmt.plan_compiles =
      CounterValue(metric_names::kPlanCompiles) - compiles_before;
  for (const auto& op : result.plan_stats.operators) {
    stmt.rows_out += op.rows_out;
    stmt.family_self_ms[OperatorFamily(op.label)] += op.self_millis;
    if (op.label.rfind("GuidedWalk", 0) == 0) stmt.guided = true;
    if (op.estimated_rows >= 0) {
      const double est = std::max(op.estimated_rows, 1.0);
      const double act = std::max(static_cast<double>(op.rows_out), 1.0);
      stmt.qerrors.push_back(std::max(est / act, act / est));
    }
  }

  auto what = [&] {
    return workload_.name + " " + xbench::engines::EngineKindName(d.engine) +
           " " + xbench::datagen::DbClassName(d.db_class) + " " +
           xbench::workload::QueryName(cell.query);
  };
  ++attempted_;
  if (warmup) ++warmup_statements_;
  stmt.ok = result.status.ok();
  if (!stmt.ok) {
    Fail(what() + ": " + result.status.ToString());
  } else {
    auto lines = xbench::workload::CanonicalizeAnswer(cell.query,
                                                      std::move(result.lines));
    const Answer answer{xbench::workload::AnswerHash(lines), lines.empty()};
    const auto expected = reference_.find(slot);
    if (warmup) {
      reference_[slot] = answer;
    } else if (expected == reference_.end() || !(expected->second == answer)) {
      stmt.ok = false;
      Fail(what() + ": answer differs from the warm-up pass");
    }
  }
  if (!warmup) stmts_.push_back(std::move(stmt));
}

void Bench::Write(StmtKind kind, size_t deployment, bool traced,
                  bool warmup) {
  Loaded& loaded = loaded_[deployment];
  const int64_t stmt_id = static_cast<int64_t>(stmts_.size());
  const double io_before = xbench::workload::ThreadIoMillis();
  Status status;
  Stopwatch watch;
  {
    ScopedSpan stmt_span(spans_, "stmt.write", stmt_id);
    if (kind == StmtKind::kInsert) {
      ScopedSpan span(spans_, "engine.insert_document", stmt_id);
      status = loaded.engine->InsertDocument(*loaded.fresh);
    } else {
      ScopedSpan span(spans_, "engine.delete_document", stmt_id);
      status = loaded.engine->DeleteDocument(loaded.fresh->name);
    }
  }
  Stmt stmt;
  stmt.kind = kind;
  stmt.deployment = deployment;
  stmt.traced = traced;
  stmt.wall_ms = watch.ElapsedMillis();
  stmt.sim_io_ms = xbench::workload::ThreadIoMillis() - io_before;
  stmt.ok = status.ok();
  ++attempted_;
  if (warmup) ++warmup_statements_;
  const char* verb = kind == StmtKind::kInsert ? "insert" : "delete";
  if (!stmt.ok) {
    Fail(workload_.name + " " + verb + ": " + status.ToString());
  } else if (loaded.engine->kind() == EngineKind::kNative) {
    // Each pass must return the collection to its loaded state.
    const size_t expected =
        loaded.loaded_documents + (kind == StmtKind::kInsert ? 1 : 0);
    const size_t live =
        static_cast<xbench::engines::NativeEngine&>(*loaded.engine)
            .document_count();
    if (live != expected) {
      stmt.ok = false;
      Fail(workload_.name + " " + verb + ": " + std::to_string(live) +
           " live documents, expected " + std::to_string(expected));
    }
  }
  if (!warmup) stmts_.push_back(std::move(stmt));
}

/// Checks the warm-up answers of the relational engines against each other
/// (untraced run) and against the native engine (traced run), wherever
/// the cross-engine rules constrain them.
void Bench::CheckCrossEngine() {
  std::map<std::pair<QueryId, DbClass>, std::vector<size_t>> by_cell;
  for (size_t i = 0; i < workload_.cells.size(); ++i) {
    const Cell& cell = workload_.cells[i];
    by_cell[{cell.query, workload_.deployments[cell.deployment].db_class}]
        .push_back(i);
  }
  for (const auto& [key, cells] : by_cell) {
    const auto native = native_.find(key);
    for (size_t i : cells) {
      const EngineKind engine =
          workload_.deployments[workload_.cells[i].deployment].engine;
      const Agreement rule = RequiredAgreement(engine, key.first, key.second);
      // A cell whose warm-up statement failed has no answer to compare.
      const auto found = reference_.find(static_cast<int64_t>(i));
      if (found == reference_.end()) continue;
      const Answer& answer = found->second;
      std::string what = workload_.name + " " +
                         xbench::engines::EngineKindName(engine) + " " +
                         xbench::datagen::DbClassName(key.second) + " " +
                         xbench::workload::QueryName(key.first);
      if (native != native_.end() && !Agrees(rule, answer, native->second)) {
        Fail(what + ": disagrees with the native engine");
      }
      // Two engines that must both equal the native answer exactly must
      // equal each other; both-or-either emptiness rules likewise.
      for (size_t j : cells) {
        if (j <= i) continue;
        const EngineKind other =
            workload_.deployments[workload_.cells[j].deployment].engine;
        const Agreement other_rule =
            RequiredAgreement(other, key.first, key.second);
        const auto other_found = reference_.find(static_cast<int64_t>(j));
        if (other_found == reference_.end()) continue;
        const Answer& other_answer = other_found->second;
        auto constrains = [](Agreement a) {
          return a == Agreement::kExact || a == Agreement::kSameEmptiness;
        };
        if (!constrains(rule) || !constrains(other_rule)) continue;
        const Agreement pair = rule == Agreement::kExact &&
                                       other_rule == Agreement::kExact
                                   ? Agreement::kExact
                                   : Agreement::kSameEmptiness;
        if (!Agrees(pair, answer, other_answer)) {
          Fail(what + ": disagrees with " +
               xbench::engines::EngineKindName(other));
        }
      }
    }
  }
}

std::vector<double> Bench::CellMedians(bool traced) const {
  std::vector<std::vector<double>> samples(workload_.cells.size());
  for (const Stmt& s : stmts_) {
    if (s.kind == StmtKind::kRead && s.traced == traced) {
      samples[s.cell].push_back(s.wall_ms);
    }
  }
  std::vector<double> medians;
  for (const auto& cell : samples) medians.push_back(Median(cell));
  return medians;
}

double Bench::SpanMillis(const char* name) const {
  double total = 0;
  for (double ms : SpanDurations(name)) total += ms;
  return total;
}

std::vector<double> Bench::SpanDurations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_.spans()) {
    if (span.name == name) out.push_back(span.Millis());
  }
  return out;
}

std::vector<Metric> Bench::EndToEnd() const {
  std::vector<double> latencies;
  double sim_io_ms = 0;
  for (const Stmt& s : stmts_) {
    sim_io_ms += s.sim_io_ms;
    if (s.kind == StmtKind::kRead) latencies.push_back(s.wall_ms);
  }
  return {
      {"setup_s", "s", Median(setup_seconds_)},
      {"geomean_ms", "ms", Geomean(CellMedians(false))},
      {"stmts_per_s", "1/s",
       Ratio(static_cast<double>(latencies.size()), timed_seconds_)},
      {"p95_ms", "ms", Percentile(latencies, 0.95)},
      {"sim_io_ms_per_stmt", "ms",
       Ratio(sim_io_ms, static_cast<double>(stmts_.size()))},
      {"peak_rss_mb", "MiB", PeakRssMb()},
  };
}

std::vector<Metric> Bench::PerLayer(std::vector<Metric>* split) const {
  // Sums over the traced passes' statements.
  double reads = 0, native_reads = 0, wall = 0, materialize = 0;
  double compile = 0, serialize = 0, exec = 0, native_lines = 0;
  double rows_out = 0, cache_hits = 0, guided = 0, docs = 0, compiles = 0;
  double hits = 0, misses = 0, evictions = 0, disk_reads = 0, disk_bytes = 0;
  double relational_pages = 0, relational_lines = 0;
  std::map<std::string, double> family;
  std::vector<double> qerrors, write_cost;
  double write_sim_io = 0;
  std::map<EngineKind, std::pair<double, double>> relational;  // ms, stmts
  for (const Stmt& s : stmts_) {
    if (!s.traced) continue;
    if (s.kind != StmtKind::kRead) {
      write_cost.push_back(s.wall_ms + s.sim_io_ms);
      write_sim_io += s.sim_io_ms;
      continue;
    }
    const EngineKind engine = workload_.deployments[s.deployment].engine;
    reads += 1;
    wall += s.wall_ms;
    hits += static_cast<double>(s.io.pool_hits);
    misses += static_cast<double>(s.io.pool_misses);
    evictions += static_cast<double>(s.io.pool_evictions);
    disk_reads += static_cast<double>(s.io.disk_page_reads);
    disk_bytes += static_cast<double>(s.io.disk_bytes_read);
    docs += static_cast<double>(s.docs_materialized);
    compiles += static_cast<double>(s.plan_compiles);
    if (engine == EngineKind::kNative) {
      native_reads += 1;
      native_lines += static_cast<double>(s.answer_lines);
      materialize += s.profile.engine_millis - s.profile.exec_millis;
      compile += s.profile.parse_millis + s.profile.analyze_millis +
                 s.profile.plan_millis;
      serialize += s.profile.serialize_millis;
      exec += s.profile.exec_millis;
      rows_out += static_cast<double>(s.rows_out);
      cache_hits += s.plan_cache_hit ? 1 : 0;
      guided += s.guided ? 1 : 0;
      for (const auto& [name, ms] : s.family_self_ms) family[name] += ms;
      qerrors.insert(qerrors.end(), s.qerrors.begin(), s.qerrors.end());
    } else {
      relational_pages +=
          static_cast<double>(s.io.pool_hits + s.io.pool_misses);
      relational_lines += static_cast<double>(s.answer_lines);
    }
  }
  // Relational statement time is the session.run span of its statement.
  for (const Span& span : spans_.spans()) {
    if (span.name != "session.run") continue;
    const EngineKind engine =
        workload_.deployments[stmts_[static_cast<size_t>(span.stmt)].deployment]
            .engine;
    if (engine == EngineKind::kNative) continue;
    relational[engine].first += span.Millis();
    relational[engine].second += 1;
  }
  const double gen_ms = SpanMillis("datagen.generate");
  const double parse_ms = SpanMillis("xml.parse");
  const double mib = static_cast<double>(kMiB);
  auto per_read = [&](double total) { return Ratio(total, reads); };
  auto relational_ms = [&](EngineKind kind) {
    auto it = relational.find(kind);
    return it == relational.end() ? 0.0
                                  : Ratio(it->second.first, it->second.second);
  };
  std::vector<Metric> out = {
      {"datagen.gen_ms", "ms", gen_ms},
      {"datagen.mb_per_s", "MiB/s",
       Ratio(static_cast<double>(setup_.generated_bytes) / mib, gen_ms / 1000)},
      {"engines.load_ms", "ms", SpanMillis("workload.bulk_load")},
      {"engines.load_sim_io_ms", "ms", setup_.load_sim_io_ms},
      {"engines.index_ms", "ms", SpanMillis("workload.create_table3_indexes")},
      {"xml.parse_mb_per_s", "MiB/s",
       Ratio(static_cast<double>(setup_.parsed_bytes) / mib, parse_ms / 1000)},
      {"native.materialize_ms_per_stmt", "ms", per_read(materialize)},
      {"native.materialize_share", "frac", Ratio(materialize, wall)},
      {"native.docs_materialized_per_stmt", "count", per_read(docs)},
      {"storage.restart_ms", "ms", per_read(SpanMillis("engine.cold_restart"))},
      {"storage.pool_hit_ratio", "frac", Ratio(hits, hits + misses)},
      {"storage.pool_misses_per_stmt", "count", per_read(misses)},
      {"storage.evictions_per_stmt", "count", per_read(evictions)},
      {"storage.disk_reads_per_stmt", "count", per_read(disk_reads)},
      {"storage.disk_mb_read_per_stmt", "MiB", per_read(disk_bytes / mib)},
      {"workload.compile_ms_per_stmt", "ms", per_read(compile)},
      {"workload.plan_cache_hit_ratio", "frac",
       Ratio(cache_hits, native_reads)},
      {"workload.recompiles_per_write", "count",
       Ratio(compiles, static_cast<double>(write_cost.size()))},
      {"workload.serialize_ms_per_stmt", "ms", per_read(serialize)},
      {"exec.ms_per_stmt", "ms", per_read(exec)},
  };
  for (const char* name : kFamilies) {
    auto it = family.find(name);
    out.push_back({std::string("exec.self_ms.") + name, "ms",
                   per_read(it == family.end() ? 0 : it->second)});
  }
  const std::vector<double> traced = CellMedians(true);
  const std::vector<double> untraced = CellMedians(false);
  std::vector<Metric> rest = {
      {"exec.rows_out_per_answer_line", "count", Ratio(rows_out, native_lines)},
      {"exec.qerror_p50", "ratio", Median(qerrors)},
      {"exec.guided_frac", "frac", Ratio(guided, native_reads)},
      {"relational.ms_per_stmt.clob", "ms", relational_ms(EngineKind::kClob)},
      {"relational.ms_per_stmt.shred", "ms",
       relational_ms(EngineKind::kShredMsSql)},
      {"relational.pages_per_answer_line", "count",
       Ratio(relational_pages, relational_lines)},
      {"engines.insert_ms", "ms",
       Median(SpanDurations("engine.insert_document"))},
      {"engines.delete_ms", "ms",
       Median(SpanDurations("engine.delete_document"))},
      {"engines.write_sim_io_ms", "ms",
       Ratio(write_sim_io, static_cast<double>(write_cost.size()))},
      {"engines.write_ms_p50", "ms", Median(write_cost)},
      {"fail_frac", "frac",
       Ratio(static_cast<double>(failed_), static_cast<double>(attempted_))},
      {"obs.trace_overhead_frac", "frac",
       Ratio(Geomean(traced), Geomean(untraced)) - 1},
  };
  out.insert(out.end(), rest.begin(), rest.end());

  double relational_total = 0;
  for (const auto& [engine, totals] : relational) {
    relational_total += totals.first;
  }
  const double restart = SpanMillis("engine.cold_restart");
  *split = {
      {"storage.restart", "ms", per_read(restart)},
      {"workload.compile", "ms", per_read(compile)},
      {"native.materialize", "ms", per_read(materialize)},
      {"exec", "ms", per_read(exec)},
      {"workload.serialize", "ms", per_read(serialize)},
      {"relational", "ms", per_read(relational_total)},
      {"other", "ms",
       per_read(wall - restart - compile - materialize - exec - serialize -
                relational_total)},
  };
  return out;
}

bool Bench::WriteReport(const std::vector<Metric>& metrics,
                        const std::vector<Metric>& split) const {
  namespace fs = std::filesystem;
  std::error_code error;
  fs::create_directories(options_.out_dir, error);
  const std::string stem = options_.out_dir + "/" + workload_.name + ".seed" +
                           std::to_string(options_.seed) + ".trace" +
                           (options_.trace ? "1" : "0");
  std::vector<std::vector<double>> samples(workload_.cells.size());
  int64_t reads = 0, writes = 0;
  for (const Stmt& s : stmts_) {
    if (s.kind != StmtKind::kRead) {
      ++writes;
      continue;
    }
    ++reads;
    samples[s.cell].push_back(s.wall_ms);
  }
  xbench::obs::JsonWriter json;
  json.BeginObject()
      .Key("workload").String(workload_.name)
      .Key("seed").Uint(options_.seed)
      .Key("write_document_seed").Uint(options_.seed + 1)
      .Key("build_type").String(XBENCH_PERF_BUILD_TYPE)
      .Key("trace").Bool(options_.trace)
      .Key("cold").Bool(workload_.cold)
      .Key("pool_pages").Uint(xbench::engines::kDefaultPoolPages)
      .Key("pool_bytes").Uint(xbench::engines::kDefaultPoolPages *
                              xbench::storage::kPageSize)
      .Key("reads_per_write")
      .Number(writes > 0 ? static_cast<double>(reads) / writes : 0)
      .Key("passes").Int(passes_)
      .Key("timed_seconds").Number(timed_seconds_)
      .Key("reads").Int(reads)
      .Key("writes").Int(writes)
      .Key("warmup_statements").Int(warmup_statements_)
      .Key("attempted").Int(attempted_)
      .Key("failed").Int(failed_);
  json.Key("pass_ms").BeginArray();
  for (double ms : pass_ms_) json.Number(ms);
  json.EndArray();
  json.Key("setup_seconds").BeginArray();
  for (double s : setup_seconds_) json.Number(s);
  json.EndArray();
  json.Key("deployments").BeginArray();
  for (const Deployment& d : workload_.deployments) {
    json.BeginObject()
        .Key("engine").String(xbench::engines::EngineKindName(d.engine))
        .Key("class").String(xbench::datagen::DbClassName(d.db_class))
        .Key("target_bytes").Uint(d.bytes)
        .EndObject();
  }
  json.EndArray();
  // Traced run: each cell's median time per layer, so the layer that
  // dominates most cells shows even where one heavy cell skews the means.
  std::vector<std::map<std::string, std::vector<double>>> layers(
      workload_.cells.size());
  for (const Stmt& s : stmts_) {
    if (!s.traced || s.kind != StmtKind::kRead || !s.profile.collected) {
      continue;
    }
    auto& cell = layers[s.cell];
    cell["workload.compile"].push_back(s.profile.parse_millis +
                                       s.profile.analyze_millis +
                                       s.profile.plan_millis);
    cell["native.materialize"].push_back(s.profile.engine_millis -
                                         s.profile.exec_millis);
    cell["exec"].push_back(s.profile.exec_millis);
    cell["workload.serialize"].push_back(s.profile.serialize_millis);
  }
  for (const Span& span : spans_.spans()) {
    if (span.stmt < 0) continue;
    const Stmt& s = stmts_[static_cast<size_t>(span.stmt)];
    if (s.kind != StmtKind::kRead) continue;
    if (span.name == "engine.cold_restart") {
      layers[s.cell]["storage.restart"].push_back(span.Millis());
    } else if (span.name == "session.run" &&
               workload_.deployments[s.deployment].engine !=
                   EngineKind::kNative) {
      layers[s.cell]["relational"].push_back(span.Millis());
    }
  }
  json.Key("cells").BeginArray();
  for (size_t i = 0; i < workload_.cells.size(); ++i) {
    const Cell& cell = workload_.cells[i];
    const Deployment& d = workload_.deployments[cell.deployment];
    json.BeginObject()
        .Key("engine").String(xbench::engines::EngineKindName(d.engine))
        .Key("class").String(xbench::datagen::DbClassName(d.db_class))
        .Key("query").String(xbench::workload::QueryName(cell.query))
        .Key("samples").Uint(samples[i].size())
        .Key("median_ms").Number(Median(samples[i]));
    if (!layers[i].empty()) {
      json.Key("layers_ms").BeginObject();
      for (const auto& [layer, ms] : layers[i]) {
        json.Key(layer).Number(Median(ms));
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("metrics").BeginObject();
  for (const Metric& m : metrics) json.Key(m.name).Number(m.value);
  json.EndObject();
  if (!split.empty()) {
    json.Key("layer_split_ms_per_read").BeginObject();
    for (const Metric& m : split) json.Key(m.name).Number(m.value);
    json.EndObject();
  }
  json.Key("failures").BeginArray();
  for (const std::string& f : failures_) json.String(f);
  json.EndArray();
  json.EndObject();
  bool ok = xbench::obs::WriteFile(stem + ".json", json.str()).ok();
  if (options_.trace) ok = spans_.WriteJson(stem + ".spans.json") && ok;
  return ok;
}

int Bench::Run() {
  // Set up several times and keep the last set-up for the timed phase;
  // setup_s is the median. The traced run sets up once.
  const int setups = options_.trace ? 1 : kSetupRepetitions;
  for (int rep = 0; rep < setups; ++rep) {
    Status status = Setup(options_.trace);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    setup_seconds_.push_back(setup_.seconds);
  }
  CheckCrossEngine();

  // Timed phase: whole passes, so every cell has the same number of
  // samples, started until --seconds have passed (at least one). The
  // traced run alternates traced and untraced passes; the untraced ones
  // only measure tracing overhead.
  const int64_t min_passes = options_.trace ? 2 : 1;
  // Warm-up passes came first; continuing the count keeps the write
  // rotation and read slots in step with the references.
  const int64_t first_pass =
      workload_.writes ? static_cast<int64_t>(workload_.deployments.size()) : 1;
  Stopwatch timed;
  while (passes_ < min_passes ||
         timed.ElapsedMillis() < options_.seconds * 1000.0) {
    const bool traced = options_.trace && passes_ % 2 == 0;
    Stopwatch pass_watch;
    RunPass(first_pass + passes_, traced, /*warmup=*/false);
    pass_ms_.push_back(pass_watch.ElapsedMillis());
    ++passes_;
  }
  timed_seconds_ = timed.ElapsedMillis() / 1000.0;

  std::vector<Metric> split;
  const std::vector<Metric> metrics =
      options_.trace ? PerLayer(&split) : EndToEnd();
  if (!WriteReport(metrics, split)) {
    std::fprintf(stderr, "perfbench: cannot write the report to %s\n",
                 options_.out_dir.c_str());
    return 1;
  }
  // The result line, last on stdout: every value with all its digits.
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: xbench_perf --workload sd-cold|md-warm-rw|"
               "relational-cold --seed N --seconds S --trace 0|1 "
               "[--size-kb K] [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return perfbench::Usage();
    } else if (flag == "--size-kb") {
      options.size_kb = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return perfbench::Usage();
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return perfbench::Usage();
    }
  }
  auto workload =
      perfbench::MakeWorkload(options.workload, options.size_kb);
  if (!workload.has_value() || options.seconds <= 0) {
    return perfbench::Usage();
  }
  perfbench::Bench bench(options, std::move(*workload));
  return bench.Run();
}
