// Differential fuzzing oracle over generated, schema-aware XQuery.
//
// Feeds analysis::QueryGenerator output (deterministic in --seed) through
// every answer path the native engine has — the tree-walking interpreter
// (full scans only), the compiled full-scan plan, the guided plan, and the
// cost-based (kAuto) plan compiled against the engine's live index catalog
// — and requires byte-identical QueryResult::ToText() from all of them. Plans
// whose inputs are large enough run their regions on the worker pool, so
// the morsel-parallel execution paths are fuzzed against the interpreter
// too: the summary counts the plan runs that went wide in each region
// kind (step predicates, Where, Sort keys, HashGroupCount keys). Index
// availability itself is randomized: the engine cycles through three
// index configurations (none / Table 3 value indexes / Table 3 + text
// index) during the run, so cost-based plans are fuzzed both with probes
// available and without. The collection changes too: every other index
// phase holds one more document — the first of the database generated with
// seed+1, re-rooted under a <fuzz_extra> element so that every path in it
// is new — inserted when the phase starts and deleted when it ends, so
// guided plans follow a path guide that grows and shrinks. The same queries are
// cross-checked against the CLOB engine per document
// (MD classes, decomposable queries) as value multisets, and the shredded
// relational image is validated column-by-column against the source
// documents via the DAD's own extraction semantics.
//
//   plan_differential_fuzz --class tcsd|tcmd|dcsd|dcmd
//                          [--iters N] [--seed S]
//
// Exit 1 on the first divergence, with the query text and both answers.
// N defaults to $XBENCH_FUZZ_ITERS or 1000; the ctest suite runs one
// process per class so the four classes fuzz in parallel under ctest -j.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/class_schemas.h"
#include "analysis/query_gen.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/sync.h"
#include "datagen/generator.h"
#include "engines/clob_engine.h"
#include "engines/native_engine.h"
#include "engines/shred_engine.h"
#include "engines/shredder.h"
#include "oracle.h"
#include "relational/table.h"
#include "workload/runner.h"
#include "xml/parser.h"
#include "xquery/plan/cache.h"

namespace {

using xbench::datagen::DbClass;

struct ClassOption {
  const char* tag;
  DbClass cls;
};
constexpr ClassOption kClassOptions[] = {
    {"tcsd", DbClass::kTcSd},
    {"tcmd", DbClass::kTcMd},
    {"dcsd", DbClass::kDcSd},
    {"dcmd", DbClass::kDcMd},
};

/// The kinds of region a plan can run wide, counted separately in the
/// summary: predicates of steps, Filter and index probes; a where
/// clause; sort keys; HashGroupCount keys.
enum RegionKind {
  kStepPredicate,
  kWhere,
  kSort,
  kHashGroupCount,
  kRegionKinds
};

RegionKind WideRegionKind(const std::string& label) {
  if (label == "Where") return kWhere;
  if (label.rfind("SortMaterialize(", 0) == 0) return kSort;
  if (label.rfind("HashGroupCount(", 0) == 0) return kHashGroupCount;
  return kStepPredicate;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

[[noreturn]] void Fail(const std::string& query, const std::string& what,
                       const std::string& lhs, const std::string& rhs) {
  std::fprintf(stderr,
               "plan_differential_fuzz: DIVERGENCE (%s)\n"
               "  query: %s\n  lhs: %s\n  rhs: %s\n",
               what.c_str(), query.c_str(), lhs.substr(0, 2000).c_str(),
               rhs.substr(0, 2000).c_str());
  std::exit(1);
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// Mirror of the shredder's TypedValue conversion (engines/shredder.cc):
// the oracle re-derives each mapped column value from the source DOM and
// must coerce it exactly as the load path did.
xbench::relational::Value TypedValueReplica(const std::string& text,
                                            xbench::relational::ValueType type) {
  using xbench::relational::Value;
  using xbench::relational::ValueType;
  switch (type) {
    case ValueType::kInt: {
      const int64_t v = xbench::ParseInt(text);
      if (v < 0) return Value::Null();
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      const double v = xbench::ParseDouble(text);
      if (std::isnan(v)) return Value::Null();
      return Value::Double(v);
    }
    default:
      return Value::String(text);
  }
}

/// Collects the expected value multiset of one DAD column by walking the
/// source documents the way the shredder does (every instance of the
/// triggering element, nested instances included).
void CollectExpected(const xbench::xml::Node& node,
                     const xbench::engines::TableMap& map,
                     const xbench::engines::ColumnMap& col,
                     std::vector<std::string>& out) {
  if (node.is_element() && node.name() == map.element) {
    auto [found, text] = xbench::engines::ExtractRelPath(node, col.rel_path);
    if (found) {
      const auto value = TypedValueReplica(text, col.type);
      if (!value.is_null()) out.push_back(value.ToText());
    }
  }
  for (const auto& child : node.children()) {
    CollectExpected(*child, map, col, out);
  }
}

/// Validates the shredded relational image: for every mapped (table,
/// column), the non-NULL values in the table must equal (as a multiset)
/// the values the DAD extraction yields from the parsed source documents.
void CheckShredImage(xbench::engines::ShredEngine& shred,
                     const xbench::datagen::GeneratedDatabase& db) {
  std::vector<xbench::xml::Document> sources;
  for (const auto& doc : db.documents) {
    auto parsed = xbench::xml::Parse(doc.text, doc.name);
    if (!parsed.ok()) {
      Fail("<shred image>", "generated document does not parse", doc.name,
           parsed.status().ToString());
    }
    sources.push_back(std::move(parsed).value());
  }
  xbench::ReaderLock lock(shred.collection_mu());
  const xbench::engines::Dad& dad = shred.dad();
  size_t columns_checked = 0;
  for (const auto& map : dad.tables) {
    xbench::relational::Table* table = shred.tables().FindTable(map.table);
    if (table == nullptr) {
      Fail("<shred image>", "DAD table missing", map.table, "");
    }
    for (size_t ci = 0; ci < map.columns.size(); ++ci) {
      const auto& col = map.columns[ci];
      std::vector<std::string> expected;
      for (const xbench::xml::Document& doc : sources) {
        CollectExpected(*doc.root(), map, col, expected);
      }
      std::vector<std::string> actual;
      const size_t row_index =
          static_cast<size_t>(xbench::engines::kColFirstMapped) + ci;
      table->Scan([&](xbench::storage::RecordId, const xbench::relational::Row& row) {
        if (row_index < row.size() && !row[row_index].is_null()) {
          actual.push_back(row[row_index].ToText());
        }
        return true;
      });
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      if (expected != actual) {
        Fail("<shred image " + map.table + "." + col.column + ">",
             "shredded column != DAD extraction over source documents",
             "expected " + std::to_string(expected.size()) + " values: " +
                 Join(expected).substr(0, 500),
             "actual " + std::to_string(actual.size()) + " values: " +
                 Join(actual).substr(0, 500));
      }
      ++columns_checked;
    }
  }
  std::printf("  shred image: %zu mapped columns match DAD extraction\n",
              columns_checked);
}

}  // namespace

int main(int argc, char** argv) {
  const ClassOption* chosen = nullptr;
  uint64_t iters = 0;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--class") == 0 && i + 1 < argc) {
      ++i;
      for (const auto& option : kClassOptions) {
        if (std::strcmp(argv[i], option.tag) == 0) chosen = &option;
      }
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (chosen == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --class tcsd|tcmd|dcsd|dcmd [--iters N] [--seed S]\n",
                 argv[0]);
    return 2;
  }
  if (iters == 0) {
    const char* env = std::getenv("XBENCH_FUZZ_ITERS");
    iters = env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
    if (iters == 0) iters = 1000;
  }
  const DbClass cls = chosen->cls;

  // The canonical sample database (small and deterministic), plus the
  // first document of its seed+1 sibling for the insert/delete phases.
  // The sample already holds every path the generator produces, so the
  // extra document gets a new root to make the guide grow.
  const auto& schema = xbench::analysis::CanonicalClassSchema(cls);
  xbench::datagen::GenConfig config = xbench::analysis::CanonicalSampleConfig();
  const auto db = xbench::datagen::Generate(cls, config);
  ++config.seed;
  const xbench::engines::LoadDocument extra{
      "fuzz_extra.xml",
      xbench::StrCat({"<fuzz_extra>",
                     xbench::datagen::Generate(cls, config).documents[0].text,
                     "</fuzz_extra>"})};

  auto native_ptr =
      xbench::workload::MakeEngine(xbench::engines::EngineKind::kNative);
  auto* native = dynamic_cast<xbench::engines::NativeEngine*>(native_ptr.get());
  if (native == nullptr) {
    std::fprintf(stderr, "native engine unavailable\n");
    return 2;
  }
  if (auto load = xbench::workload::BulkLoad(*native, db); !load.status.ok()) {
    std::fprintf(stderr, "native load failed: %s\n",
                 load.status.ToString().c_str());
    return 2;
  }

  // CLOB refuses the SD classes (single CLOB over the column limit); the
  // per-document cross-check only runs for MD classes.
  std::unique_ptr<xbench::engines::XmlDbms> clob_ptr;
  xbench::engines::ClobEngine* clob = nullptr;
  if (cls == DbClass::kTcMd || cls == DbClass::kDcMd) {
    clob_ptr = xbench::workload::MakeEngine(xbench::engines::EngineKind::kClob);
    clob = dynamic_cast<xbench::engines::ClobEngine*>(clob_ptr.get());
    if (auto load = xbench::workload::BulkLoad(*clob_ptr, db);
        !load.status.ok()) {
      std::fprintf(stderr, "clob load failed: %s\n",
                   load.status.ToString().c_str());
      return 2;
    }
  }

  // Shredded image validation runs once up front (it is a property of the
  // load, not of any query). SD classes can exceed DB2's decomposition
  // limit at some scales; that is an expected Unsupported, not a bug.
  auto shred_ptr =
      xbench::workload::MakeEngine(xbench::engines::EngineKind::kShredDb2);
  std::printf("plan_differential_fuzz: class=%s iters=%llu seed=%llu\n",
              chosen->tag, static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  if (auto load = xbench::workload::BulkLoad(*shred_ptr, db);
      load.status.ok()) {
    auto* shred = dynamic_cast<xbench::engines::ShredEngine*>(shred_ptr.get());
    CheckShredImage(*shred, db);
  } else {
    std::printf("  shred image: skipped (%s)\n",
                load.status.ToString().c_str());
  }

  xbench::analysis::QueryGenerator gen(schema, seed);
  uint64_t clob_compared = 0;
  uint64_t error_queries = 0;
  // Plan runs with at least one wide region of each kind.
  uint64_t wide_plans[kRegionKinds] = {};
  uint64_t probe_plans = 0;

  // Index-availability sweep: cycle the engine through three index
  // configurations so cost-based plans are fuzzed with and without
  // probes on offer. Each transition is real DDL (drop everything,
  // recreate), which also exercises catalog-epoch bumps and plan-cache
  // invalidation mid-run. The phase sequence is deterministic in --seed.
  constexpr uint64_t kIndexPhaseIters = 128;
  int index_state = -1;
  auto apply_index_state = [&](int state) {
    if (state == index_state) return;
    index_state = state;
    for (const auto& info : native->ListIndexes()) {
      if (auto dropped = native->DropIndex(info.name); !dropped.ok()) {
        Fail("<index ddl>", "DropIndex failed", info.name,
             dropped.ToString());
      }
    }
    if (state >= 1) {
      if (auto created = xbench::workload::CreateTable3Indexes(*native, cls);
          !created.ok()) {
        Fail("<index ddl>", "CreateTable3Indexes failed", created.ToString(),
             "");
      }
    }
    if (state >= 2) {
      xbench::engines::IndexSpec text;
      text.name = "words";
      text.kind = xbench::engines::IndexKind::kText;
      if (auto created = native->CreateIndex(text); !created.ok()) {
        Fail("<index ddl>", "text CreateIndex failed", created.ToString(),
             "");
      }
    }
  };
  // The extra document goes into every engine that answers queries, so
  // the CLOB cross-check keeps comparing like with like.
  bool extra_loaded = false;
  auto apply_extra = [&](bool wanted) {
    if (wanted == extra_loaded) return;
    extra_loaded = wanted;
    for (xbench::engines::XmlDbms* engine :
         {static_cast<xbench::engines::XmlDbms*>(native),
          static_cast<xbench::engines::XmlDbms*>(clob)}) {
      if (engine == nullptr) continue;
      const xbench::Status status = wanted
                                        ? engine->InsertDocument(extra)
                                        : engine->DeleteDocument(extra.name);
      if (!status.ok()) {
        Fail("<document dml>", wanted ? "InsertDocument failed"
                                      : "DeleteDocument failed",
             engine->name(), status.ToString());
      }
    }
  };
  struct ModeOption {
    const char* label;
    xbench::xquery::plan::AccessPathMode mode;
    bool with_catalog;
  };
  constexpr ModeOption kModes[] = {
      {"unguided", xbench::xquery::plan::AccessPathMode::kForceScan, false},
      {"guided", xbench::xquery::plan::AccessPathMode::kForceGuided, false},
      {"auto", xbench::xquery::plan::AccessPathMode::kAuto, true},
  };
  for (uint64_t i = 0; i < iters; ++i) {
    apply_index_state(static_cast<int>((i / kIndexPhaseIters + seed) % 3));
    apply_extra((i / kIndexPhaseIters) % 2 == 1);
    const auto generated = gen.Next();
    const std::string& text = generated.text;

    // Annotations are keyed by AST node identity and Compile consumes the
    // AST, so each execution path analyzes its own copy.
    auto interp_q = xbench::workload::AnalyzeForClassFull(text, cls);
    if (!interp_q.ok()) {
      Fail(text, "generator emitted a query the analyzer rejects",
           interp_q.status().ToString(), "");
    }
    auto interp = xbench::oracle::Interpret(*native, *interp_q->ast);

    for (const ModeOption& mode : kModes) {
      auto compiled_q = xbench::workload::AnalyzeForClassFull(text, cls);
      xbench::xquery::plan::CompilationOptions options;
      options.access_path.mode = mode.mode;
      // Every fuzz-generated plan also runs the static verifier, so the
      // oracle rejects contract violations even when the answers agree.
      options.verify = true;
      const xbench::xquery::plan::IndexCatalog catalog =
          native->IndexCatalogSnapshot();
      auto compiled = xbench::xquery::plan::Compile(
          std::move(compiled_q->ast), &compiled_q->report.annotations,
          options, mode.with_catalog ? &catalog : nullptr);
      if (!compiled.ok()) {
        Fail(text, "plan compilation failed", compiled.status().ToString(), "");
      }
      // Probe choices render with parens ("IndexScan(name)",
      // "TextProbe(name)"); "guided-walk"/"full-scan" summaries do not.
      if (mode.with_catalog &&
          (*compiled)->logical.access_path_summary.find('(') !=
              std::string::npos) {
        ++probe_plans;
      }
      xbench::xquery::exec::ExecStats stats;
      auto plan_result = native->ExecutePlan(**compiled, &stats);
      if (interp.ok() != plan_result.ok()) {
        Fail(text, std::string("interpreter vs ") + mode.label +
                       " plan status",
             interp.ok() ? "ok" : interp.status().ToString(),
             plan_result.ok() ? "ok" : plan_result.status().ToString());
      }
      bool wide[kRegionKinds] = {};
      for (const auto& op : stats.operators) {
        if (op.morsels > 0) wide[WideRegionKind(op.label)] = true;
      }
      for (int kind = 0; kind < kRegionKinds; ++kind) {
        wide_plans[kind] += wide[kind] ? 1 : 0;
      }
      if (interp.ok()) {
        const std::string lhs = interp->ToText();
        const std::string rhs = plan_result->ToText();
        if (lhs != rhs) {
          Fail(text,
               std::string("interpreter vs ") + mode.label + " plan answer",
               lhs, rhs);
        }
      }
    }

    if (!interp.ok()) {
      ++error_queries;
      continue;
    }

    if (clob != nullptr && generated.document_decomposable) {
      // Per-document evaluation concatenated across the collection must
      // reproduce the collection answer as a value multiset (document
      // order differs between the engines' registries).
      std::vector<std::string> clob_lines;
      {
        xbench::ReaderLock lock(clob->collection_mu());
        for (const std::string& name : clob->DocumentNames()) {
          auto per_doc = clob->QueryDocument(name, text);
          if (!per_doc.ok()) {
            Fail(text, "clob per-document query failed on " + name,
                 per_doc.status().ToString(), "");
          }
          for (auto& line : SplitLines(per_doc->ToText())) {
            clob_lines.push_back(std::move(line));
          }
        }
      }
      std::vector<std::string> native_lines = SplitLines(interp->ToText());
      std::sort(native_lines.begin(), native_lines.end());
      std::sort(clob_lines.begin(), clob_lines.end());
      if (native_lines != clob_lines) {
        Fail(text, "native vs clob value multiset",
             std::to_string(native_lines.size()) + " values: " +
                 Join(native_lines).substr(0, 1000),
             std::to_string(clob_lines.size()) + " values: " +
                 Join(clob_lines).substr(0, 1000));
      }
      ++clob_compared;
    }
  }

  std::printf(
      "  %llu queries: interpreter == unguided == guided == auto plan, "
      "%llu runtime errors (status-matched), %llu clob-compared, "
      "%llu index-probe plans\n"
      "  wide plan runs: %llu step predicate, %llu Where, %llu Sort, "
      "%llu HashGroupCount\n",
      static_cast<unsigned long long>(iters),
      static_cast<unsigned long long>(error_queries),
      static_cast<unsigned long long>(clob_compared),
      static_cast<unsigned long long>(probe_plans),
      static_cast<unsigned long long>(wide_plans[kStepPredicate]),
      static_cast<unsigned long long>(wide_plans[kWhere]),
      static_cast<unsigned long long>(wide_plans[kSort]),
      static_cast<unsigned long long>(wide_plans[kHashGroupCount]));
  return 0;
}
