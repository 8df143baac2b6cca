// Reproduces the paper's per-query tables (Tables 5-9): execution time of
// one benchmark query across engines, classes, and scales. The query is a
// command-line parameter; with no argument every benchmark-subset query
// runs in paper-table order. Replaces the former one-binary-per-query
// bench_q5/q8/q12/q14/q17 set.
//
// Usage: bench_query [--query Q1..Q20] [--profile]
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"

namespace {

using xbench::workload::QueryId;

const char* PaperTableFor(QueryId id) {
  switch (id) {
    case QueryId::kQ5:
      return "Table 5";
    case QueryId::kQ12:
      return "Table 6";
    case QueryId::kQ17:
      return "Table 7";
    case QueryId::kQ8:
      return "Table 8";
    case QueryId::kQ14:
      return "Table 9";
    default:
      return "extension (no paper table)";
  }
}

bool ParseQueryArg(const char* text, QueryId& out) {
  for (int i = 0; i < 20; ++i) {
    const auto id = static_cast<QueryId>(i);
    if (std::strcmp(text, xbench::workload::QueryName(id)) == 0) {
      out = id;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool profile = false;
  bool have_query = false;
  QueryId id = QueryId::kQ5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile") {
      profile = true;
    } else if (arg == "--query" && i + 1 < argc) {
      if (!ParseQueryArg(argv[++i], id)) {
        std::fprintf(stderr, "unknown query '%s'\n", argv[i]);
        return 2;
      }
      have_query = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_query [--query Q1..Q20] [--profile]\n");
      return 2;
    }
  }
  if (have_query) {
    return xbench::bench::RunQueryTableBench(id, PaperTableFor(id), profile);
  }
  for (QueryId each : {QueryId::kQ5, QueryId::kQ12, QueryId::kQ17,
                       QueryId::kQ8, QueryId::kQ14}) {
    const int rc =
        xbench::bench::RunQueryTableBench(each, PaperTableFor(each), profile);
    if (rc != 0) return rc;
  }
  return 0;
}
