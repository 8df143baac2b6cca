// xbench_lint: token-level source-convention checker for this repo. No
// libclang — every rule works off the raw text of the checked-in files
// (with comments and string literals stripped where the rule is about
// code, and kept where the rule is about comments), so the binary builds
// anywhere the project builds and runs in milliseconds as the `repo_lint`
// ctest and static-gate step.
//
// Rules:
//   1. raw-mutex      No `std::mutex` / `std::shared_mutex` in src/ or
//                     tools/ outside src/common/sync.h. Everything takes
//                     the ranked wrappers so the DESIGN.md §9 lock order
//                     stays machine-checked. src/common/lock_rank.cc is
//                     allowlisted: the enforcer's own bookkeeping lock
//                     cannot rank-check itself.
//   2. lock-ranks     The DESIGN.md §9 rank table and the
//                     `enum class LockRank` + `LockRankName` pair in
//                     src/common/lock_rank.{h,cc} must agree 1:1 on
//                     (value, enumerator, name).
//   3. metric-names   Every `"xbench.…"` string literal in src/ or
//                     tools/ must be declared verbatim in
//                     src/obs/metric_names.h (the registry of record),
//                     so the metric namespace is readable in one place
//                     and a typo'd name fails lint instead of silently
//                     splitting a series. `xbench.test.` scratch names
//                     are exempt.
//   4. remove-by      Every `[[deprecated]]` shim must carry a nearby
//                     `// remove-by: PR N` marker, and the marker fails
//                     once stale (N <= the current PR number, counted
//                     from the `- PR` entries in CHANGES.md) — shims
//                     cannot quietly outlive their grace window.
//   5. one-query-path No call to `xquery::Evaluate(` or `EvaluateQuery(`
//                     in src/ outside src/xquery/. Engines and the
//                     workload run compiled plans only; the tree-walking
//                     interpreter is the tests' differential oracle.
//   6. no-builder-dom No `#include "xml/node.h"` and no `xml::Document` or
//                     `xml::Node` in src/datagen/ or src/tpcw/. The
//                     generators write XML text through xml::Writer; a
//                     tree built only to be serialized is the memory
//                     cost this rule keeps out.
//
// Usage: xbench_lint [--repo-root <dir>]
// Exit: 0 clean, 1 violations (one "file:line: rule: …" line each),
// 2 bad usage / unreadable repo.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

int g_violations = 0;

void Violation(const std::string& file, size_t line, const char* rule,
               const std::string& message) {
  std::fprintf(stderr, "%s:%zu: %s: %s\n", file.c_str(), line, rule,
               message.c_str());
  ++g_violations;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Replaces comments and string/char literals with spaces (newlines kept,
/// so line numbers survive). Good enough for token rules: the result has
/// exactly the code tokens of the input at the same offsets.
std::string StripCommentsAndStrings(const std::string& text) {
  std::string out = text;
  enum { kCode, kLine, kBlock, kString, kChar } state = kCode;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case kCode:
        if (c == '/' && next == '/') state = kLine;
        else if (c == '/' && next == '*') state = kBlock;
        else if (c == '"') state = kString;
        else if (c == '\'') state = kChar;
        if (state != kCode) out[i] = ' ';
        break;
      case kLine:
        if (c == '\n') state = kCode;
        else out[i] = ' ';
        break;
      case kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kString:
      case kChar:
        if (c == '\\' && next != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else {
          if ((state == kString && c == '"') ||
              (state == kChar && c == '\'')) {
            state = kCode;
          }
          if (c != '\n') out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

size_t LineOf(const std::string& text, size_t offset) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// All .h/.cc files under the given repo-relative directories, sorted for
/// deterministic report order.
std::vector<fs::path> SourceFiles(const fs::path& root,
                                  std::initializer_list<const char*> dirs) {
  std::vector<fs::path> files;
  for (const char* dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string Rel(const fs::path& root, const fs::path& path) {
  return fs::relative(path, root).generic_string();
}

/// The linter's own source spells out the tokens it greps for (needles,
/// rule docs) — exempt it from the literal-matching rules.
constexpr char kSelf[] = "tools/xbench_lint.cc";

// ---------------------------------------------------------------------------
// Rule 1: raw std::mutex / std::shared_mutex outside the sync wrappers.

void CheckRawMutexes(const fs::path& root) {
  const std::set<std::string> allowed = {
      "src/common/sync.h",
      // The rank enforcer's own state lock: it cannot be a ranked lock
      // without checking itself recursively.
      "src/common/lock_rank.cc",
  };
  for (const fs::path& path : SourceFiles(root, {"src", "tools"})) {
    const std::string rel = Rel(root, path);
    if (allowed.count(rel) > 0) continue;
    const std::string text = ReadFile(path);
    const std::string code = StripCommentsAndStrings(text);
    for (const char* token : {"std::mutex", "std::shared_mutex"}) {
      for (size_t pos = code.find(token); pos != std::string::npos;
           pos = code.find(token, pos + 1)) {
        // `std::shared_mutex` contains `std::mutex`? No — but guard
        // against matching inside a longer identifier either side.
        const size_t end = pos + std::strlen(token);
        if (end < code.size() &&
            (std::isalnum(static_cast<unsigned char>(code[end])) ||
             code[end] == '_')) {
          continue;
        }
        Violation(rel, LineOf(code, pos), "raw-mutex",
                  std::string(token) +
                      " outside src/common/sync.h; use xbench::Mutex / "
                      "xbench::SharedMutex with a LockRank");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: DESIGN.md §9 table <-> LockRank enum <-> LockRankName, 1:1.

struct RankEntry {
  int value = 0;
  std::string name;  // "engine.registry"
};

/// `|   10 | `kEngineRegistry`  | `engine.registry` | …` table rows.
std::map<std::string, RankEntry> ParseDesignTable(const fs::path& root) {
  std::map<std::string, RankEntry> table;
  const std::vector<std::string> lines = SplitLines(ReadFile(root / "DESIGN.md"));
  for (const std::string& line : lines) {
    size_t cursor = line.find_first_not_of(" \t");
    if (cursor == std::string::npos || line[cursor] != '|') continue;
    std::vector<std::string> cells;
    std::string cell;
    for (size_t i = cursor + 1; i < line.size(); ++i) {
      if (line[i] == '|') {
        cells.push_back(cell);
        cell.clear();
      } else {
        cell += line[i];
      }
    }
    if (cells.size() < 3) continue;
    char* end = nullptr;
    const long value = std::strtol(cells[0].c_str(), &end, 10);
    if (end == cells[0].c_str()) continue;  // header / separator rows
    auto backticked = [](const std::string& s) -> std::string {
      const size_t open = s.find('`');
      if (open == std::string::npos) return "";
      const size_t close = s.find('`', open + 1);
      if (close == std::string::npos) return "";
      return s.substr(open + 1, close - open - 1);
    };
    const std::string enumerator = backticked(cells[1]);
    const std::string name = backticked(cells[2]);
    if (enumerator.rfind('k', 0) != 0 || name.empty()) continue;
    table[enumerator] = RankEntry{static_cast<int>(value), name};
  }
  return table;
}

/// `kEngineRegistry = 10,` lines of `enum class LockRank`.
std::map<std::string, int> ParseLockRankEnum(const std::string& header) {
  std::map<std::string, int> values;
  const size_t begin = header.find("enum class LockRank");
  const size_t close = header.find("};", begin);
  if (begin == std::string::npos || close == std::string::npos) return values;
  std::istringstream in(header.substr(begin, close - begin));
  std::string line;
  while (std::getline(in, line)) {
    const size_t k = line.find_first_not_of(" \t");
    if (k == std::string::npos || line[k] != 'k') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    std::string enumerator = line.substr(k, eq - k);
    while (!enumerator.empty() && std::isspace(static_cast<unsigned char>(
                                      enumerator.back()))) {
      enumerator.pop_back();
    }
    values[enumerator] = std::atoi(line.c_str() + eq + 1);
  }
  return values;
}

/// `case LockRank::kX:` / `return "name";` pairs of LockRankName().
std::map<std::string, std::string> ParseLockRankNames(const std::string& src) {
  std::map<std::string, std::string> names;
  for (size_t pos = src.find("case LockRank::"); pos != std::string::npos;
       pos = src.find("case LockRank::", pos + 1)) {
    const size_t start = pos + std::strlen("case LockRank::");
    const size_t colon = src.find(':', start);
    const size_t ret = src.find("return \"", start);
    if (colon == std::string::npos || ret == std::string::npos) break;
    const size_t open = ret + std::strlen("return \"");
    const size_t close = src.find('"', open);
    if (close == std::string::npos) break;
    names[src.substr(start, colon - start)] = src.substr(open, close - open);
  }
  return names;
}

void CheckLockRankTable(const fs::path& root) {
  const std::string header_rel = "src/common/lock_rank.h";
  const std::string source_rel = "src/common/lock_rank.cc";
  const std::map<std::string, RankEntry> design = ParseDesignTable(root);
  const std::map<std::string, int> enumerators =
      ParseLockRankEnum(ReadFile(root / header_rel));
  const std::map<std::string, std::string> names =
      ParseLockRankNames(ReadFile(root / source_rel));
  if (design.empty() || enumerators.empty() || names.empty()) {
    Violation("DESIGN.md", 0, "lock-ranks",
              "could not parse the §9 rank table / LockRank enum / "
              "LockRankName switch");
    return;
  }
  for (const auto& [enumerator, entry] : design) {
    auto it = enumerators.find(enumerator);
    if (it == enumerators.end()) {
      Violation("DESIGN.md", 0, "lock-ranks",
                "table row LockRank::" + enumerator +
                    " has no enumerator in " + header_rel);
    } else if (it->second != entry.value) {
      Violation(header_rel, 0, "lock-ranks",
                enumerator + " = " + std::to_string(it->second) +
                    " but the DESIGN.md table says " +
                    std::to_string(entry.value));
    }
    auto name_it = names.find(enumerator);
    if (name_it == names.end()) {
      Violation(source_rel, 0, "lock-ranks",
                "LockRankName has no case for LockRank::" + enumerator);
    } else if (name_it->second != entry.name) {
      Violation(source_rel, 0, "lock-ranks",
                "LockRankName(" + enumerator + ") = \"" + name_it->second +
                    "\" but the DESIGN.md table says \"" + entry.name + "\"");
    }
  }
  for (const auto& [enumerator, value] : enumerators) {
    if (design.count(enumerator) == 0) {
      Violation(header_rel, 0, "lock-ranks",
                "LockRank::" + enumerator + " (" + std::to_string(value) +
                    ") is missing from the DESIGN.md §9 table");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: every "xbench.…" literal declared in src/obs/metric_names.h.

std::set<std::string> ExtractXbenchLiterals(const std::string& text) {
  std::set<std::string> literals;
  const std::string needle = "\"xbench.";
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    const size_t open = pos + 1;
    const size_t close = text.find('"', open);
    if (close == std::string::npos) break;
    literals.insert(text.substr(open, close - open));
  }
  return literals;
}

void CheckMetricNames(const fs::path& root) {
  const std::string registry_rel = "src/obs/metric_names.h";
  const std::set<std::string> declared =
      ExtractXbenchLiterals(ReadFile(root / registry_rel));
  if (declared.empty()) {
    Violation(registry_rel, 0, "metric-names",
              "registry header declares no xbench.* names");
    return;
  }
  for (const fs::path& path : SourceFiles(root, {"src", "tools"})) {
    const std::string rel = Rel(root, path);
    if (rel == registry_rel || rel == kSelf) continue;
    const std::string text = ReadFile(path);
    const std::string needle = "\"xbench.";
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      const size_t open = pos + 1;
      const size_t close = text.find('"', open);
      if (close == std::string::npos) break;
      const std::string literal = text.substr(open, close - open);
      if (literal.rfind("xbench.test.", 0) == 0) continue;  // scratch names
      if (declared.count(literal) == 0) {
        Violation(rel, LineOf(text, pos), "metric-names",
                  "\"" + literal + "\" is not declared in " + registry_rel);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4: [[deprecated]] shims carry a live `// remove-by: PR N` marker.

/// Current PR number = count of `- PR` entries in CHANGES.md (the file
/// appends exactly one line per PR).
int CurrentPrNumber(const fs::path& root) {
  int count = 0;
  for (const std::string& line : SplitLines(ReadFile(root / "CHANGES.md"))) {
    if (line.rfind("- PR", 0) == 0) ++count;
  }
  return count;
}

void CheckDeprecatedShims(const fs::path& root) {
  const int current_pr = CurrentPrNumber(root);
  for (const fs::path& path : SourceFiles(root, {"src", "tools"})) {
    const std::string rel = Rel(root, path);
    if (rel == kSelf) continue;
    const std::vector<std::string> lines = SplitLines(ReadFile(path));
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find("[[deprecated") == std::string::npos) continue;
      // The marker lives in a comment on the attribute's line or within
      // the three lines above it (doc-comment position).
      int remove_by = -1;
      const size_t first = i >= 3 ? i - 3 : 0;
      for (size_t j = first; j <= i && remove_by < 0; ++j) {
        const size_t at = lines[j].find("remove-by: PR ");
        if (at != std::string::npos) {
          remove_by =
              std::atoi(lines[j].c_str() + at + std::strlen("remove-by: PR "));
        }
      }
      if (remove_by < 0) {
        Violation(rel, i + 1, "remove-by",
                  "[[deprecated]] shim without a `// remove-by: PR N` "
                  "marker");
      } else if (remove_by <= current_pr) {
        Violation(rel, i + 1, "remove-by",
                  "stale shim: marked remove-by PR " +
                      std::to_string(remove_by) + " and CHANGES.md is at PR " +
                      std::to_string(current_pr) + " — delete it");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 5: no interpreter entry point called from src/ outside src/xquery/.

void CheckInterpreterCalls(const fs::path& root) {
  for (const fs::path& path : SourceFiles(root, {"src"})) {
    const std::string rel = Rel(root, path);
    if (rel.rfind("src/xquery/", 0) == 0) continue;
    const std::string code = StripCommentsAndStrings(ReadFile(path));
    for (const char* token : {"xquery::Evaluate(", "EvaluateQuery("}) {
      for (size_t pos = code.find(token); pos != std::string::npos;
           pos = code.find(token, pos + 1)) {
        // Skip a longer identifier ending in the token (`MyEvaluateQuery(`).
        if (pos > 0 && (std::isalnum(static_cast<unsigned char>(
                            code[pos - 1])) ||
                        code[pos - 1] == '_')) {
          continue;
        }
        Violation(rel, LineOf(code, pos), "one-query-path",
                  std::string(token) +
                      " outside src/xquery/; run a compiled plan "
                      "(xquery::plan::CompileText + exec::Execute)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 6: the generators write text; no tree in src/datagen/ or src/tpcw/.

void CheckBuilderDom(const fs::path& root) {
  for (const fs::path& path : SourceFiles(root, {"src/datagen", "src/tpcw"})) {
    const std::string rel = Rel(root, path);
    const std::string text = ReadFile(path);
    const std::vector<std::string> lines = SplitLines(text);
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find("#include") != std::string::npos &&
          lines[i].find("\"xml/node.h\"") != std::string::npos) {
        Violation(rel, i + 1, "no-builder-dom",
                  "xml/node.h included; write text with xml::Writer");
      }
    }
    const std::string code = StripCommentsAndStrings(text);
    for (const char* token : {"xml::Document", "xml::Node"}) {
      for (size_t pos = code.find(token); pos != std::string::npos;
           pos = code.find(token, pos + 1)) {
        // Skip a longer identifier starting with the token (`xml::NodeKind`).
        const size_t end = pos + std::strlen(token);
        if (end < code.size() &&
            (std::isalnum(static_cast<unsigned char>(code[end])) ||
             code[end] == '_')) {
          continue;
        }
        Violation(rel, LineOf(code, pos), "no-builder-dom",
                  std::string(token) +
                      " in a generator; write text with xml::Writer");
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repo-root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr, "usage: xbench_lint [--repo-root <dir>]\n");
      return 2;
    }
  }
  if (!fs::exists(root / "DESIGN.md") || !fs::exists(root / "src")) {
    std::fprintf(stderr, "xbench_lint: %s does not look like the repo root\n",
                 root.string().c_str());
    return 2;
  }
  CheckRawMutexes(root);
  CheckLockRankTable(root);
  CheckMetricNames(root);
  CheckDeprecatedShims(root);
  CheckInterpreterCalls(root);
  CheckBuilderDom(root);
  if (g_violations > 0) {
    std::fprintf(stderr, "xbench_lint: %d violation(s)\n", g_violations);
    return 1;
  }
  std::printf("xbench_lint: clean\n");
  return 0;
}
