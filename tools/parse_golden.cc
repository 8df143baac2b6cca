// parse_golden: pins the XML parser's observable behaviour over a set of
// input directories (the fuzz corpus and regression inputs).
//
// Every regular file of every directory, in name order, is parsed whole
// and at seven prefix cut points (length * k / 8, k = 1..7), so the error
// paths and their line/column positions are exercised deep inside real
// documents. Each parse prints one line
//
//   <dir>/<file>@<prefix length> ok <compact serialization>
//   <dir>/<file>@<prefix length> error <status message>
//
// with newlines, tabs, carriage returns and backslashes escaped C-style.
// The parse_golden ctest diffs the output against
// tools/golden/xml_parse.txt; regenerate it only for an intended parser
// change:
//
//   build/tools/parse_golden fuzz/corpus/xml fuzz/regressions/xml
//       > tools/golden/xml_parse.txt   (one command line)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void PrintParse(const std::string& label, const std::string& input) {
  auto doc = xbench::xml::Parse(input, "golden");
  if (doc.ok()) {
    std::printf("%s@%zu ok %s\n", label.c_str(), input.size(),
                Escape(xbench::xml::Serialize(*doc)).c_str());
  } else {
    std::printf("%s@%zu error %s\n", label.c_str(), input.size(),
                Escape(doc.status().message()).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: parse_golden DIR...\n");
    return 2;
  }
  for (int a = 1; a < argc; ++a) {
    std::filesystem::path dir =
        std::filesystem::path(argv[a]).lexically_normal();
    if (dir.filename().empty()) dir = dir.parent_path();
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      std::ifstream in(file, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string input = buffer.str();
      const std::string label = dir.parent_path().filename().string() + "/" +
                                dir.filename().string() + "/" +
                                file.filename().string();
      for (size_t k = 1; k < 8; ++k) {
        PrintParse(label, input.substr(0, input.size() * k / 8));
      }
      PrintParse(label, input);
    }
  }
  return 0;
}
