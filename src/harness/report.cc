#include "harness/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace xbench::harness {

ResultTable::ResultTable(std::string title) : title_(std::move(title)) {}

void ResultTable::AddRow(const std::string& engine,
                         const std::vector<std::string>& cells) {
  rows_.emplace_back(engine, cells);
}

std::string ResultTable::ToString() const {
  static const char* kClasses[] = {"DC/SD", "DC/MD", "TC/SD", "TC/MD"};
  static const char* kScales[] = {"Small", "Normal", "Large"};
  constexpr int kCellWidth = 9;
  constexpr int kNameWidth = 14;

  std::string out = "\n== " + title_ + " ==\n";
  // Class group header.
  out += std::string(kNameWidth, ' ');
  for (const char* cls : kClasses) {
    std::string group = cls;
    const size_t group_width = 3 * kCellWidth;
    const size_t pad = group_width > group.size()
                           ? (group_width - group.size()) / 2
                           : 0;
    out += '|';
    out.append(pad, ' ');
    out += group;
    out.append(group_width - pad - group.size(), ' ');
  }
  out += '\n';
  out.append(kNameWidth, ' ');
  for (int g = 0; g < 4; ++g) {
    out += "|";
    for (const char* scale : kScales) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%*s", kCellWidth, scale);
      out += buf;
    }
  }
  out += "\n" + std::string(kNameWidth + 4 * (1 + 3 * kCellWidth), '-') + "\n";
  for (const auto& [engine, cells] : rows_) {
    char name[64];
    std::snprintf(name, sizeof(name), "%-*s", kNameWidth, engine.c_str());
    out += name;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i % 3 == 0) out += "|";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%*s", kCellWidth, cells[i].c_str());
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string FormatMillis(double millis) {
  char buf[32];
  if (millis < 10) {
    std::snprintf(buf, sizeof(buf), "%.1f", millis);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::llround(millis)));
  }
  return buf;
}

std::string FormatSeconds(double millis) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", millis / 1000.0);
  return buf;
}

}  // namespace xbench::harness
