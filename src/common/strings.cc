#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace xbench {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string StrCat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out.append(part);
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

namespace {
bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
}  // namespace

bool ContainsWord(std::string_view text, std::string_view word) {
  if (word.empty()) return false;
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(text[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end == text.size() || !IsWordChar(text[end]);
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

bool ContainsPhrase(std::string_view text, std::string_view phrase) {
  if (phrase.empty()) return false;
  return text.find(phrase) != std::string_view::npos;
}

std::string PadNumber(int64_t value, int width) {
  std::string digits = std::to_string(value);
  if (static_cast<int>(digits.size()) >= width) return digits;
  return std::string(static_cast<size_t>(width) - digits.size(), '0') + digits;
}

int64_t ParseInt(std::string_view text) {
  text = Trim(text);
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return -1;
  return value;
}

double ParseDouble(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nan("");
  std::string buf(text);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nan("");
  return value;
}

}  // namespace xbench
