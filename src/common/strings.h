#ifndef XBENCH_COMMON_STRINGS_H_
#define XBENCH_COMMON_STRINGS_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace xbench {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Concatenates `parts` into one string with a single allocation. Use it
/// instead of `"literal" + std::string(...)`: GCC 12 at -O3 reports that
/// operator+ overload as a -Wrestrict overlap, which the repo-wide
/// -Werror turns into a failed Release build.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// ASCII lower-casing (the benchmark data is ASCII by construction).
std::string ToLower(std::string_view text);

/// Case-sensitive whole-word containment: true when `word` occurs in `text`
/// delimited by non-alphanumeric characters (or string boundaries). This is
/// the uni-gram "text search" primitive used by Q17.
bool ContainsWord(std::string_view text, std::string_view word);

/// Substring containment; the n-gram/phrase primitive used by Q18.
bool ContainsPhrase(std::string_view text, std::string_view phrase);

/// Lexicographic numeric-string formatting: value padded to `width` with
/// leading zeros ("00042"). Used for generated identifiers so string sort
/// order matches numeric order.
std::string PadNumber(int64_t value, int width);

/// Parses a nonnegative decimal; returns -1 on malformed input.
int64_t ParseInt(std::string_view text);

/// Parses a decimal floating-point number; returns NaN on malformed input.
double ParseDouble(std::string_view text);

}  // namespace xbench

#endif  // XBENCH_COMMON_STRINGS_H_
