#include "xquery/functions.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
#include <set>

#include "common/strings.h"

namespace xbench::xquery {
namespace {

Status Arity(std::string_view name, const std::vector<Sequence>& args,
             size_t min_args, size_t max_args) {
  if (args.size() < min_args || args.size() > max_args) {
    return Status::InvalidArgument(std::string(name) + "(): expected " +
                                   std::to_string(min_args) + ".." +
                                   std::to_string(max_args) + " arguments");
  }
  return Status::Ok();
}

/// Single-item string argument (empty sequence -> "").
std::string StringArg(const Sequence& seq) {
  if (seq.empty()) return "";
  return AtomizeToString(seq.front());
}

Result<Sequence> Numeric(std::string_view name,
                         const std::vector<Sequence>& args,
                         double (*fold)(const std::vector<double>&)) {
  XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
  std::vector<double> values;
  values.reserve(args[0].size());
  for (const Item& item : args[0]) {
    auto v = AtomizeToNumber(item);
    if (!v.has_value()) {
      return Status::InvalidArgument(std::string(name) +
                                     "(): non-numeric item '" +
                                     AtomizeToString(item) + "'");
    }
    values.push_back(*v);
  }
  if (values.empty()) return Sequence{};  // empty input -> empty result
  return Sequence{Item::Number(fold(values))};
}

}  // namespace

bool IsContextFunction(std::string_view name) {
  return name == "position" || name == "last";
}

Result<Sequence> CallFunction(std::string_view name,
                              std::vector<Sequence> args) {
  // --- aggregates -------------------------------------------------------
  if (name == "count") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Sequence{Item::Number(static_cast<double>(args[0].size()))};
  }
  if (name == "sum") {
    return Numeric(name, args, +[](const std::vector<double>& v) {
      double total = 0;
      for (double x : v) total += x;
      return total;
    });
  }
  if (name == "avg") {
    return Numeric(name, args, +[](const std::vector<double>& v) {
      double total = 0;
      for (double x : v) total += x;
      return total / static_cast<double>(v.size());
    });
  }
  if (name == "min" || name == "max") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    if (args[0].empty()) return Sequence{};
    // Numeric when every item is numeric, else string comparison.
    bool all_numeric = true;
    for (const Item& item : args[0]) {
      if (!AtomizeToNumber(item).has_value()) {
        all_numeric = false;
        break;
      }
    }
    const bool want_max = name == "max";
    if (all_numeric) {
      double best = *AtomizeToNumber(args[0].front());
      for (const Item& item : args[0]) {
        const double v = *AtomizeToNumber(item);
        if (want_max ? v > best : v < best) best = v;
      }
      return Sequence{Item::Number(best)};
    }
    std::string best = AtomizeToString(args[0].front());
    for (const Item& item : args[0]) {
      std::string v = AtomizeToString(item);
      if (want_max ? v > best : v < best) best = std::move(v);
    }
    return Sequence{Item::String(std::move(best))};
  }

  // --- strings ----------------------------------------------------------
  if (name == "contains") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return Sequence{
        Item::Bool(ContainsPhrase(StringArg(args[0]), StringArg(args[1])))};
  }
  if (name == "contains-word") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return Sequence{
        Item::Bool(ContainsWord(StringArg(args[0]), StringArg(args[1])))};
  }
  if (name == "starts-with") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return Sequence{
        Item::Bool(StartsWith(StringArg(args[0]), StringArg(args[1])))};
  }
  if (name == "ends-with") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    return Sequence{
        Item::Bool(EndsWith(StringArg(args[0]), StringArg(args[1])))};
  }
  if (name == "string-length") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Sequence{
        Item::Number(static_cast<double>(StringArg(args[0]).size()))};
  }
  if (name == "substring") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 2, 3));
    const std::string s = StringArg(args[0]);
    std::optional<double> start_opt;
    if (!args[1].empty()) start_opt = AtomizeToNumber(args[1].front());
    if (!start_opt.has_value()) {
      return Status::InvalidArgument("substring(): bad start");
    }
    // Clamp to the string's size before converting: double→size_t is
    // undefined for NaN and for values beyond size_t's range.
    const double start_d = std::max(0.0, std::round(*start_opt) - 1);
    const size_t start =
        (std::isnan(start_d) || start_d >= static_cast<double>(s.size()))
            ? s.size()
            : static_cast<size_t>(start_d);
    size_t len = std::string::npos;
    if (args.size() == 3 && !args[2].empty()) {
      auto len_opt = AtomizeToNumber(args[2].front());
      if (!len_opt.has_value()) {
        return Status::InvalidArgument("substring(): bad length");
      }
      const double len_d = std::max(0.0, std::round(*len_opt));
      if (std::isnan(len_d) || len_d >= static_cast<double>(s.size())) {
        len = std::string::npos;
      } else {
        len = static_cast<size_t>(len_d);
      }
    }
    if (start >= s.size()) return Sequence{Item::String("")};
    return Sequence{Item::String(s.substr(start, len))};
  }
  if (name == "concat") {
    std::string out;
    for (const Sequence& arg : args) out += StringArg(arg);
    return Sequence{Item::String(std::move(out))};
  }
  if (name == "string-join") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 2));
    const std::string sep = args.size() == 2 ? StringArg(args[1]) : "";
    std::string out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (i != 0) out += sep;
      out += AtomizeToString(args[0][i]);
    }
    return Sequence{Item::String(std::move(out))};
  }
  if (name == "upper-case" || name == "lower-case") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    std::string s = StringArg(args[0]);
    const bool upper = name == "upper-case";
    for (char& c : s) {
      c = static_cast<char>(upper ? std::toupper(static_cast<unsigned char>(c))
                                  : std::tolower(static_cast<unsigned char>(c)));
    }
    return Sequence{Item::String(std::move(s))};
  }
  if (name == "normalize-space") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    const std::string s = StringArg(args[0]);
    std::string out;
    bool in_space = true;
    for (char c : s) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!in_space) out.push_back(' ');
        in_space = true;
      } else {
        out.push_back(c);
        in_space = false;
      }
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return Sequence{Item::String(std::move(out))};
  }

  // --- casts / constructors ---------------------------------------------
  if (name == "string" || name == "xs:string") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    if (args[0].empty()) return Sequence{Item::String("")};
    return Sequence{Item::String(AtomizeToString(args[0].front()))};
  }
  if (name == "number" || name == "xs:double" || name == "xs:decimal" ||
      name == "xs:integer") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    if (args[0].empty()) return Sequence{};
    auto v = AtomizeToNumber(args[0].front());
    if (!v.has_value()) {
      if (name == "number") return Sequence{Item::Number(std::nan(""))};
      return Status::InvalidArgument(
          std::string(name) + "(): cannot cast '" +
          AtomizeToString(args[0].front()) + "'");
    }
    if (name == "xs:integer") return Sequence{Item::Number(std::trunc(*v))};
    return Sequence{Item::Number(*v)};
  }
  if (name == "xs:date") {
    // Dates stay strings (ISO form compares correctly); validate shape.
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    if (args[0].empty()) return Sequence{};
    std::string s = StringArg(args[0]);
    if (s.size() < 10 || s[4] != '-' || s[7] != '-') {
      return Status::InvalidArgument("xs:date(): bad lexical form '" + s +
                                     "'");
    }
    return Sequence{Item::String(std::move(s))};
  }
  if (name == "boolean") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    XBENCH_ASSIGN_OR_RETURN(bool value, EffectiveBooleanValue(args[0]));
    return Sequence{Item::Bool(value)};
  }
  if (name == "not") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    XBENCH_ASSIGN_OR_RETURN(bool value, EffectiveBooleanValue(args[0]));
    return Sequence{Item::Bool(!value)};
  }
  if (name == "true") return Sequence{Item::Bool(true)};
  if (name == "false") return Sequence{Item::Bool(false)};

  // --- sequences ----------------------------------------------------------
  if (name == "empty") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Sequence{Item::Bool(args[0].empty())};
  }
  if (name == "exists") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    return Sequence{Item::Bool(!args[0].empty())};
  }
  if (name == "distinct-values") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    std::set<std::string> seen;
    Sequence out;
    for (const Item& item : args[0]) {
      std::string v = AtomizeToString(item);
      if (seen.insert(v).second) out.push_back(Item::String(std::move(v)));
    }
    return out;
  }
  if (name == "data") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    Sequence out;
    out.reserve(args[0].size());
    for (const Item& item : args[0]) {
      out.push_back(Item::String(AtomizeToString(item)));
    }
    return out;
  }
  if (name == "name") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    if (args[0].empty()) return Sequence{Item::String("")};
    const Item& item = args[0].front();
    if (item.kind == Item::Kind::kNode) {
      return Sequence{Item::String(item.node->name())};
    }
    if (item.kind == Item::Kind::kAttribute) {
      return Sequence{Item::String(std::string(
          item.node->attributes()[static_cast<size_t>(item.attr_index)]
              .name))};
    }
    return Sequence{Item::String("")};
  }

  // --- numeric ------------------------------------------------------------
  if (name == "round" || name == "floor" || name == "ceiling") {
    XBENCH_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    if (args[0].empty()) return Sequence{};
    auto v = AtomizeToNumber(args[0].front());
    if (!v.has_value()) {
      return Status::InvalidArgument(std::string(name) + "(): non-numeric");
    }
    double r = name == "round" ? std::round(*v)
               : name == "floor" ? std::floor(*v)
                                 : std::ceil(*v);
    return Sequence{Item::Number(r)};
  }

  return Status::NotFound("unknown function '" + std::string(name) + "'");
}

}  // namespace xbench::xquery
