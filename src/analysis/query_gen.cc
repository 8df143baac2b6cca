#include "analysis/query_gen.h"

#include <set>

#include "analysis/analyzer.h"
#include "common/strings.h"
#include "xquery/parser.h"

namespace xbench::analysis {
namespace {

/// Retries before falling back to a trivially clean query. Candidates are
/// schema-derived so failures should not happen; the bound keeps Next()
/// total even if a template drifts out of sync with the analyzer.
constexpr int kMaxCandidateTries = 10;

}  // namespace

QueryGenerator::QueryGenerator(const ClassSchema& schema, uint64_t seed)
    : schema_(schema), rng_(seed) {
  const xml::Dtd& dtd = schema_.dtd;
  for (const std::string& name : dtd.ElementNames()) {
    const xml::Dtd::ElementDecl* decl = dtd.FindElement(name);
    std::vector<std::string>& kids = children_[name];
    switch (decl->model) {
      case xml::Dtd::Model::kSequence:
        for (const auto& particle : decl->sequence) {
          kids.push_back(particle.name);
        }
        break;
      case xml::Dtd::Model::kMixed:
        kids.assign(decl->mixed.begin(), decl->mixed.end());
        break;
      default:
        break;
    }
    for (const auto& [attr, required] : decl->attributes) {
      attrs_[name].push_back(attr);
    }
    has_text_[name] = decl->model == xml::Dtd::Model::kPcdata ||
                      decl->model == xml::Dtd::Model::kMixed;
  }
  // Descendant closure of the document roots, in deterministic (sorted)
  // order: `$input//E` is only analyzer-clean for reachable E.
  std::set<std::string> seen;
  std::vector<std::string> frontier(schema_.roots.begin(),
                                    schema_.roots.end());
  while (!frontier.empty()) {
    std::string cur = std::move(frontier.back());
    frontier.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = children_.find(cur);
    if (it == children_.end()) continue;
    for (const std::string& child : it->second) frontier.push_back(child);
  }
  reachable_.assign(seen.begin(), seen.end());
}

QueryGenerator::PathResult QueryGenerator::GenPath(bool allow_leaf) {
  PathResult out;
  std::string cur = reachable_[rng_.NextIndex(reachable_.size())];
  out.text = "$input//" + cur;
  // Random descent through DTD-admitted child edges.
  const int extra = static_cast<int>(rng_.NextBounded(3));
  for (int i = 0; i < extra; ++i) {
    auto it = children_.find(cur);
    if (it == children_.end() || it->second.empty()) break;
    cur = it->second[rng_.NextIndex(it->second.size())];
    out.text += "/" + cur;
  }
  out.result_type = cur;
  if (allow_leaf) {
    auto at = attrs_.find(cur);
    if (at != attrs_.end() && !at->second.empty() && rng_.NextBool(0.25)) {
      out.text += "/@" + at->second[rng_.NextIndex(at->second.size())];
      out.result_type.clear();
    } else if (has_text_[cur] && rng_.NextBool(0.2)) {
      out.text += "/text()";
      out.result_type.clear();
    }
  }
  return out;
}

std::string QueryGenerator::GenLiteral() {
  switch (rng_.NextBounded(3)) {
    case 0:
      return std::to_string(rng_.NextInt(0, 1000));
    case 1:
      return std::to_string(rng_.NextInt(0, 99)) + "." +
             std::to_string(rng_.NextInt(0, 9));
    default:
      return StrCat(
          {"\"", rng_.NextAlpha(static_cast<int>(rng_.NextInt(1, 6))), "\""});
  }
}

std::string QueryGenerator::GenComparisonOp() {
  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  return kOps[rng_.NextIndex(6)];
}

std::string QueryGenerator::GenPredicate(const std::string& context_type) {
  const auto kids = children_.find(context_type);
  const auto ats = attrs_.find(context_type);
  const bool have_kids = kids != children_.end() && !kids->second.empty();
  const bool have_attrs = ats != attrs_.end() && !ats->second.empty();
  for (int tries = 0; tries < 3; ++tries) {
    switch (rng_.NextBounded(4)) {
      case 0:  // positional
        return StrCat({"[", std::to_string(rng_.NextInt(1, 3)), "]"});
      case 1:  // child existence
        if (!have_kids) break;
        return "[" + kids->second[rng_.NextIndex(kids->second.size())] + "]";
      case 2:  // child value comparison
        if (!have_kids) break;
        return "[" + kids->second[rng_.NextIndex(kids->second.size())] + " " +
               GenComparisonOp() + " " + GenLiteral() + "]";
      default:  // attribute value comparison
        if (!have_attrs) break;
        return "[@" + ats->second[rng_.NextIndex(ats->second.size())] + " " +
               GenComparisonOp() + " " + GenLiteral() + "]";
    }
  }
  return StrCat({"[", std::to_string(rng_.NextInt(1, 3)), "]"});
}

GeneratedQuery QueryGenerator::GenCandidate() {
  GeneratedQuery query;
  switch (rng_.NextBounded(10)) {
    case 0:
    case 1:
    case 2: {  // bare schema path, possibly with a leaf
      query.text = GenPath(/*allow_leaf=*/true).text;
      break;
    }
    case 3:
    case 4: {  // path with a predicate on the last element step
      PathResult path = GenPath(/*allow_leaf=*/false);
      query.text = path.text + GenPredicate(path.result_type);
      break;
    }
    case 5: {  // collection-level aggregate: NOT document-decomposable
      query.text = "count(" + GenPath(/*allow_leaf=*/true).text + ")";
      query.document_decomposable = false;
      break;
    }
    case 6: {  // FLWOR over a schema path
      PathResult path = GenPath(/*allow_leaf=*/false);
      query.text = "for $v in " + path.text;
      const auto kids = children_.find(path.result_type);
      const bool have_kids =
          kids != children_.end() && !kids->second.empty();
      if (have_kids && rng_.NextBool(0.5)) {
        query.text += " where $v/" +
                      kids->second[rng_.NextIndex(kids->second.size())] +
                      " " + GenComparisonOp() + " " + GenLiteral();
      }
      if (have_kids && rng_.NextBool(0.5)) {
        query.text +=
            " return $v/" + kids->second[rng_.NextIndex(kids->second.size())];
      } else {
        query.text += " return $v";
      }
      break;
    }
    case 7: {  // quantified: one boolean for the whole collection
      PathResult path = GenPath(/*allow_leaf=*/false);
      const auto kids = children_.find(path.result_type);
      std::string probe = "$v";
      if (kids != children_.end() && !kids->second.empty()) {
        probe += "/" + kids->second[rng_.NextIndex(kids->second.size())];
      }
      query.text = std::string(rng_.NextBool(0.5) ? "some" : "every") +
                   " $v in " + path.text + " satisfies " + probe + " " +
                   GenComparisonOp() + " " + GenLiteral();
      query.document_decomposable = false;
      break;
    }
    case 8: {  // union of two element paths
      query.text = GenPath(/*allow_leaf=*/false).text + " | " +
                   GenPath(/*allow_leaf=*/false).text;
      break;
    }
    default: {  // conditional on an aggregate
      query.text = "if (count(" + GenPath(/*allow_leaf=*/true).text + ") " +
                   GenComparisonOp() + " " + std::to_string(rng_.NextInt(0, 50)) +
                   ") then \"hit\" else \"miss\"";
      query.document_decomposable = false;
      break;
    }
  }
  return query;
}

GeneratedQuery QueryGenerator::Next() {
  for (int tries = 0; tries < kMaxCandidateTries; ++tries) {
    GeneratedQuery query = GenCandidate();
    auto parsed = xquery::ParseQuery(query.text);
    if (!parsed.ok()) continue;
    AnalysisReport report =
        Analyze(**parsed, schema_.Context());
    if (report.HasErrors()) continue;
    return query;
  }
  // Fallback: a bare reachable-element path is always clean.
  GeneratedQuery query;
  query.text = "$input//" + reachable_[rng_.NextIndex(reachable_.size())];
  return query;
}

}  // namespace xbench::analysis
