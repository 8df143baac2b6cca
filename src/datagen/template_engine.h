#ifndef XBENCH_DATAGEN_TEMPLATE_ENGINE_H_
#define XBENCH_DATAGEN_TEMPLATE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/word_pool.h"
#include "stats/distribution.h"
#include "xml/node.h"

namespace xbench::datagen {

/// Shared state threaded through a generation run: the random stream, the
/// vocabulary, and named counters (ToXgene's "gene counters") used for
/// sequential identifiers and cross-references.
class GenContext {
 public:
  GenContext(Rng& rng, const WordPool& words) : rng_(rng), words_(words) {}

  Rng& rng() { return rng_; }
  const WordPool& words() const { return words_; }

  /// Post-incremented named counter (starts at 1).
  int64_t NextCounter(const std::string& name) { return ++counters_[name]; }
  int64_t CurrentCounter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

 private:
  Rng& rng_;
  const WordPool& words_;
  std::map<std::string, int64_t> counters_;
};

/// Produces an attribute value or text content.
using ValueGen = std::function<std::string(GenContext&)>;

struct AttrTemplate {
  std::string name;
  ValueGen value;
  /// Probability the attribute is present (irregularity knob).
  double presence = 1.0;
};

/// A ToXgene-style element template. Instantiation walks the template tree
/// sampling occurrence counts from the attached distributions — the same
/// template → document pipeline ToXgene implements, with C++ lambdas in
/// place of ToXgene's XQuery-annotated CDATA genes.
struct TemplateNode {
  std::string name;
  std::vector<AttrTemplate> attrs;
  /// Text content generator (applied after child elements when mixed).
  ValueGen text;
  /// When set, text is emitted *before* children (heading-like elements).
  bool text_first = true;

  struct Child {
    /// Either an owned child template or a (possibly recursive) reference.
    std::unique_ptr<TemplateNode> owned;
    const TemplateNode* ref = nullptr;
    /// Occurrences; nullptr means exactly one.
    std::unique_ptr<stats::Distribution> count;
    /// Probability this child slot is instantiated at all.
    double presence = 1.0;
    /// Recursion budget for self-referencing templates (article sections).
    int max_depth = 1;

    const TemplateNode& node() const { return ref != nullptr ? *ref : *owned; }
  };
  std::vector<Child> children;

  // -- builder helpers ---------------------------------------------------
  TemplateNode* AddChild(std::string child_name,
                         std::unique_ptr<stats::Distribution> count = nullptr,
                         double presence = 1.0);
  void AddRef(const TemplateNode* target,
              std::unique_ptr<stats::Distribution> count, double presence,
              int max_depth);
  void SetAttr(std::string attr_name, ValueGen gen, double presence = 1.0);
};

/// Instantiates one element from the template as the last child of
/// `parent` (allocated from the parent's arena) and returns it.
xml::Node* Instantiate(const TemplateNode& tmpl, GenContext& ctx,
                       xml::Node& parent);

}  // namespace xbench::datagen

#endif  // XBENCH_DATAGEN_TEMPLATE_ENGINE_H_
