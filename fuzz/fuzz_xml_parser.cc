// Fuzz harness for the XML parser (src/xml/parser.cc).
//
// Properties checked beyond "no crash / no sanitizer report":
// - parsing is a fixed point under serialization — any input the parser
//   accepts must serialize (compact mode) to text that reparses
//   successfully and serializes to the same bytes. A violation means the
//   parser and the serializer disagree about the document dialect, which
//   would corrupt documents through a store/reload cycle;
// - the pre-order ids the parser assigns are dense: NodeAt(i) is the node
//   with order i for every i in 1..NodeCount(), and the count matches the
//   tree (index postings resolve through this table).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "xml/parser.h"
#include "xml/serializer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  auto doc = xbench::xml::Parse(input, "fuzz");
  // CheckWellFormed must agree with Parse on every input.
  const bool well_formed = xbench::xml::CheckWellFormed(input).ok();
  if (doc.ok() != well_formed) {
    std::fprintf(stderr,
                 "xml fuzz: Parse ok=%d but CheckWellFormed ok=%d\n",
                 doc.ok() ? 1 : 0, well_formed ? 1 : 0);
    std::abort();
  }
  if (!doc.ok()) return 0;

  if (doc->NodeCount() != doc->root()->SubtreeSize()) {
    std::fprintf(stderr, "xml fuzz: NodeCount %zu but the tree has %zu nodes\n",
                 doc->NodeCount(), doc->root()->SubtreeSize());
    std::abort();
  }
  for (uint32_t order = 1; order <= doc->NodeCount(); ++order) {
    if (doc->NodeAt(order)->order() != order) {
      std::fprintf(stderr, "xml fuzz: NodeAt(%u) has order %u\n", order,
                   doc->NodeAt(order)->order());
      std::abort();
    }
  }

  const std::string once = xbench::xml::Serialize(*doc);
  auto reparsed = xbench::xml::Parse(once, "fuzz-reparse");
  if (!reparsed.ok()) {
    std::fprintf(stderr, "xml fuzz: serialized form does not reparse: %s\n",
                 reparsed.status().ToString().c_str());
    std::abort();
  }
  const std::string twice = xbench::xml::Serialize(*reparsed);
  if (once != twice) {
    std::fprintf(stderr,
                 "xml fuzz: serialize/reparse is not a fixed point\n"
                 "  once:  %s\n  twice: %s\n",
                 once.c_str(), twice.c_str());
    std::abort();
  }
  return 0;
}
