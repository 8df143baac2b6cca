#ifndef XBENCH_XML_PARSER_H_
#define XBENCH_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/node.h"

namespace xbench::xml {

struct ParseOptions {
  /// When true, text nodes consisting only of whitespace between elements
  /// are dropped (typical for data-centric documents serialized with
  /// indentation). Mixed-content whitespace adjacent to non-whitespace text
  /// is always preserved.
  bool strip_insignificant_whitespace = true;
};

/// Non-validating XML 1.0 parser covering the benchmark's document dialect:
/// prolog, elements, attributes, character data, CDATA sections, comments,
/// processing instructions (skipped), and the five predefined entities plus
/// numeric character references. DTDs are skipped, not processed.
///
/// Returns kCorruption with a line/column message on malformed input.
///
/// `recycled` is a document the caller is done with: its arena is reset
/// and the new tree is built in the blocks it already holds.
Result<Document> Parse(std::string_view input, std::string document_name,
                       const ParseOptions& options = {},
                       Document recycled = {});

/// Well-formedness check without building a tree (used by bulk loaders that
/// only verify, mirroring XML Extender's load-time check).
Status CheckWellFormed(std::string_view input);

}  // namespace xbench::xml

#endif  // XBENCH_XML_PARSER_H_
