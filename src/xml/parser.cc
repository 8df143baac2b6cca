#include "xml/parser.h"

#include <cctype>
#include <cstdlib>

namespace xbench::xml {
namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) != 0 ||
         c == '-' || c == '.';
}

bool IsAllWhitespace(std::string_view text) {
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// Maximum element nesting the parser accepts. Deeper documents (the fuzz
// corpus contains a 100k-deep `<a><a>...` chain) would otherwise exhaust
// the native stack — a crash, not a Status error.
constexpr int kMaxElementDepth = 256;

/// Recursive-descent XML parser over a string_view cursor.
class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Result<std::unique_ptr<Node>> ParseDocument() {
    SkipProlog();
    if (AtEnd()) return Error("document has no root element");
    XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, ParseElement());
    SkipMisc();
    if (!AtEnd()) return Error("content after root element");
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }

  void Advance(size_t n = 1) {
    for (size_t i = 0; i < n && pos_ < input_.size(); ++i) {
      if (input_[pos_] == '\n') {
        ++line_;
        column_ = 1;
      } else {
        ++column_;
      }
      ++pos_;
    }
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  Status Error(std::string message) const {
    return Status::Corruption(message + " at line " + std::to_string(line_) +
                              ", column " + std::to_string(column_));
  }

  /// Skips the XML declaration, DOCTYPE, comments and PIs before the root.
  void SkipProlog() {
    for (;;) {
      SkipWhitespace();
      if (LookingAt("<?")) {
        SkipUntil("?>");
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else if (LookingAt("<!DOCTYPE")) {
        SkipDoctype();
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (LookingAt("<?")) {
        SkipUntil("?>");
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view terminator) {
    size_t found = input_.find(terminator, pos_);
    if (found == std::string_view::npos) {
      Advance(input_.size() - pos_);
    } else {
      Advance(found + terminator.size() - pos_);
    }
  }

  void SkipDoctype() {
    // DOCTYPE may contain an internal subset in brackets.
    int bracket_depth = 0;
    while (!AtEnd()) {
      char c = Peek();
      Advance();
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return;
    }
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Error("expected a name");
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return std::string(input_.substr(start, pos_ - start));
  }

  /// Decodes entity and character references in `raw` into `out`.
  Status DecodeText(std::string_view raw, std::string& out) {
    out.reserve(out.size() + raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        ++i;
        continue;
      }
      size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") {
        out.push_back('<');
      } else if (entity == "gt") {
        out.push_back('>');
      } else if (entity == "amp") {
        out.push_back('&');
      } else if (entity == "apos") {
        out.push_back('\'');
      } else if (entity == "quot") {
        out.push_back('"');
      } else if (!entity.empty() && entity[0] == '#') {
        char* parse_end = nullptr;
        std::string digits(entity.substr(1));
        const bool hex =
            !digits.empty() && (digits[0] == 'x' || digits[0] == 'X');
        const char* num_begin = digits.c_str() + (hex ? 1 : 0);
        const long code = std::strtol(num_begin, &parse_end, hex ? 16 : 10);
        // At least one digit must be consumed; the encoder below emits at
        // most three UTF-8 bytes, so the accepted range is the BMP, less
        // what XML 1.0's Char production excludes: C0 controls other than
        // TAB/LF/CR (NUL included), the UTF-16 surrogates (which have no
        // valid UTF-8 encoding) and U+FFFE/U+FFFF.
        const bool is_char = code == 0x9 || code == 0xA || code == 0xD ||
                             (code >= 0x20 && code <= 0xD7FF) ||
                             (code >= 0xE000 && code <= 0xFFFD);
        if (parse_end == num_begin || *parse_end != '\0' || !is_char) {
          return Error("invalid character reference '&" + std::string(entity) +
                       ";'");
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
      } else {
        return Error("unknown entity '&" + std::string(entity) + ";'");
      }
      i = semi + 1;
    }
    return Status::Ok();
  }

  Result<std::unique_ptr<Node>> ParseElement() {
    if (depth_ >= kMaxElementDepth) {
      return Error("element nesting exceeds " +
                   std::to_string(kMaxElementDepth) + " levels");
    }
    ++depth_;
    auto result = ParseElementInner();
    --depth_;
    return result;
  }

  Result<std::unique_ptr<Node>> ParseElementInner() {
    if (!LookingAt("<")) return Error("expected '<'");
    Advance();
    XBENCH_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto element = Node::Element(name);

    // Attributes.
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + name);
      if (Peek() == '>' || LookingAt("/>")) break;
      XBENCH_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' after attribute");
      Advance();
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      Advance();
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) Advance();
      if (AtEnd()) return Error("unterminated attribute value");
      std::string value;
      XBENCH_RETURN_IF_ERROR(
          DecodeText(input_.substr(start, pos_ - start), value));
      Advance();  // closing quote
      if (element->FindAttribute(attr_name) != nullptr) {
        return Error("duplicate attribute '" + attr_name + "'");
      }
      element->SetAttribute(std::move(attr_name), std::move(value));
    }

    if (LookingAt("/>")) {
      Advance(2);
      return element;
    }
    Advance();  // '>'

    // Content.
    std::string pending_text;
    auto flush_text = [&](bool has_element_sibling_context) {
      if (pending_text.empty()) return;
      if (options_.strip_insignificant_whitespace &&
          has_element_sibling_context && IsAllWhitespace(pending_text)) {
        pending_text.clear();
        return;
      }
      element->AddText(std::move(pending_text));
      pending_text.clear();
    };

    for (;;) {
      if (AtEnd()) return Error("unterminated element <" + name + ">");
      if (LookingAt("</")) {
        flush_text(!element->children().empty());
        Advance(2);
        XBENCH_ASSIGN_OR_RETURN(std::string close_name, ParseName());
        if (close_name != name) {
          return Error("mismatched end tag </" + close_name + "> for <" +
                       name + ">");
        }
        SkipWhitespace();
        if (AtEnd() || Peek() != '>') return Error("expected '>' in end tag");
        Advance();
        // Strip a trailing whitespace-only text child created before an
        // end tag when the element has element children (indentation).
        return element;
      }
      if (LookingAt("<!--")) {
        SkipUntil("-->");
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        Advance(9);
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        pending_text.append(input_.substr(pos_, end - pos_));
        Advance(end + 3 - pos_);
        continue;
      }
      if (LookingAt("<?")) {
        SkipUntil("?>");
        continue;
      }
      if (Peek() == '<') {
        flush_text(/*has_element_sibling_context=*/true);
        XBENCH_ASSIGN_OR_RETURN(std::unique_ptr<Node> child, ParseElement());
        element->AddChild(std::move(child));
        continue;
      }
      // Character data up to the next markup.
      size_t start = pos_;
      while (!AtEnd() && Peek() != '<') Advance();
      XBENCH_RETURN_IF_ERROR(
          DecodeText(input_.substr(start, pos_ - start), pending_text));
    }
  }

  std::string_view input_;
  ParseOptions options_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;
};

}  // namespace

Result<Document> Parse(std::string_view input, std::string document_name,
                       const ParseOptions& options) {
  ParserImpl parser(input, options);
  auto root = parser.ParseDocument();
  if (!root.ok()) return root.status();
  return Document(std::move(document_name), std::move(root).value());
}

Status CheckWellFormed(std::string_view input) {
  ParserImpl parser(input, ParseOptions{});
  auto root = parser.ParseDocument();
  return root.status();
}

}  // namespace xbench::xml
