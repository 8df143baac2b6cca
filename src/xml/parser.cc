#include "xml/parser.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace xbench::xml {
namespace {

/// Byte classes of the C locale, as one table lookup each (std::isalpha
/// and friends are locale calls per byte).
enum : uint8_t {
  kNameStart = 1,
  kNameChar = 2,
  kSpace = 4,
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool start = alpha || c == '_' || c == ':';
    const bool name = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
    const bool space = c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
                       c == '\f' || c == '\r';
    table[c] = static_cast<uint8_t>((start ? kNameStart : 0) |
                                    (name ? kNameChar : 0) |
                                    (space ? kSpace : 0));
  }
  return table;
}

constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

bool Is(char c, uint8_t cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

bool IsAllWhitespace(std::string_view text) {
  for (char c : text) {
    if (!Is(c, kSpace)) return false;
  }
  return true;
}

// Maximum element nesting the parser accepts. Deeper documents (the fuzz
// corpus contains a 100k-deep `<a><a>...` chain) would otherwise exhaust
// the native stack — a crash, not a Status error.
constexpr int kMaxElementDepth = 256;

/// Inputs up to this size are pre-scanned to size the arena exactly (see
/// ParseDocument); larger ones fill full-size blocks anyway.
constexpr size_t kPrescanBytes = Arena::kMaxBlockBytes / 8;

/// Arena room for the name table of a document with a few dozen distinct
/// names (32-byte strings plus the index as it doubles).
constexpr size_t kNameTableBytes = 2048;

/// Arena bytes reserved up front per input byte when the input is not
/// pre-scanned: a parsed benchmark document takes about four to five
/// times its text size (64-byte nodes, child and order-table slots, text
/// copies).
constexpr size_t kArenaBytesPerInputByte = 4;

}  // namespace

/// One-pass recursive-descent XML parser over a string_view cursor. It
/// builds the tree straight into the document's arena: nodes are numbered
/// in pre-order as they are created, text is copied once (from the input
/// when it holds no references), and every child array is allocated at
/// its exact size when its element closes. Only the byte offset is
/// tracked while scanning; line and column are computed when an error is
/// reported.
class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options,
             Document& doc)
      : input_(input), options_(options), doc_(doc) {}

  Status ParseDocument() {
    // Text sizes and order ids are 32-bit in the node layout.
    if (input_.size() > std::numeric_limits<uint32_t>::max()) {
      return Status::OutOfRange("document larger than 4 GiB");
    }
    SkipProlog();
    if (AtEnd()) return Error("document has no root element");
    // Every node starts at a '<' (an element) or ends at one (text inside
    // the root), so the '<' count bounds the node count. A small document
    // then gets one block that fits its whole tree (nodes, child and
    // order-table slots, at most the input's bytes of text and values,
    // and kNameTableBytes for a typical name table), where a guess would
    // leave it half empty or spill into a second block.
    size_t max_nodes = input_.size() / 16;
    size_t arena_bytes = input_.size() * kArenaBytesPerInputByte;
    if (input_.size() <= kPrescanBytes) {
      max_nodes = static_cast<size_t>(
          std::count(input_.begin() + pos_, input_.end(), '<'));
      arena_bytes = max_nodes * (sizeof(Node) + 2 * sizeof(Node*)) +
                    input_.size() + kNameTableBytes;
    }
    doc_.arena_ = std::make_unique<Arena>(
        std::min(arena_bytes, Arena::kMaxBlockBytes));
    arena_ = doc_.arena_.get();
    order_capacity_ = std::max<size_t>(max_nodes, 1);
    order_table_ = arena_->AllocateArray<const Node*>(order_capacity_);
    XBENCH_RETURN_IF_ERROR(ParseElement(nullptr));
    SkipMisc();
    if (!AtEnd()) return Error("content after root element");
    doc_.by_order_ = order_table_;
    doc_.node_count_ = node_count_;
    return Status::Ok();
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool LookingAt(std::string_view token) const {
    return input_.compare(pos_, token.size(), token) == 0;
  }

  void SkipWhitespace() {
    while (!AtEnd() && Is(Peek(), kSpace)) ++pos_;
  }

  Status Error(std::string_view message) const {
    // Line and column of pos_: lines are counted by '\n', columns by byte.
    size_t line = 1;
    size_t line_start = 0;
    for (size_t i = 0; i < pos_; ++i) {
      if (input_[i] == '\n') {
        ++line;
        line_start = i + 1;
      }
    }
    std::string text(message);
    text += " at line ";
    text += std::to_string(line);
    text += ", column ";
    text += std::to_string(pos_ - line_start + 1);
    return Status::Corruption(std::move(text));
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
    const size_t found = input_.find(terminator, pos_);
    pos_ = found == std::string_view::npos ? input_.size()
                                           : found + terminator.size();
  }

  void SkipDoctype() {
    // DOCTYPE may contain an internal subset in brackets.
    int bracket_depth = 0;
    while (!AtEnd()) {
      const char c = input_[pos_++];
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return;
    }
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !Is(Peek(), kNameStart)) {
      return Error("expected a name");
    }
    const size_t start = pos_;
    ++pos_;
    while (!AtEnd() && Is(Peek(), kNameChar)) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  /// Decodes entity and character references in `raw` into `out`.
  Status DecodeText(std::string_view raw, std::string& out) {
    out.reserve(out.size() + raw.size());
    for (size_t i = 0; i < raw.size();) {
      const size_t amp = raw.find('&', i);
      if (amp == std::string_view::npos) {
        out.append(raw.substr(i));
        break;
      }
      out.append(raw.substr(i, amp - i));
      i = amp;
      const size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
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
        const std::string digits(entity.substr(1));
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

  /// Gives `node` the next pre-order id and links it under `parent`
  /// (pending until the parent closes), or makes it the root.
  void Register(Node* node, Node* parent) {
    node->parent_ = parent;
    if (node_count_ == order_capacity_) {
      // Only an input too large to pre-scan can outgrow its estimate.
      const Node** grown =
          arena_->AllocateArray<const Node*>(2 * order_capacity_);
      std::copy(order_table_, order_table_ + node_count_, grown);
      order_table_ = grown;
      order_capacity_ *= 2;
    }
    order_table_[node_count_++] = node;
    node->order_ = node_count_;
    if (parent != nullptr) {
      open_children_.push_back(node);
    } else {
      doc_.root_ = node;
    }
  }

  /// Text gathered for the next text node: a view of the input while it
  /// is one reference-free run, decoded into `scratch_` otherwise.
  struct PendingText {
    std::string_view view;
    bool in_scratch = false;
    bool empty() const { return view.empty() && !in_scratch; }
  };

  /// Appends one character-data run (references still encoded).
  Status AppendCharData(PendingText& pending, std::string_view raw) {
    if (pending.empty() &&
        std::memchr(raw.data(), '&', raw.size()) == nullptr) {
      pending.view = raw;
      return Status::Ok();
    }
    MoveToScratch(pending);
    return DecodeText(raw, scratch_);
  }

  /// Appends literal text (a CDATA section).
  void AppendLiteral(PendingText& pending, std::string_view literal) {
    if (pending.empty()) {
      pending.view = literal;
      return;
    }
    MoveToScratch(pending);
    scratch_.append(literal);
  }

  void MoveToScratch(PendingText& pending) {
    if (pending.in_scratch) return;
    scratch_.assign(pending.view);
    pending.view = {};
    pending.in_scratch = true;
  }

  void FlushText(PendingText& pending, Node* element,
                 bool has_element_sibling_context) {
    if (pending.empty()) return;
    const std::string_view text =
        pending.in_scratch ? std::string_view(scratch_) : pending.view;
    pending = {};
    if (text.empty()) return;
    if (options_.strip_insignificant_whitespace &&
        has_element_sibling_context && IsAllWhitespace(text)) {
      return;
    }
    Register(arena_->NewText(text), element);
  }

  Status ParseElement(Node* parent) {
    if (depth_ >= kMaxElementDepth) {
      return Error("element nesting exceeds " +
                   std::to_string(kMaxElementDepth) + " levels");
    }
    ++depth_;
    const Status status = ParseElementInner(parent);
    --depth_;
    return status;
  }

  Status ParseElementInner(Node* parent) {
    if (!LookingAt("<")) return Error("expected '<'");
    ++pos_;
    XBENCH_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    Node* element = arena_->NewElement(name);
    Register(element, parent);

    // Attributes.
    attrs_.clear();
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) {
        return Error("unterminated start tag <" + std::string(name));
      }
      if (Peek() == '>' || LookingAt("/>")) break;
      XBENCH_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' after attribute");
      ++pos_;
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      const char quote = Peek();
      ++pos_;
      const size_t start = pos_;
      const void* close =
          std::memchr(input_.data() + pos_, quote, input_.size() - pos_);
      if (close == nullptr) {
        pos_ = input_.size();
        return Error("unterminated attribute value");
      }
      pos_ = static_cast<const char*>(close) - input_.data();
      const std::string_view raw = input_.substr(start, pos_ - start);
      std::string_view value;
      if (std::memchr(raw.data(), '&', raw.size()) == nullptr) {
        value = arena_->CopyString(raw);
      } else {
        scratch_.clear();
        XBENCH_RETURN_IF_ERROR(DecodeText(raw, scratch_));
        value = arena_->CopyString(scratch_);
      }
      ++pos_;  // closing quote
      for (const Attribute& attr : attrs_) {
        if (attr.name == attr_name) {
          return Error("duplicate attribute '" + std::string(attr_name) +
                       "'");
        }
      }
      attrs_.push_back({arena_->Intern(attr_name), value});
    }
    if (!attrs_.empty()) {
      element->attrs_ = arena_->AllocateArray<Attribute>(attrs_.size());
      std::copy(attrs_.begin(), attrs_.end(), element->attrs_);
      element->size_ = static_cast<uint32_t>(attrs_.size());
    }

    if (LookingAt("/>")) {
      pos_ += 2;
      return Status::Ok();
    }
    ++pos_;  // '>'

    // Content. This element's children collect on open_children_ above
    // `first_child` until the end tag sizes its array.
    const size_t first_child = open_children_.size();
    PendingText pending;
    for (;;) {
      if (AtEnd()) {
        return Error("unterminated element <" + std::string(name) + ">");
      }
      if (Peek() != '<') {
        // Character data up to the next markup.
        const size_t start = pos_;
        const void* next =
            std::memchr(input_.data() + pos_, '<', input_.size() - pos_);
        pos_ = next == nullptr ? input_.size()
                               : static_cast<const char*>(next) - input_.data();
        XBENCH_RETURN_IF_ERROR(
            AppendCharData(pending, input_.substr(start, pos_ - start)));
        continue;
      }
      if (LookingAt("</")) {
        FlushText(pending, element, open_children_.size() > first_child);
        pos_ += 2;
        XBENCH_ASSIGN_OR_RETURN(std::string_view close_name, ParseName());
        if (close_name != name) {
          return Error("mismatched end tag </" + std::string(close_name) +
                       "> for <" + std::string(name) + ">");
        }
        SkipWhitespace();
        if (AtEnd() || Peek() != '>') return Error("expected '>' in end tag");
        ++pos_;
        const size_t count = open_children_.size() - first_child;
        if (count != 0) {
          element->children_ = arena_->AllocateArray<Node*>(count);
          std::memcpy(element->children_, open_children_.data() + first_child,
                      count * sizeof(Node*));
          element->child_count_ = static_cast<uint32_t>(count);
          element->child_capacity_ = static_cast<uint32_t>(count);
          open_children_.resize(first_child);
        }
        return Status::Ok();
      }
      if (LookingAt("<!--")) {
        SkipUntil("-->");
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        pos_ += 9;
        const size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        AppendLiteral(pending, input_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (LookingAt("<?")) {
        SkipUntil("?>");
        continue;
      }
      FlushText(pending, element, /*has_element_sibling_context=*/true);
      XBENCH_RETURN_IF_ERROR(ParseElement(element));
    }
  }

  std::string_view input_;
  ParseOptions options_;
  Document& doc_;
  Arena* arena_ = nullptr;
  size_t pos_ = 0;
  int depth_ = 0;
  /// Children of the elements still open, innermost last.
  std::vector<Node*> open_children_;
  /// The order table being filled (an arena array): node i + 1 at [i].
  const Node** order_table_ = nullptr;
  size_t order_capacity_ = 0;
  uint32_t node_count_ = 0;
  /// The start tag being parsed.
  std::vector<Attribute> attrs_;
  /// Decoded text or attribute value being assembled.
  std::string scratch_;
};

Result<Document> Parse(std::string_view input, std::string document_name,
                       const ParseOptions& options) {
  Document doc(std::move(document_name));
  ParserImpl parser(input, options, doc);
  XBENCH_RETURN_IF_ERROR(parser.ParseDocument());
  return doc;
}

Status CheckWellFormed(std::string_view input) {
  return Parse(input, "").status();
}

}  // namespace xbench::xml
