#include "xml/serializer.h"

#include <cassert>
#include <utility>

#include "xml/node.h"

namespace xbench::xml {
namespace {

void AppendEscaped(std::string_view text, bool attribute, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        if (attribute) {
          out += "&quot;";
        } else {
          out.push_back(c);
        }
        break;
      default:
        out.push_back(c);
    }
  }
}

void SerializeRec(const Node& node, const SerializeOptions& options, int depth,
                  std::string& out) {
  if (node.is_text()) {
    AppendEscaped(node.text(), /*attribute=*/false, out);
    return;
  }
  auto indent = [&](int d) {
    if (!options.indent) return;
    out.push_back('\n');
    out.append(static_cast<size_t>(d) * 2, ' ');
  };

  out.push_back('<');
  out += node.name();
  for (const Attribute& attr : node.attributes()) {
    out.push_back(' ');
    out += attr.name;
    out += "=\"";
    AppendEscaped(attr.value, /*attribute=*/true, out);
    out.push_back('"');
  }
  if (node.children().empty()) {
    out += "/>";
    return;
  }
  out.push_back('>');

  // Only indent children when none of them is a text node (mixed content
  // must be emitted verbatim to preserve significance of whitespace).
  bool has_text_child = false;
  for (const auto& child : node.children()) {
    if (child->is_text()) has_text_child = true;
  }
  const bool indent_children = options.indent && !has_text_child;
  for (const auto& child : node.children()) {
    if (indent_children) indent(depth + 1);
    SerializeRec(*child, options, depth + 1, out);
  }
  if (indent_children) indent(depth);
  out += "</";
  out += node.name();
  out.push_back('>');
}

}  // namespace

std::string EscapeText(std::string_view text) {
  std::string out;
  AppendEscaped(text, /*attribute=*/false, out);
  return out;
}

std::string EscapeAttribute(std::string_view text) {
  std::string out;
  AppendEscaped(text, /*attribute=*/true, out);
  return out;
}

std::string Serialize(const Node& node, const SerializeOptions& options) {
  std::string out;
  SerializeRec(node, options, 0, out);
  return out;
}

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  if (doc.root() == nullptr) return "";
  return Serialize(*doc.root(), options);
}

void Writer::EndStartTag() {
  if (!tag_open_) return;
  out_.push_back('>');
  tag_open_ = false;
}

void Writer::Open(std::string_view name) {
  EndStartTag();
  out_.push_back('<');
  out_ += name;
  open_.emplace_back(name);
  tag_open_ = true;
}

void Writer::Attribute(std::string_view name, std::string_view value) {
  assert(tag_open_);
  out_.push_back(' ');
  out_ += name;
  out_ += "=\"";
  AppendEscaped(value, /*attribute=*/true, out_);
  out_.push_back('"');
}

void Writer::Text(std::string_view text) {
  if (text.empty()) return;
  EndStartTag();
  AppendEscaped(text, /*attribute=*/false, out_);
}

void Writer::Close() {
  assert(!open_.empty());
  if (tag_open_) {
    out_ += "/>";
    tag_open_ = false;
  } else {
    out_ += "</";
    out_ += open_.back();
    out_.push_back('>');
  }
  open_.pop_back();
}

void Writer::Simple(std::string_view name, std::string_view text) {
  Open(name);
  Text(text);
  Close();
}

std::string Writer::TakeText() {
  assert(open_.empty());
  return std::exchange(out_, {});
}

}  // namespace xbench::xml
