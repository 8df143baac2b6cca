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

void WriteRec(const Node& node, Writer& out) {
  if (node.is_text()) {
    out.Text(node.text());
    return;
  }
  out.Open(node.name());
  for (const Attribute& attr : node.attributes()) {
    out.Attribute(attr.name, attr.value);
  }
  for (const Node* child : node.children()) WriteRec(*child, out);
  out.Close();
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

std::string Serialize(const Node& node) {
  Writer out;
  WriteRec(node, out);
  return out.TakeText();
}

std::string Serialize(const Document& doc) {
  if (doc.root() == nullptr) return "";
  return Serialize(*doc.root());
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
