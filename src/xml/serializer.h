#ifndef XBENCH_XML_SERIALIZER_H_
#define XBENCH_XML_SERIALIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace xbench::xml {

class Document;
class Node;

/// Serializes a subtree to compact XML text through Writer. Escapes <, >,
/// &, and quotes in attribute values.
std::string Serialize(const Node& node);

/// Serializes a whole document.
std::string Serialize(const Document& doc);

/// Escapes character data (<, >, &).
std::string EscapeText(std::string_view text);

/// Escapes an attribute value (<, >, &, ").
std::string EscapeAttribute(std::string_view text);

/// Writes compact XML text element by element, so a generator emits a
/// document without building its tree, and Serialize prints one. Calls
/// nest like the elements: Open, then its Attribute calls, then its Text
/// and child elements, then Close. An element with no content closes as
/// `<x/>`, and empty text adds nothing (a tree holds no empty text node).
class Writer {
 public:
  void Open(std::string_view name);
  /// Only between Open and the element's first content.
  void Attribute(std::string_view name, std::string_view value);
  void Text(std::string_view text);
  void Close();
  /// `<name>text</name>`, or `<name/>` when `text` is empty.
  void Simple(std::string_view name, std::string_view text);

  /// Length of the text so far. A start tag still open counts its `>`, so
  /// the difference of the sizes around a child element is its length.
  size_t size() const { return out_.size() + (tag_open_ ? 1 : 0); }

  /// The text written; every element must be closed. Leaves the writer
  /// empty.
  std::string TakeText();

 private:
  /// Ends the innermost start tag with `>` before its first content.
  void EndStartTag();

  std::string out_;
  std::vector<std::string> open_;
  bool tag_open_ = false;
};

}  // namespace xbench::xml

#endif  // XBENCH_XML_SERIALIZER_H_
