#ifndef XBENCH_XML_NODE_H_
#define XBENCH_XML_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xml/arena.h"

namespace xbench::xml {

/// Node kinds of the simplified XML data model. Attributes are stored on
/// elements (they are not children and do not take part in document order,
/// matching the XPath data model's treatment for our purposes).
enum class NodeKind : uint8_t {
  kElement,
  kText,
};

/// An attribute of an element. Both views point into storage owned by the
/// element's arena (the name into its name table).
struct Attribute {
  std::string_view name;
  std::string_view value;

  friend bool operator==(const Attribute&, const Attribute&) = default;
};

/// A node in an XML document tree.
///
/// Ownership: every node, its text, attributes and child array live in one
/// Arena (see xml/arena.h) and die with it; `parent` is a back pointer into
/// the same tree. Nodes are never created or destroyed on their own, so
/// they are trivially destructible. Document order ids are pre-order
/// numbers from 1, assigned by the parser (and by the evaluator for the
/// trees it constructs), and the query engine sorts node sequences into
/// document order by them.
class Node {
 public:
  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_text() const { return kind_ == NodeKind::kText; }

  /// Element tag name (interned in the arena); empty for text nodes.
  const std::string& name() const { return *name_; }
  /// Text content; empty for elements (use TextContent() for subtrees).
  std::string_view text() const {
    return is_text() ? std::string_view(text_, size_) : std::string_view();
  }

  Node* parent() const { return parent_; }
  uint32_t order() const { return order_; }
  void set_order(uint32_t order) { order_ = order; }

  /// Children in document order (an arena array; O(1) size()).
  std::span<Node* const> children() const {
    return {children_, child_count_};
  }
  std::span<const Attribute> attributes() const {
    return is_element() ? std::span<const Attribute>(attrs_, size_)
                        : std::span<const Attribute>();
  }

  /// The arena this node was allocated from (and its children will be).
  Arena& arena() const { return *arena_; }

  /// Appends `<name>` and returns it.
  Node* AddElement(std::string_view name);
  /// Appends a text node; empty content adds nothing.
  void AddText(std::string_view content);
  /// Appends a deep copy of `source` (from any arena) and returns it.
  Node* AppendCopy(const Node& source);

  /// Sets (or replaces) attribute `name`.
  void SetAttribute(std::string_view name, std::string_view value);
  /// Returns nullptr when absent.
  const std::string_view* FindAttribute(std::string_view name) const;

  /// First child element with the given tag, or nullptr.
  const Node* FirstChild(std::string_view name) const;
  Node* FirstChild(std::string_view name);
  /// All child elements with the given tag, in document order.
  std::vector<const Node*> Children(std::string_view name) const;
  /// All child elements regardless of tag.
  std::vector<const Node*> ChildElements() const;

  /// Concatenation of all descendant text, in document order (the XPath
  /// string value of an element).
  std::string TextContent() const;

  /// Number of nodes in this subtree (elements + text), including self.
  size_t SubtreeSize() const;

  /// Deep copy into `target`; the copy has no parent and order ids of 0.
  Node* CloneInto(Arena& target) const;

  /// Structural equality: same kind, name/text, attributes (ordered) and
  /// recursively equal children. Order ids are ignored.
  bool StructurallyEquals(const Node& other) const;

  /// Pre-order traversal over the subtree including self.
  void Visit(const std::function<void(const Node&)>& fn) const;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

 private:
  friend class Arena;
  friend class ParserImpl;

  Node(Arena* arena, NodeKind kind, const std::string* name)
      : arena_(arena), name_(name), kind_(kind) {}

  /// Links `child` (a detached node of this node's arena) as last child.
  void AppendChild(Node* child);

  Arena* arena_;
  Node* parent_ = nullptr;
  /// Interned tag name; text nodes point at a shared empty string.
  const std::string* name_;
  union {
    const char* text_;  // text nodes: `size_` bytes
    Attribute* attrs_ = nullptr;  // elements: `size_` attributes
  };
  Node** children_ = nullptr;
  uint32_t order_ = 0;
  uint32_t size_ = 0;
  uint32_t child_count_ = 0;
  uint32_t child_capacity_ = 0;
  NodeKind kind_;
};

static_assert(std::is_trivially_destructible_v<Node>,
              "arena-owned nodes must not need destructors");

/// Root of the tree containing `node` (identifies its document).
inline const Node* TreeRoot(const Node* node) {
  while (node->parent() != nullptr) node = node->parent();
  return node;
}

/// An XML document: a name (file name in the benchmark collections) plus a
/// single root element, all owned by the document's arena. Moving a
/// Document moves the arena pointer, never the nodes, so node pointers
/// stay valid across moves.
class Document {
 public:
  Document() = default;
  explicit Document(std::string name);

  /// A moved-from Document is empty (no root, no nodes).
  Document(Document&& other) noexcept;
  Document& operator=(Document&& other) noexcept;

  const std::string& name() const { return name_; }

  const Node* root() const { return root_; }
  Node* root() { return root_; }

  /// Total node count (elements + text nodes), numbered by the parser.
  size_t NodeCount() const { return node_count_; }
  /// The node with pre-order id `order`; nullptr when out of range.
  const Node* NodeAt(uint32_t order) const {
    return order >= 1 && order <= node_count_ ? by_order_[order - 1]
                                              : nullptr;
  }

 private:
  friend class ParserImpl;

  std::string name_;
  std::unique_ptr<Arena> arena_;
  Node* root_ = nullptr;
  /// The order table, an arena array: by_order_[i] has order id i + 1.
  const Node** by_order_ = nullptr;
  uint32_t node_count_ = 0;
};

}  // namespace xbench::xml

#endif  // XBENCH_XML_NODE_H_
