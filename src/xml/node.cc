#include "xml/node.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace xbench::xml {

void Node::AppendChild(Node* child) {
  child->parent_ = this;
  if (child_count_ == child_capacity_) {
    // Builders append one child at a time; doubling keeps the abandoned
    // arrays within the arena smaller than the live one, and the many
    // elements with a single (text) child get an exact array.
    const uint32_t capacity = child_capacity_ == 0 ? 1 : 2 * child_capacity_;
    Node** grown = arena_->AllocateArray<Node*>(capacity);
    if (child_count_ != 0) {
      std::memcpy(grown, children_, child_count_ * sizeof(Node*));
    }
    children_ = grown;
    child_capacity_ = capacity;
  }
  children_[child_count_++] = child;
}

Node* Node::AddElement(std::string_view name) {
  Node* child = arena_->NewElement(name);
  AppendChild(child);
  return child;
}

void Node::AddText(std::string_view content) {
  if (content.empty()) return;
  AppendChild(arena_->NewText(content));
}

Node* Node::AddSimple(std::string_view name, std::string_view content) {
  Node* child = AddElement(name);
  child->AddText(content);
  return child;
}

Node* Node::AppendCopy(const Node& source) {
  Node* copy = source.CloneInto(*arena_);
  AppendChild(copy);
  return copy;
}

void Node::SetAttribute(std::string_view name, std::string_view value) {
  for (uint32_t i = 0; i < size_; ++i) {
    if (attrs_[i].name == name) {
      attrs_[i].value = arena_->CopyString(value);
      return;
    }
  }
  // Elements carry a handful of attributes; grow the array by one.
  Attribute* grown = arena_->AllocateArray<Attribute>(size_ + 1);
  std::copy(attrs_, attrs_ + size_, grown);
  grown[size_] = {arena_->Intern(name), arena_->CopyString(value)};
  attrs_ = grown;
  ++size_;
}

const std::string_view* Node::FindAttribute(std::string_view name) const {
  for (const Attribute& attr : attributes()) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

const Node* Node::FirstChild(std::string_view name) const {
  for (const Node* child : children()) {
    if (child->is_element() && child->name() == name) return child;
  }
  return nullptr;
}

Node* Node::FirstChild(std::string_view name) {
  return const_cast<Node*>(
      static_cast<const Node*>(this)->FirstChild(name));
}

std::vector<const Node*> Node::Children(std::string_view name) const {
  std::vector<const Node*> out;
  for (const Node* child : children()) {
    if (child->is_element() && child->name() == name) out.push_back(child);
  }
  return out;
}

std::vector<const Node*> Node::ChildElements() const {
  std::vector<const Node*> out;
  for (const Node* child : children()) {
    if (child->is_element()) out.push_back(child);
  }
  return out;
}

namespace {

void AppendText(const Node& node, std::string& out) {
  if (node.is_text()) {
    out += node.text();
    return;
  }
  for (const Node* child : node.children()) AppendText(*child, out);
}

}  // namespace

std::string Node::TextContent() const {
  std::string out;
  AppendText(*this, out);
  return out;
}

size_t Node::SubtreeSize() const {
  size_t count = 1;
  for (const Node* child : children()) count += child->SubtreeSize();
  return count;
}

Node* Node::CloneInto(Arena& target) const {
  Node* copy = is_text() ? target.NewText(text()) : target.NewElement(name());
  if (is_text()) return copy;
  if (size_ != 0) {
    copy->attrs_ = target.AllocateArray<Attribute>(size_);
    for (uint32_t i = 0; i < size_; ++i) {
      copy->attrs_[i] = {target.Intern(attrs_[i].name),
                         target.CopyString(attrs_[i].value)};
    }
    copy->size_ = size_;
  }
  if (child_count_ != 0) {
    copy->children_ = target.AllocateArray<Node*>(child_count_);
    for (uint32_t i = 0; i < child_count_; ++i) {
      Node* child = children_[i]->CloneInto(target);
      child->parent_ = copy;
      copy->children_[i] = child;
    }
    copy->child_count_ = child_count_;
    copy->child_capacity_ = child_count_;
  }
  return copy;
}

bool Node::StructurallyEquals(const Node& other) const {
  if (kind_ != other.kind_ || name() != other.name() ||
      text() != other.text() || child_count_ != other.child_count_) {
    return false;
  }
  const auto attrs = attributes();
  const auto other_attrs = other.attributes();
  if (!std::equal(attrs.begin(), attrs.end(), other_attrs.begin(),
                  other_attrs.end())) {
    return false;
  }
  for (uint32_t i = 0; i < child_count_; ++i) {
    if (!children_[i]->StructurallyEquals(*other.children_[i])) return false;
  }
  return true;
}

void Node::Visit(const std::function<void(const Node&)>& fn) const {
  fn(*this);
  for (const Node* child : children()) child->Visit(fn);
}

Document::Document(std::string name) : name_(std::move(name)) {}

Document::Document(Document&& other) noexcept
    : name_(std::move(other.name_)),
      arena_(std::move(other.arena_)),
      root_(std::exchange(other.root_, nullptr)),
      by_order_(std::exchange(other.by_order_, nullptr)),
      node_count_(std::exchange(other.node_count_, 0)) {}

Document& Document::operator=(Document&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    arena_ = std::move(other.arena_);
    root_ = std::exchange(other.root_, nullptr);
    by_order_ = std::exchange(other.by_order_, nullptr);
    node_count_ = std::exchange(other.node_count_, 0);
  }
  return *this;
}

Node* Document::CreateRoot(std::string_view element_name) {
  if (arena_ == nullptr) arena_ = std::make_unique<Arena>();
  root_ = arena_->NewElement(element_name);
  by_order_ = nullptr;
  node_count_ = 0;
  return root_;
}

namespace {

void AssignOrderRec(Node* node, const Node** by_order, uint32_t& count) {
  by_order[count++] = node;
  node->set_order(count);
  for (Node* child : node->children()) {
    AssignOrderRec(child, by_order, count);
  }
}

}  // namespace

void Document::AssignOrder() {
  node_count_ = 0;
  if (root_ == nullptr) return;
  by_order_ = arena_->AllocateArray<const Node*>(root_->SubtreeSize());
  AssignOrderRec(root_, by_order_, node_count_);
}

Document Document::Clone() const {
  Document copy(name_);
  if (root_ != nullptr) {
    copy.arena_ = std::make_unique<Arena>(arena_->reserved_bytes());
    copy.root_ = root_->CloneInto(*copy.arena_);
    copy.AssignOrder();
  }
  return copy;
}

}  // namespace xbench::xml
