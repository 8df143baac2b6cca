#include "xml/dtd.h"

#include "common/strings.h"

namespace xbench::xml {
namespace {

/// Splits "a+, b?, c" into particles.
Result<std::vector<Dtd::Particle>> ParseSequence(std::string_view body) {
  std::vector<Dtd::Particle> out;
  for (const std::string& raw : Split(body, ',')) {
    std::string token{Trim(raw)};
    if (token.empty()) {
      return Status::InvalidArgument("empty particle in content model");
    }
    Dtd::Particle particle;
    const char last = token.back();
    if (last == '?' || last == '+' || last == '*') {
      particle.occurrence = last;
      token.pop_back();
    }
    particle.name = std::string(Trim(token));
    if (particle.name.empty()) {
      return Status::InvalidArgument("missing element name in content model");
    }
    out.push_back(std::move(particle));
  }
  return out;
}

}  // namespace

Result<Dtd> Dtd::Parse(std::string_view text) {
  Dtd dtd;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t open = text.find("<!", pos);
    if (open == std::string_view::npos) break;
    const size_t close = text.find('>', open);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated declaration");
    }
    std::string_view decl = text.substr(open + 2, close - open - 2);
    pos = close + 1;

    if (StartsWith(decl, "ELEMENT")) {
      decl.remove_prefix(7);
      decl = Trim(decl);
      const size_t space = decl.find_first_of(" \t");
      if (space == std::string_view::npos) {
        return Status::InvalidArgument("ELEMENT without content model");
      }
      const std::string name{decl.substr(0, space)};
      std::string_view model = Trim(decl.substr(space));
      ElementDecl element;
      if (model == "EMPTY") {
        element.model = Model::kEmpty;
      } else if (model == "(#PCDATA)") {
        element.model = Model::kPcdata;
      } else if (StartsWith(model, "(#PCDATA") && EndsWith(model, ")*")) {
        element.model = Model::kMixed;
        std::string_view names = model.substr(8, model.size() - 10);
        for (const std::string& part : Split(names, '|')) {
          const std::string trimmed{Trim(part)};
          if (!trimmed.empty()) element.mixed.insert(trimmed);
        }
      } else if (StartsWith(model, "(") && EndsWith(model, ")")) {
        element.model = Model::kSequence;
        XBENCH_ASSIGN_OR_RETURN(
            element.sequence,
            ParseSequence(model.substr(1, model.size() - 2)));
      } else {
        return Status::InvalidArgument("unsupported content model: " +
                                       std::string(model));
      }
      dtd.elements_[name] = std::move(element);
    } else if (StartsWith(decl, "ATTLIST")) {
      decl.remove_prefix(7);
      std::vector<std::string> parts;
      for (const std::string& part : Split(decl, ' ')) {
        if (!std::string_view(Trim(part)).empty()) {
          parts.emplace_back(Trim(part));
        }
      }
      if (parts.size() != 4 || parts[2] != "CDATA") {
        return Status::InvalidArgument("unsupported ATTLIST form");
      }
      auto it = dtd.elements_.find(parts[0]);
      if (it == dtd.elements_.end()) {
        return Status::InvalidArgument("ATTLIST for undeclared element '" +
                                       parts[0] + "'");
      }
      it->second.attributes[parts[1]] = parts[3] == "#REQUIRED";
    } else {
      return Status::InvalidArgument("unsupported declaration <!" +
                                     std::string(decl.substr(0, 10)) + "...");
    }
  }
  if (dtd.elements_.empty()) {
    return Status::InvalidArgument("DTD declares no elements");
  }
  return dtd;
}

const Dtd::ElementDecl* Dtd::FindElement(const std::string& name) const {
  auto it = elements_.find(name);
  return it == elements_.end() ? nullptr : &it->second;
}

std::vector<std::string> Dtd::ElementNames() const {
  std::vector<std::string> out;
  out.reserve(elements_.size());
  for (const auto& [name, decl] : elements_) out.push_back(name);
  return out;
}

namespace {

Status ValidateElement(const Dtd& dtd, const Node& node);

Status ValidateContent(const Dtd::ElementDecl& decl, const Node& node) {
  switch (decl.model) {
    case Dtd::Model::kEmpty:
      if (!node.children().empty()) {
        return Status::InvalidArgument("element '" + node.name() +
                                       "' declared EMPTY has content");
      }
      return Status::Ok();
    case Dtd::Model::kPcdata:
      for (const auto& child : node.children()) {
        if (child->is_element()) {
          return Status::InvalidArgument(
              "element '" + node.name() +
              "' declared (#PCDATA) contains element <" + child->name() +
              ">");
        }
      }
      return Status::Ok();
    case Dtd::Model::kMixed:
      for (const auto& child : node.children()) {
        if (child->is_element() &&
            decl.mixed.count(child->name()) == 0) {
          return Status::InvalidArgument("element <" + child->name() +
                                         "> not allowed in mixed content of '" +
                                         node.name() + "'");
        }
      }
      return Status::Ok();
    case Dtd::Model::kSequence: {
      // Text is not allowed in an element-content model (indentation
      // whitespace is stripped by our parser).
      std::vector<const Node*> children;
      for (const auto& child : node.children()) {
        if (child->is_text()) {
          if (!std::string_view(Trim(child->text())).empty()) {
            return Status::InvalidArgument(
                "unexpected character data in element content of '" +
                node.name() + "'");
          }
          continue;
        }
        children.push_back(child);
      }
      size_t i = 0;
      for (const Dtd::Particle& particle : decl.sequence) {
        size_t count = 0;
        while (i < children.size() && children[i]->name() == particle.name) {
          ++count;
          ++i;
        }
        const size_t min = particle.occurrence == '1' ? 1
                           : particle.occurrence == '+' ? 1
                                                        : 0;
        const size_t max =
            (particle.occurrence == '1' || particle.occurrence == '?')
                ? 1
                : static_cast<size_t>(-1);
        if (count < min || count > max) {
          return Status::InvalidArgument(
              "content of '" + node.name() + "' violates model at '" +
              particle.name + "' (saw " + std::to_string(count) + ")");
        }
      }
      if (i != children.size()) {
        return Status::InvalidArgument("unexpected element <" +
                                       children[i]->name() + "> in '" +
                                       node.name() + "'");
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled content model");
}

Status ValidateElement(const Dtd& dtd, const Node& node) {
  const Dtd::ElementDecl* decl = dtd.FindElement(node.name());
  if (decl == nullptr) {
    return Status::InvalidArgument("undeclared element <" + node.name() +
                                   ">");
  }
  // Attributes.
  for (const Attribute& attr : node.attributes()) {
    if (decl->attributes.count(std::string(attr.name)) == 0) {
      return Status::InvalidArgument("undeclared attribute '" +
                                     std::string(attr.name) + "' on <" +
                                     node.name() + ">");
    }
  }
  for (const auto& [name, required] : decl->attributes) {
    if (required && node.FindAttribute(name) == nullptr) {
      return Status::InvalidArgument("missing required attribute '" + name +
                                     "' on <" + node.name() + ">");
    }
  }
  XBENCH_RETURN_IF_ERROR(ValidateContent(*decl, node));
  for (const auto& child : node.children()) {
    if (child->is_element()) {
      XBENCH_RETURN_IF_ERROR(ValidateElement(dtd, *child));
    }
  }
  return Status::Ok();
}

}  // namespace

Status Dtd::Validate(const Node& root) const {
  return ValidateElement(*this, root);
}

}  // namespace xbench::xml
