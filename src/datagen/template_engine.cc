#include "datagen/template_engine.h"

namespace xbench::datagen {
namespace {

xml::Node* InstantiateRec(const TemplateNode& tmpl, GenContext& ctx,
                          std::map<const TemplateNode*, int>& depth,
                          xml::Node& parent) {
  xml::Node* element = parent.AddElement(tmpl.name);
  for (const AttrTemplate& attr : tmpl.attrs) {
    if (attr.presence < 1.0 && !ctx.rng().NextBool(attr.presence)) continue;
    element->SetAttribute(attr.name, attr.value(ctx));
  }
  if (tmpl.text && tmpl.text_first) {
    element->AddText(tmpl.text(ctx));
  }
  for (const TemplateNode::Child& child : tmpl.children) {
    if (child.presence < 1.0 && !ctx.rng().NextBool(child.presence)) continue;
    const TemplateNode& child_tmpl = child.node();
    int& d = depth[&child_tmpl];
    if (d >= child.max_depth) continue;
    ++d;
    const int64_t n = child.count ? child.count->Sample(ctx.rng()) : 1;
    for (int64_t i = 0; i < n; ++i) {
      InstantiateRec(child_tmpl, ctx, depth, *element);
    }
    --d;
  }
  if (tmpl.text && !tmpl.text_first) {
    element->AddText(tmpl.text(ctx));
  }
  return element;
}

}  // namespace

TemplateNode* TemplateNode::AddChild(
    std::string child_name, std::unique_ptr<stats::Distribution> count,
    double presence) {
  Child child;
  child.owned = std::make_unique<TemplateNode>();
  child.owned->name = std::move(child_name);
  child.count = std::move(count);
  child.presence = presence;
  TemplateNode* raw = child.owned.get();
  children.push_back(std::move(child));
  return raw;
}

void TemplateNode::AddRef(const TemplateNode* target,
                          std::unique_ptr<stats::Distribution> count,
                          double presence, int max_depth) {
  Child child;
  child.ref = target;
  child.count = std::move(count);
  child.presence = presence;
  child.max_depth = max_depth;
  children.push_back(std::move(child));
}

void TemplateNode::SetAttr(std::string attr_name, ValueGen gen,
                           double presence) {
  attrs.push_back({std::move(attr_name), std::move(gen), presence});
}

xml::Node* Instantiate(const TemplateNode& tmpl, GenContext& ctx,
                       xml::Node& parent) {
  std::map<const TemplateNode*, int> depth;
  return InstantiateRec(tmpl, ctx, depth, parent);
}

}  // namespace xbench::datagen
