#include "capability/source_view.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"

namespace limcap::capability {

const std::vector<BindingPattern> SourceView::kNoTemplates;

namespace {

AttributeSet PositionsToAttributes(const relational::Schema& schema,
                                   const std::vector<std::size_t>& positions) {
  AttributeSet out;
  for (std::size_t i : positions) out.insert(schema.attribute(i));
  return out;
}

}  // namespace

Result<SourceView> SourceView::Make(std::string name,
                                    relational::Schema schema,
                                    BindingPattern pattern) {
  std::vector<BindingPattern> templates;
  templates.push_back(std::move(pattern));
  return Make(std::move(name), std::move(schema), std::move(templates));
}

Result<SourceView> SourceView::Make(std::string name,
                                    relational::Schema schema,
                                    std::vector<BindingPattern> templates) {
  if (name.empty()) {
    return Status::InvalidArgument("source view name is empty");
  }
  if (templates.empty()) {
    return Status::InvalidArgument("view " + name + " has no template");
  }
  for (const BindingPattern& pattern : templates) {
    if (schema.arity() != pattern.arity()) {
      return Status::InvalidArgument(
          "binding pattern arity " + std::to_string(pattern.arity()) +
          " != schema arity " + std::to_string(schema.arity()) +
          " for view " + name);
    }
  }
  for (std::size_t i = 0; i < templates.size(); ++i) {
    AttributeSet bound_i =
        PositionsToAttributes(schema, templates[i].BoundPositions());
    for (std::size_t j = 0; j < templates.size(); ++j) {
      if (i == j) continue;
      AttributeSet bound_j =
          PositionsToAttributes(schema, templates[j].BoundPositions());
      // Template i is redundant if its requirements imply template j's
      // (every query usable under i is usable under j). Strict-superset
      // only: duplicate patterns are caught by i < j.
      bool i_implies_j = std::includes(bound_i.begin(), bound_i.end(),
                                       bound_j.begin(), bound_j.end());
      if (i_implies_j && (bound_i != bound_j || i > j)) {
        return Status::InvalidArgument(
            "view " + name + ": template " + templates[i].ToString() +
            " is redundant given template " + templates[j].ToString());
      }
    }
  }
  return SourceView(std::move(name), std::move(schema), std::move(templates));
}

SourceView SourceView::MakeUnsafe(std::string name,
                                  std::vector<std::string> attributes,
                                  std::string_view pattern) {
  return MakeUnsafe(std::move(name), std::move(attributes),
                    std::vector<std::string>{std::string(pattern)});
}

SourceView SourceView::MakeUnsafe(std::string name,
                                  std::vector<std::string> attributes,
                                  std::vector<std::string> patterns) {
  auto schema = relational::Schema::Make(std::move(attributes));
  if (!schema.ok()) std::abort();
  std::vector<BindingPattern> templates;
  for (const std::string& pattern : patterns) {
    auto parsed = BindingPattern::Parse(pattern);
    if (!parsed.ok()) std::abort();
    templates.push_back(std::move(parsed).value());
  }
  auto view = Make(std::move(name), std::move(schema).value(),
                   std::move(templates));
  if (!view.ok()) std::abort();
  return std::move(view).value();
}

AttributeSet SourceView::Attributes() const {
  return AttributeSet(schema_.attributes().begin(),
                      schema_.attributes().end());
}

AttributeSet SourceView::BoundAttributes() const { return BoundAttributes(0); }

AttributeSet SourceView::FreeAttributes() const { return FreeAttributes(0); }

AttributeSet SourceView::BoundAttributes(std::size_t template_index) const {
  return PositionsToAttributes(schema_,
                               templates()[template_index].BoundPositions());
}

AttributeSet SourceView::FreeAttributes(std::size_t template_index) const {
  return PositionsToAttributes(schema_,
                               templates()[template_index].FreePositions());
}

bool SourceView::RequirementsSatisfiedBy(const AttributeSet& bound) const {
  return SatisfiedTemplate(bound).has_value();
}

std::optional<std::size_t> SourceView::SatisfiedTemplate(
    const AttributeSet& bound) const {
  for (std::size_t t = 0; t < templates().size(); ++t) {
    bool satisfied = true;
    for (std::size_t i : templates()[t].BoundPositions()) {
      if (bound.count(schema_.attribute(i)) == 0) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) return t;
  }
  return std::nullopt;
}

std::string SourceView::ToString() const {
  return name_ + schema_.ToString() + " [" +
         JoinMapped(templates(), "|",
                    [](const BindingPattern& p) { return p.ToString(); }) +
         "]";
}

std::string SourceView::FormatQuery(
    const std::map<std::string, Value>& bindings) const {
  std::vector<std::string> parts;
  for (const std::string& attribute : schema_.attributes()) {
    auto it = bindings.find(attribute);
    if (it != bindings.end()) {
      parts.push_back(it->second.ToString());
    } else {
      parts.push_back(attribute.substr(0, 1));
    }
  }
  return name_ + "(" + Join(parts, ", ") + ")";
}

}  // namespace limcap::capability
