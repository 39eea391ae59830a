#ifndef LIMCAP_CAPABILITY_SOURCE_VIEW_H_
#define LIMCAP_CAPABILITY_SOURCE_VIEW_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "capability/binding_pattern.h"
#include "common/result.h"
#include "common/value.h"
#include "relational/schema.h"

namespace limcap::capability {

/// A set of global attribute names — the currency of the paper's closure
/// computations (f-closure, kernels, backward-closure).
using AttributeSet = std::set<std::string>;

/// A source view: a name, a relational schema over global attributes, and
/// one or more adorned templates (binding patterns) describing the query
/// forms the source accepts (paper Section 2.1). `v_i` stands for both
/// the view and its adorned template(s), as in the paper.
///
/// The paper assumes a single template per view "for simplicity of
/// exposition"; real sources (its amazon.com example accepts any of ISBN,
/// author, or title) offer several. limcap supports the general case: a
/// query is executable when it satisfies at least one template. All
/// single-template accessors (`pattern()`, `BoundAttributes()`, ...)
/// refer to the primary (first) template.
class SourceView {
 public:
  SourceView() = default;

  /// Fails when the pattern arity differs from the schema arity.
  static Result<SourceView> Make(std::string name, relational::Schema schema,
                                 BindingPattern pattern);

  /// Multi-template constructor; requires at least one template, each of
  /// the schema's arity, no duplicates, and no template whose bound set
  /// is a superset of another's (it would be redundant: any query
  /// satisfying it satisfies the weaker one).
  static Result<SourceView> Make(std::string name, relational::Schema schema,
                                 std::vector<BindingPattern> templates);

  /// Convenience from attribute names and adornment text, e.g.
  /// Make("v3", {"Cd", "Artist", "Price"}, "bff"). Aborts on bad input.
  static SourceView MakeUnsafe(std::string name,
                               std::vector<std::string> attributes,
                               std::string_view pattern);

  /// Multi-template convenience: MakeUnsafe("b", {...}, {"bff", "fbf"}).
  static SourceView MakeUnsafe(std::string name,
                               std::vector<std::string> attributes,
                               std::vector<std::string> patterns);

  const std::string& name() const { return name_; }
  const relational::Schema& schema() const { return schema_; }

  /// The primary (first) template.
  const BindingPattern& pattern() const { return templates().front(); }
  const std::vector<BindingPattern>& templates() const {
    return templates_ != nullptr ? *templates_ : kNoTemplates;
  }
  bool has_multiple_templates() const { return templates().size() > 1; }

  /// A(v): all attributes.
  AttributeSet Attributes() const;
  /// B(v) of the primary template: attributes that must be bound.
  AttributeSet BoundAttributes() const;
  /// F(v) of the primary template: attributes that may be free.
  AttributeSet FreeAttributes() const;
  /// B / F of a specific template.
  AttributeSet BoundAttributes(std::size_t template_index) const;
  AttributeSet FreeAttributes(std::size_t template_index) const;

  /// True when a query binding exactly the attributes in `bound` (or a
  /// superset) satisfies some template's requirements.
  bool RequirementsSatisfiedBy(const AttributeSet& bound) const;

  /// Index of the first template whose requirements `bound` satisfies,
  /// or nullopt.
  std::optional<std::size_t> SatisfiedTemplate(const AttributeSet& bound) const;

  /// "v3(Cd, Artist, Price) [bff]" / "b(Author, Title, Price) [bff|fbf]".
  std::string ToString() const;

  /// Renders a source query in the paper's notation, e.g. "v3(c1, A, P)":
  /// bound attributes show their value, free attributes show the
  /// attribute's first letter as a variable.
  std::string FormatQuery(const std::map<std::string, Value>& bindings) const;

 private:
  SourceView(std::string name, relational::Schema schema,
             std::vector<BindingPattern> templates)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        templates_(std::make_shared<const std::vector<BindingPattern>>(
            std::move(templates))) {}

  static const std::vector<BindingPattern> kNoTemplates;

  std::string name_;
  relational::Schema schema_;
  /// Immutable and shared, like the schema's attributes: a copy of the
  /// view (the catalog keeps one per registered source) allocates
  /// nothing for them. Null only in a default-constructed view.
  std::shared_ptr<const std::vector<BindingPattern>> templates_;
};

}  // namespace limcap::capability

#endif  // LIMCAP_CAPABILITY_SOURCE_VIEW_H_
