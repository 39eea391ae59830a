#ifndef LIMCAP_RELATIONAL_SCHEMA_H_
#define LIMCAP_RELATIONAL_SCHEMA_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"

namespace limcap::relational {

/// An ordered list of distinct attribute names. Following the paper's
/// universal-relation-like assumption (Section 2.1), attribute names are
/// global: two views sharing an attribute name share its meaning, and
/// natural joins equate attributes by name.
///
/// The attribute list is immutable and shared: copying a schema (every
/// relation and source answer carries one) bumps a reference count and
/// allocates nothing. The empty schema holds no list at all.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema; fails if names repeat or are empty.
  static Result<Schema> Make(std::vector<std::string> attributes);

  /// Convenience for static catalogs; aborts on invalid input.
  static Schema MakeUnsafe(std::vector<std::string> attributes);

  const std::vector<std::string>& attributes() const {
    return attributes_ != nullptr ? *attributes_ : kNoAttributes;
  }
  std::size_t arity() const { return attributes().size(); }
  const std::string& attribute(std::size_t i) const {
    return (*attributes_)[i];
  }

  /// Position of `name`, or nullopt.
  std::optional<std::size_t> IndexOf(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return IndexOf(name).has_value();
  }

  /// Attribute names shared with `other`, in this schema's order.
  std::vector<std::string> CommonAttributes(const Schema& other) const;

  /// Schema of the natural join with `other`: this schema's attributes
  /// followed by `other`'s attributes not already present.
  Schema NaturalJoinSchema(const Schema& other) const;

  /// Equal attribute lists; schemas sharing one list compare without
  /// reading it.
  bool operator==(const Schema& other) const {
    return attributes_ == other.attributes_ ||
           attributes() == other.attributes();
  }

  /// "(A, B, C)".
  std::string ToString() const;

 private:
  explicit Schema(std::vector<std::string> attributes)
      : attributes_(attributes.empty()
                        ? nullptr
                        : std::make_shared<const std::vector<std::string>>(
                              std::move(attributes))) {}

  static const std::vector<std::string> kNoAttributes;

  std::shared_ptr<const std::vector<std::string>> attributes_;
};

}  // namespace limcap::relational

#endif  // LIMCAP_RELATIONAL_SCHEMA_H_
