#include "relational/schema.h"

#include <cstdlib>
#include <unordered_set>

#include "common/string_util.h"

namespace limcap::relational {

const std::vector<std::string> Schema::kNoAttributes;

Result<Schema> Schema::Make(std::vector<std::string> attributes) {
  std::unordered_set<std::string> seen;
  for (const std::string& name : attributes) {
    if (name.empty()) {
      return Status::InvalidArgument("schema attribute name is empty");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("duplicate schema attribute: " + name);
    }
  }
  return Schema(std::move(attributes));
}

Schema Schema::MakeUnsafe(std::vector<std::string> attributes) {
  auto result = Make(std::move(attributes));
  if (!result.ok()) {
    std::abort();
  }
  return std::move(result).value();
}

std::optional<std::size_t> Schema::IndexOf(const std::string& name) const {
  const std::vector<std::string>& names = attributes();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return std::nullopt;
}

std::vector<std::string> Schema::CommonAttributes(const Schema& other) const {
  std::vector<std::string> common;
  for (const std::string& name : attributes()) {
    if (other.Contains(name)) common.push_back(name);
  }
  return common;
}

Schema Schema::NaturalJoinSchema(const Schema& other) const {
  std::vector<std::string> joined = attributes();
  for (const std::string& name : other.attributes()) {
    if (!Contains(name)) joined.push_back(name);
  }
  return Schema(std::move(joined));
}

std::string Schema::ToString() const {
  return "(" + Join(attributes(), ", ") + ")";
}

}  // namespace limcap::relational
