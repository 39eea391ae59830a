#include <algorithm>
#include <cstdlib>

#include "capability/source.h"
#include "common/string_util.h"

namespace limcap::capability {

Result<SourceQuery> SourceQuery::Make(
    const SourceView& view, ValueDictionaryPtr dict,
    std::vector<std::pair<std::string, Value>> bindings) {
  std::vector<std::pair<uint32_t, ValueId>> encoded;
  encoded.reserve(bindings.size());
  for (const auto& [attribute, value] : bindings) {
    auto index = view.schema().IndexOf(attribute);
    if (!index.has_value()) {
      return Status::InvalidArgument("query binds unknown attribute " +
                                     attribute + " of view " + view.name());
    }
    encoded.emplace_back(static_cast<uint32_t>(*index), dict->Intern(value));
  }
  std::sort(encoded.begin(), encoded.end());
  for (std::size_t i = 1; i < encoded.size(); ++i) {
    if (encoded[i].first == encoded[i - 1].first) {
      return Status::InvalidArgument(
          "query binds attribute " +
          view.schema().attribute(encoded[i].first) + " of view " +
          view.name() + " twice");
    }
  }
  SourceQuery query;
  query.dict = std::move(dict);
  query.positions.reserve(encoded.size());
  query.ids.reserve(encoded.size());
  for (const auto& [position, id] : encoded) {
    query.positions.push_back(position);
    query.ids.push_back(id);
  }
  return query;
}

SourceQuery SourceQuery::MakeUnsafe(
    const SourceView& view, ValueDictionaryPtr dict,
    std::vector<std::pair<std::string, Value>> bindings) {
  auto query = Make(view, std::move(dict), std::move(bindings));
  if (!query.ok()) std::abort();
  return std::move(query).value();
}

bool SourceQuery::BindsPosition(uint32_t pos) const {
  return std::binary_search(positions.begin(), positions.end(), pos);
}

bool SourceQuery::Satisfies(const BindingPattern& pattern) const {
  for (std::size_t pos = 0; pos < pattern.arity(); ++pos) {
    if (pattern.IsBound(pos) && !BindsPosition(static_cast<uint32_t>(pos))) {
      return false;
    }
  }
  return true;
}

std::optional<std::size_t> SourceQuery::SatisfiedTemplate(
    const SourceView& view) const {
  for (std::size_t t = 0; t < view.templates().size(); ++t) {
    if (Satisfies(view.templates()[t])) return t;
  }
  return std::nullopt;
}

std::map<std::string, Value> SourceQuery::DecodedBindings(
    const SourceView& view) const {
  std::map<std::string, Value> decoded;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    decoded.emplace(view.schema().attribute(positions[i]),
                    dict->Get(ids[i]));
  }
  return decoded;
}

std::string SourceQuery::Render(const SourceView& view) const {
  std::vector<std::string> parts;
  const relational::Schema& schema = view.schema();
  std::size_t next = 0;
  for (std::size_t col = 0; col < schema.arity(); ++col) {
    if (next < positions.size() && positions[next] == col) {
      parts.push_back(dict->Get(ids[next]).ToString());
      ++next;
    } else {
      parts.push_back(schema.attribute(col).substr(0, 1));
    }
  }
  return view.name() + "(" + Join(parts, ", ") + ")";
}

}  // namespace limcap::capability
