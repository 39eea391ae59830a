#include "capability/access_log.h"

#include <bit>

#include "common/string_util.h"
#include "common/text_table.h"

namespace limcap::capability {

std::string AccessRecord::RenderedQuery() const {
  if (view == nullptr || query.dict == nullptr) return "";
  return query.Render(*view);
}

std::vector<std::string> AccessRecord::ReturnedRendered() const {
  std::vector<std::string> rendered;
  rendered.reserve(returned_ids.size());
  for (const relational::IdRow& row : returned_ids) {
    std::vector<std::string> parts;
    parts.reserve(row.size());
    for (ValueId id : row) parts.push_back(query.dict->Get(id).ToString());
    rendered.push_back("<" + Join(parts, ", ") + ">");
  }
  return rendered;
}

std::vector<std::string> AccessRecord::NewBindings() const {
  std::vector<std::string> rendered;
  rendered.reserve(new_binding_ids.size());
  for (const auto& [attribute, id] : new_binding_ids) {
    rendered.push_back(attribute + " = " + query.dict->Get(id).ToString());
  }
  return rendered;
}

void AccessLog::Record(AccessRecord record) {
  records_.push_back(std::move(record));
}

void AccessLog::MakeRoomFor(std::size_t count) {
  const std::size_t needed = records_.size() + count;
  // Power-of-two capacities, the sizes push_back reaches, so answers keep
  // asking the allocator for block sizes it has freed before; exact sizes
  // fragment the heap and raise the peak footprint of concurrent answers.
  if (needed > records_.capacity()) records_.reserve(std::bit_ceil(needed));
}

std::size_t AccessLog::QueriesTo(const std::string& source) const {
  std::size_t count = 0;
  for (const AccessRecord& record : records_) {
    if (record.source == source) ++count;
  }
  return count;
}

std::size_t AccessLog::productive_queries() const {
  std::size_t count = 0;
  for (const AccessRecord& record : records_) {
    if (record.tuples_returned > 0) ++count;
  }
  return count;
}

std::size_t AccessLog::failed_queries() const {
  std::size_t count = 0;
  for (const AccessRecord& record : records_) {
    if (!record.error.empty()) ++count;
  }
  return count;
}

std::size_t AccessLog::total_tuples_returned() const {
  std::size_t count = 0;
  for (const AccessRecord& record : records_) {
    count += record.tuples_returned;
  }
  return count;
}

std::vector<std::pair<std::string, std::size_t>> AccessLog::PerSourceCounts()
    const {
  std::map<std::string, std::size_t> counts;
  for (const AccessRecord& record : records_) ++counts[record.source];
  return std::vector<std::pair<std::string, std::size_t>>(counts.begin(),
                                                          counts.end());
}

std::string AccessLog::ToTable(bool productive_only) const {
  TextTable table(
      {"Order", "Source Query", "Returned Tuple(s)", "New Binding(s)"});
  std::size_t order = 0;
  for (const AccessRecord& record : records_) {
    if (productive_only && record.tuples_returned == 0) continue;
    ++order;
    table.AddRow({std::to_string(order), record.RenderedQuery(),
                  Join(record.ReturnedRendered(), ", "),
                  Join(record.NewBindings(), ", ")});
  }
  return table.ToString();
}

}  // namespace limcap::capability
