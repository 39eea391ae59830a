#include "capability/access_log.h"

#include <algorithm>
#include <bit>

#include "common/string_util.h"
#include "common/text_table.h"

namespace limcap::capability {

namespace {

/// The smallest capacity a column grows to, so the few records of a
/// small answer take one allocation per column, not one per round.
constexpr std::size_t kMinRecords = 16;
/// Channels a log makes room for when it registers its first: most
/// executions register a handful, which then take one allocation.
constexpr std::size_t kMinChannels = 8;

/// Grows `column`'s capacity to hold `count` more entries, to the next
/// power of two (at least kMinRecords).
template <typename T>
void GrowFor(std::vector<T>& column, std::size_t count) {
  const std::size_t needed = column.size() + count;
  if (needed > column.capacity()) {
    column.reserve(std::max(std::bit_ceil(needed), kMinRecords));
  }
}

}  // namespace

const std::string& AccessRecord::source() const { return view().name(); }

const SourceView& AccessRecord::view() const {
  return *log_->channels_[log_->channel_[index_]].view;
}

std::size_t AccessRecord::round() const { return log_->round_[index_]; }

std::span<const uint32_t> AccessRecord::positions() const {
  return log_->channels_[log_->channel_[index_]].positions;
}

std::span<const ValueId> AccessRecord::query_ids() const {
  const std::size_t begin = log_->query_begin_[index_];
  const std::size_t end = AccessLog::EndOf(
      log_->query_begin_, log_->query_ids_.size(), index_);
  return {log_->query_ids_.data() + begin, end - begin};
}

const ValueDictionaryPtr& AccessRecord::dict() const {
  return log_->channels_[log_->channel_[index_]].dict;
}

SourceQuery AccessRecord::query() const {
  SourceQuery query;
  query.positions.assign(positions().begin(), positions().end());
  query.ids.assign(query_ids().begin(), query_ids().end());
  query.dict = dict();
  return query;
}

std::size_t AccessRecord::tuples_returned() const {
  return log_->tuples_returned_[index_];
}

std::size_t AccessRecord::new_tuples() const {
  return log_->new_tuples_[index_];
}

std::span<const ValueId> AccessRecord::returned_ids(std::size_t k) const {
  const std::size_t arity = view().schema().arity();
  return {log_->returned_ids_.data() + log_->returned_begin_[index_] +
              k * arity,
          arity};
}

std::size_t AccessRecord::num_new_bindings() const {
  return AccessLog::EndOf(log_->bindings_begin_, log_->binding_ids_.size(),
                          index_) -
         log_->bindings_begin_[index_];
}

const std::string& AccessRecord::binding_attribute(std::size_t k) const {
  return view().schema().attribute(
      log_->binding_positions_[log_->bindings_begin_[index_] + k]);
}

ValueId AccessRecord::binding_id(std::size_t k) const {
  return log_->binding_ids_[log_->bindings_begin_[index_] + k];
}

const std::string& AccessRecord::error() const {
  static const std::string kNone;
  const uint32_t error = log_->error_[index_];
  return error == AccessLog::kNoError ? kNone : log_->errors_[error];
}

std::string AccessRecord::RenderedQuery() const {
  if (dict() == nullptr) return "";
  return query().Render(view());
}

std::vector<std::string> AccessRecord::ReturnedRendered() const {
  std::vector<std::string> rendered;
  rendered.reserve(new_tuples());
  for (std::size_t k = 0; k < new_tuples(); ++k) {
    const std::span<const ValueId> row = returned_ids(k);
    std::vector<std::string> parts;
    parts.reserve(row.size());
    for (ValueId id : row) parts.push_back(dict()->Get(id).ToString());
    rendered.push_back(StrCat({"<", Join(parts, ", "), ">"}));
  }
  return rendered;
}

std::vector<std::string> AccessRecord::NewBindings() const {
  std::vector<std::string> rendered;
  rendered.reserve(num_new_bindings());
  for (std::size_t k = 0; k < num_new_bindings(); ++k) {
    rendered.push_back(binding_attribute(k) + " = " +
                       dict()->Get(binding_id(k)).ToString());
  }
  return rendered;
}

uint32_t AccessLog::AddChannel(std::shared_ptr<const SourceView> view,
                               std::vector<uint32_t> positions,
                               ValueDictionaryPtr dict) {
  if (channels_.empty()) channels_.reserve(kMinChannels);
  Channel& channel = channels_.emplace_back();
  channel.view = std::move(view);
  channel.positions = std::move(positions);
  channel.dict = std::move(dict);
  return static_cast<uint32_t>(channels_.size() - 1);
}

void AccessLog::Append(uint32_t channel, std::size_t round,
                       std::span<const ValueId> query_ids,
                       std::size_t tuples_returned) {
  channel_.push_back(channel);
  round_.push_back(static_cast<uint32_t>(round));
  tuples_returned_.push_back(static_cast<uint32_t>(tuples_returned));
  new_tuples_.push_back(0);
  error_.push_back(kNoError);
  query_begin_.push_back(query_ids_.size());
  returned_begin_.push_back(returned_ids_.size());
  bindings_begin_.push_back(binding_ids_.size());
  query_ids_.insert(query_ids_.end(), query_ids.begin(), query_ids.end());
}

void AccessLog::AddReturned(std::span<const ValueId> row) {
  ++new_tuples_.back();
  returned_ids_.insert(returned_ids_.end(), row.begin(), row.end());
}

void AccessLog::AddNewBinding(uint32_t position, ValueId id) {
  binding_positions_.push_back(position);
  binding_ids_.push_back(id);
}

void AccessLog::SetError(std::string message) {
  error_.back() = static_cast<uint32_t>(errors_.size());
  errors_.push_back(std::move(message));
}

void AccessLog::MakeRoomFor(std::size_t records, std::size_t query_ids) {
  // Power-of-two capacities, the sizes push_back reaches, so answers keep
  // asking the allocator for block sizes it has freed before; exact sizes
  // fragment the heap and raise the peak footprint of concurrent answers.
  GrowFor(channel_, records);
  GrowFor(round_, records);
  GrowFor(tuples_returned_, records);
  GrowFor(new_tuples_, records);
  GrowFor(error_, records);
  GrowFor(query_begin_, records);
  GrowFor(returned_begin_, records);
  GrowFor(bindings_begin_, records);
  GrowFor(query_ids_, query_ids);
}

std::size_t AccessLog::QueriesTo(const std::string& source) const {
  std::vector<char> named(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    named[c] = channels_[c].view->name() == source;
  }
  std::size_t count = 0;
  for (uint32_t channel : channel_) count += named[channel];
  return count;
}

std::size_t AccessLog::productive_queries() const {
  std::size_t count = 0;
  for (uint32_t tuples : tuples_returned_) count += tuples > 0;
  return count;
}

std::size_t AccessLog::failed_queries() const {
  std::size_t count = 0;
  for (uint32_t error : error_) count += error != kNoError;
  return count;
}

std::size_t AccessLog::total_tuples_returned() const {
  std::size_t count = 0;
  for (uint32_t tuples : tuples_returned_) count += tuples;
  return count;
}

std::vector<std::pair<std::string, std::size_t>> AccessLog::PerSourceCounts()
    const {
  std::map<std::string, std::size_t> counts;
  for (uint32_t channel : channel_) ++counts[channels_[channel].view->name()];
  return std::vector<std::pair<std::string, std::size_t>>(counts.begin(),
                                                          counts.end());
}

std::string AccessLog::ToTable(bool productive_only) const {
  TextTable table(
      {"Order", "Source Query", "Returned Tuple(s)", "New Binding(s)"});
  std::size_t order = 0;
  for (const AccessRecord& record : records()) {
    if (productive_only && record.tuples_returned() == 0) continue;
    ++order;
    table.AddRow({std::to_string(order), record.RenderedQuery(),
                  Join(record.ReturnedRendered(), ", "),
                  Join(record.NewBindings(), ", ")});
  }
  return table.ToString();
}

void AccessLog::Clear() { *this = AccessLog(); }

}  // namespace limcap::capability
