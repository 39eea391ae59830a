#ifndef LIMCAP_CAPABILITY_ACCESS_LOG_H_
#define LIMCAP_CAPABILITY_ACCESS_LOG_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "capability/source.h"
#include "relational/relation.h"

namespace limcap::capability {

class AccessLog;

/// One recorded source access — a row of the paper's Table 2 — read
/// through a view into the log's columns (valid while the log is alive and
/// unchanged).
///
/// Records are interned: the query and returned tuples are kept as
/// session-dictionary ids, and the paper-notation strings are rendered
/// only when asked for, so logging on the execution hot path formats
/// nothing. The channel's shared dictionary keeps every record decodable.
class AccessRecord {
 public:
  AccessRecord(const AccessLog* log, std::size_t index)
      : log_(log), index_(index) {}

  /// The view name, e.g. "v1".
  const std::string& source() const;
  const SourceView& view() const;
  /// Fetch-evaluate round in which the query was issued (0-based);
  /// queries within one round depend only on earlier rounds' results, so
  /// they could be issued concurrently (see exec::EstimateMakespan).
  std::size_t round() const;
  /// The bindings sent: ascending view-schema positions and their ids.
  std::span<const uint32_t> positions() const;
  std::span<const ValueId> query_ids() const;
  /// The dictionary every id of the record encodes against.
  const ValueDictionaryPtr& dict() const;
  /// The query as a SourceQuery (copies the bindings).
  SourceQuery query() const;
  std::size_t tuples_returned() const;
  /// Tuples not previously obtained.
  std::size_t new_tuples() const;
  /// New tuple `k` as session ids, in the view's schema.
  std::span<const ValueId> returned_ids(std::size_t k) const;
  /// New bindings: first-seen values of free attributes.
  std::size_t num_new_bindings() const;
  const std::string& binding_attribute(std::size_t k) const;
  ValueId binding_id(std::size_t k) const;
  /// Error message when the source failed to answer (empty on success).
  const std::string& error() const;

  /// "v1(t1, C)" (paper notation).
  std::string RenderedQuery() const;
  /// "<t1, c1>" per new tuple.
  std::vector<std::string> ReturnedRendered() const;
  /// "Cd = c1" style notes.
  std::vector<std::string> NewBindings() const;

 private:
  const AccessLog* log_;
  std::size_t index_;
};

/// Collects per-source access statistics and the full query trace. The
/// execution engine writes one record per source query; benches read the
/// counters to compare plans by their dominant cost (source accesses).
///
/// Storage is columnar. A writer first registers its channels (view,
/// bound positions, dictionary); a record is then a channel index, a
/// round, counts and an error index, plus offsets into three arenas: the
/// query ids, the new tuples' ids and the new bindings. Appending a miss
/// writes a few integers and its query ids, with no allocation once the
/// columns have room (MakeRoomFor).
class AccessLog {
 public:
  /// The records, in order, as AccessRecord views.
  class Records {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = AccessRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = AccessRecord;

      Iterator() = default;
      Iterator(const AccessLog* log, std::size_t index)
          : log_(log), index_(index) {}
      AccessRecord operator*() const { return AccessRecord(log_, index_); }
      Iterator& operator++() {
        ++index_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator before = *this;
        ++index_;
        return before;
      }
      bool operator==(const Iterator& other) const {
        return index_ == other.index_;
      }

     private:
      const AccessLog* log_ = nullptr;
      std::size_t index_ = 0;
    };

    explicit Records(const AccessLog* log) : log_(log) {}
    Iterator begin() const { return Iterator(log_, 0); }
    Iterator end() const { return Iterator(log_, size()); }
    std::size_t size() const { return log_->total_queries(); }
    bool empty() const { return log_->total_queries() == 0; }
    AccessRecord operator[](std::size_t i) const { return {log_, i}; }
    AccessRecord front() const { return {log_, 0}; }
    AccessRecord back() const { return {log_, size() - 1}; }

   private:
    const AccessLog* log_;
  };

  /// Registers a channel — the view (shared: logs outlive the execution
  /// that wrote them), the ascending positions its queries bind, and the
  /// dictionary their ids encode against — and returns its index, the
  /// next one in order.
  uint32_t AddChannel(std::shared_ptr<const SourceView> view,
                      std::vector<uint32_t> positions, ValueDictionaryPtr dict);

  /// Appends a record: a query on `channel`, issued in fetch round
  /// `round`, binding `query_ids` (parallel to the channel's positions),
  /// whose source returned `tuples_returned` tuples. AddReturned,
  /// AddNewBinding and SetError fill in the record just appended.
  void Append(uint32_t channel, std::size_t round,
              std::span<const ValueId> query_ids,
              std::size_t tuples_returned);
  /// Adds a new tuple (session ids in the view's schema) to the last
  /// record.
  void AddReturned(std::span<const ValueId> row);
  /// Adds a new binding — the view-schema position of a free attribute
  /// and its first-seen value — to the last record.
  void AddNewBinding(uint32_t position, ValueId id);
  /// Marks the last record failed with `message`.
  void SetError(std::string message);

  /// Makes room for `records` more records binding `query_ids` ids in
  /// all, growing each column's capacity to the next power of two. The
  /// evaluator calls it with a fetch round's size before committing the
  /// round, so a round reallocates at most once.
  void MakeRoomFor(std::size_t records, std::size_t query_ids);

  Records records() const { return Records(this); }
  std::size_t total_queries() const { return channel_.size(); }
  std::size_t QueriesTo(const std::string& source) const;
  /// Queries that returned at least one tuple.
  std::size_t productive_queries() const;
  /// Queries the source failed to answer.
  std::size_t failed_queries() const;
  std::size_t total_tuples_returned() const;

  /// Per-source query counts, sorted by source name.
  std::vector<std::pair<std::string, std::size_t>> PerSourceCounts() const;

  /// Renders the trace in the shape of the paper's Table 2
  /// (Order | Source Query | Returned Tuple(s) | New Binding(s)).
  /// When `productive_only` is set, rows with no returned tuples are
  /// elided as the paper does.
  std::string ToTable(bool productive_only) const;

  /// Drops every record and channel.
  void Clear();

 private:
  friend class AccessRecord;
  static constexpr uint32_t kNoError = ~uint32_t{0};

  struct Channel {
    std::shared_ptr<const SourceView> view;
    std::vector<uint32_t> positions;
    ValueDictionaryPtr dict;
  };
  /// Where record `i`'s run in an arena ends: the next record's begin, or
  /// the arena's end for the last record.
  static std::size_t EndOf(const std::vector<std::size_t>& begins,
                           std::size_t arena_size, std::size_t i) {
    return i + 1 < begins.size() ? begins[i + 1] : arena_size;
  }

  std::vector<Channel> channels_;
  // The columns, one entry per record.
  std::vector<uint32_t> channel_;
  std::vector<uint32_t> round_;
  std::vector<uint32_t> tuples_returned_;
  std::vector<uint32_t> new_tuples_;
  std::vector<uint32_t> error_;  ///< index into errors_, or kNoError
  std::vector<std::size_t> query_begin_;
  std::vector<std::size_t> returned_begin_;
  std::vector<std::size_t> bindings_begin_;
  // The arenas.
  std::vector<ValueId> query_ids_;
  /// New tuples, each as many ids as its view's arity.
  std::vector<ValueId> returned_ids_;
  std::vector<uint32_t> binding_positions_;
  std::vector<ValueId> binding_ids_;
  std::vector<std::string> errors_;
};

}  // namespace limcap::capability

#endif  // LIMCAP_CAPABILITY_ACCESS_LOG_H_
