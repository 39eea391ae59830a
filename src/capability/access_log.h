#ifndef LIMCAP_CAPABILITY_ACCESS_LOG_H_
#define LIMCAP_CAPABILITY_ACCESS_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capability/source.h"
#include "relational/relation.h"

namespace limcap::capability {

/// One recorded source access — a row of the paper's Table 2.
///
/// Records are interned: the query and returned tuples are kept as
/// session-dictionary ids, and the paper-notation strings are rendered
/// only when asked for, so logging on the execution hot path formats
/// nothing. The query's shared dictionary keeps every record decodable.
struct AccessRecord {
  std::string source;                ///< view name, e.g. "v1"
  SourceQuery query;                 ///< the bindings sent (interned)
  /// View for lazy rendering; records own a shared copy because logs
  /// outlive the execution that produced them.
  std::shared_ptr<const SourceView> view;
  std::size_t tuples_returned = 0;
  std::size_t new_tuples = 0;        ///< tuples not previously obtained
  /// New tuples as session-dictionary id rows, in the view's schema.
  std::vector<relational::IdRow> returned_ids;
  /// New bindings as (attribute, session id) pairs.
  std::vector<std::pair<std::string, ValueId>> new_binding_ids;
  /// Error message when the source failed to answer (empty on success).
  std::string error;
  /// Fetch-evaluate round in which the query was issued (0-based);
  /// queries within one round depend only on earlier rounds' results, so
  /// they could be issued concurrently (see exec::EstimateMakespan).
  std::size_t round = 0;

  /// "v1(t1, C)" (paper notation).
  std::string RenderedQuery() const;
  /// "<t1, c1>" per new tuple.
  std::vector<std::string> ReturnedRendered() const;
  /// "Cd = c1" style notes.
  std::vector<std::string> NewBindings() const;
};

/// Collects per-source access statistics and the full query trace. The
/// execution engine writes one record per source query; benches read the
/// counters to compare plans by their dominant cost (source accesses).
class AccessLog {
 public:
  void Record(AccessRecord record);

  /// Makes room for `count` more records, growing the capacity to the
  /// next power of two. The evaluator calls it with a fetch round's size
  /// before committing the round, so a round reallocates at most once.
  void MakeRoomFor(std::size_t count);

  const std::vector<AccessRecord>& records() const { return records_; }
  std::size_t total_queries() const { return records_.size(); }
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

  void Clear() { records_.clear(); }

 private:
  std::vector<AccessRecord> records_;
};

}  // namespace limcap::capability

#endif  // LIMCAP_CAPABILITY_ACCESS_LOG_H_
