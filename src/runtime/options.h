#ifndef LIMCAP_RUNTIME_OPTIONS_H_
#define LIMCAP_RUNTIME_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "runtime/latency_model.h"
#include "runtime/retry_policy.h"

namespace limcap::runtime {

class AdaptiveState;
class FetchGovernor;
class FetchRecorder;

/// Configuration of the runtime-adaptive dispatch layer
/// (runtime/adaptive_dispatcher.h) between the source-driven evaluator
/// and the fetch scheduler. Everything is off by default: the default
/// path is bit-identical to the pre-adaptive runtime. With `enabled`,
/// three independently toggleable mechanisms apply per batch:
///
///   * dynamic relevance pruning — fetches the analysis-side checker
///     proves useless against the actually-materialized bindings are
///     skipped (each with a machine-checkable certificate);
///   * cost-aware ordering + batching — dispatch is permuted by an
///     online expected-useful-rows-per-ms score, and consecutive
///     requests to the same (source, bound positions) are marked as one
///     batched source call on the simulated timeline;
///   * hedged requests — a fetch whose simulated latency overshoots the
///     source's learned p95 is duplicated after that delay and the first
///     arrival wins (timing-model level: permits and breaker accounting
///     stay exact, and no second physical Execute is issued).
///
/// All three change timing, ordering, and fetch counts — never answers;
/// the adaptive property suite pins OrderedFingerprint bit-identity
/// across serial / concurrent-fetch / serve dispatch.
struct AdaptiveOptions {
  bool enabled = false;
  /// Dynamic relevance checks at dispatch time (skip certificates).
  bool dynamic_pruning = true;
  /// Cost-aware frontier ordering by learned per-source score.
  bool reorder = true;
  /// Merge consecutive same-(source, positions) requests into one
  /// batched source call on the simulated timeline.
  bool batch = true;
  /// Hedge stragglers after the learned per-source p95 delay.
  bool hedge = true;
};

/// Configuration of the asynchronous source-access runtime: how each
/// fetch round's frontier of source queries is dispatched, retried, and
/// accounted. The defaults reproduce the legacy serial evaluator exactly
/// (one query at a time, one attempt, no breaker), so existing callers
/// see no behavior change until they opt in.
struct RuntimeOptions {
  /// Dispatch each round's frontier concurrently on a thread pool. Off:
  /// queries are issued strictly in order on the calling thread. Either
  /// way the results are committed in frontier order, so on a fault-free
  /// catalog concurrent execution is bit-identical to serial.
  bool concurrent = false;
  /// Global cap on concurrently running source calls. A literal default
  /// (not hardware concurrency) keeps simulated makespans reproducible
  /// across machines; 0 means hardware concurrency.
  std::size_t max_in_flight = 16;
  /// Per-source cap on concurrently running calls — the paper's sources
  /// are autonomous services with their own admission limits. Applies to
  /// the simulated timeline and to real dispatch.
  std::size_t per_source_max_in_flight = 4;
  /// Coalesce identical in-flight queries: when two frontier entries ask
  /// the same source the same query (possible with overlapping templates
  /// or duplicated view rules), only one source call is made and every
  /// requester shares the answer.
  bool coalesce = true;
  /// Default per-fetch policy; `per_source` overrides it by view name.
  RetryPolicy retry;
  std::map<std::string, RetryPolicy> per_source;
  /// Simulated round-trip times, the clock behind deadlines, backoff
  /// accounting, breaker cooldowns, and the FetchReport makespans.
  LatencyModel latency;
  /// Seed for backoff jitter (and anything else the scheduler ever needs
  /// randomness for); runs are deterministic given the seed.
  uint64_t seed = 0;
  /// Server-wide governor shared by every query of a multi-query server
  /// (must outlive the execution; not owned). Adds server-wide in-flight
  /// caps on top of this scheduler's own, and — under concurrent
  /// dispatch — cross-query coalescing of identical in-flight source
  /// queries. Null (the default) means this execution is ungoverned;
  /// single-query results are bit-identical either way.
  FetchGovernor* governor = nullptr;
  /// Optional capture sink (src/replay/): when set, every dispatched
  /// source call's canonical query and per-attempt outcomes/latencies are
  /// recorded through it, on the driver thread in batch order. Not owned;
  /// must outlive the execution. Recording never changes dispatch,
  /// results, or the simulated clock.
  FetchRecorder* recorder = nullptr;
  /// Runtime-adaptive dispatch (dynamic pruning / ordering / batching /
  /// hedging); see AdaptiveOptions. Off by default.
  AdaptiveOptions adaptive;
  /// Cross-query learned source statistics (thread-safe, not owned, must
  /// outlive the execution). A ServeSession wires its own; each query's
  /// dispatcher publishes its learned per-source profiles here when it
  /// finishes. Publish-only by design: dispatch decisions never read the
  /// shared state, because the ordering they drive sets the dictionary
  /// interning order and a cross-query input would break serve-vs-solo
  /// OrderedFingerprint bit-identity. Null = no session aggregation.
  AdaptiveState* adaptive_state = nullptr;

  /// The policy for `view`: its override, or the default.
  const RetryPolicy& PolicyFor(const std::string& view) const {
    auto it = per_source.find(view);
    return it == per_source.end() ? retry : it->second;
  }
};

}  // namespace limcap::runtime

#endif  // LIMCAP_RUNTIME_OPTIONS_H_
