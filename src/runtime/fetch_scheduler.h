#ifndef LIMCAP_RUNTIME_FETCH_SCHEDULER_H_
#define LIMCAP_RUNTIME_FETCH_SCHEDULER_H_

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "capability/source.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "runtime/circuit_breaker.h"
#include "runtime/fetch_report.h"
#include "runtime/options.h"

namespace limcap::runtime {

class TimedSource;

/// One source query the evaluator wants answered. `query` is encoded
/// against the session dictionary.
struct FetchRequest {
  capability::Source* source = nullptr;
  capability::SourceQuery query;
  /// Adaptive-dispatch hints (runtime/adaptive_dispatcher.h). The inert
  /// defaults reproduce plain dispatch exactly; only timing is ever
  /// affected — answers stay a pure function of the query.
  ///
  /// Hedge: when a fetch's simulated latency overshoots this delay, a
  /// duplicate call to the same source is modeled after the delay and
  /// the first arrival wins, so the effective latency becomes
  /// min(full, hedge_delay + base). Infinity = never hedge.
  double hedge_delay_ms = std::numeric_limits<double>::infinity();
  /// Batched member (after the first) of one merged source call: its
  /// simulated duration is discounted by this much (the saved per-call
  /// overhead), clamped at zero. Deadlines still see the undiscounted
  /// latency — batching cannot rescue a timeout.
  double batch_discount_ms = 0;
};

/// One request's outcome. `tuples` is encoded against the session
/// dictionary on success; all times are simulated milliseconds.
struct FetchResult {
  Result<relational::Relation> tuples = Status::Internal("not executed");
  std::size_t attempts = 0;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  /// Answered by an identical in-flight request's source call.
  bool coalesced = false;
  /// Answered by ANOTHER query's identical in-flight source call
  /// (FetchGovernor cross-query coalescing; concurrent dispatch only).
  bool cross_coalesced = false;
  /// Failed fast by an open circuit breaker (no source call made).
  bool breaker_skipped = false;
  /// Suppressed by the adaptive dispatcher's dynamic relevance check (no
  /// source call made; carries a skip certificate on the evaluator side).
  /// Synthesized by AdaptiveDispatcher — the scheduler never sets it.
  bool skipped_dynamic = false;
  /// A hedge fired for this fetch (some attempt overshot its hedge
  /// delay); `hedge_win` additionally means the hedge rescued an attempt
  /// that would have exceeded its deadline.
  bool hedged = false;
  bool hedge_win = false;
  /// Member (after the first) of one batched source call.
  bool batched = false;
  /// Attempt latencies + backoffs for this fetch.
  double duration_ms = 0;
  /// Position on the execution's simulated timeline.
  double start_ms = 0;
  double finish_ms = 0;
};

/// The asynchronous source-access runtime between the evaluators and the
/// SourceCatalog. ExecuteBatch takes one fetch round's frontier of source
/// queries and:
///
///   * coalesces identical queries into one source call;
///   * fails fast the queries whose source's circuit breaker is open;
///   * dispatches the rest — concurrently on a common/thread_pool under
///     the global and per-source in-flight caps, or strictly in order
///     when `concurrent` is off — retrying each per its RetryPolicy
///     (deadline, bounded attempts, seeded exponential backoff);
///   * merges the results back on the calling thread, IN BATCH ORDER,
///     re-keyed to the session dictionary.
///
/// Determinism and the single-writer contract: worker threads only ever
/// call Source::Execute with a query encoded against a private per-fetch
/// dictionary; the session ValueDictionary, the circuit breakers, the
/// report, and the simulated clock are touched only by the calling
/// (driver) thread. Because the merge happens in batch order, a
/// fault-free concurrent batch leaves every session-visible structure —
/// dictionary ids included — bit-identical to serial execution.
///
/// Simulated time: sources are in-memory stand-ins, so latency is modeled
/// (LatencyModel base + TimedSource perturbations), never slept. The
/// timeline is reconstructed event-driven under the in-flight caps, so
/// makespans are reproducible regardless of real thread scheduling. Both
/// the worker claim loop and the timeline start the lowest-index pending
/// fetch whose source is under its cap: the head of per-source FIFO
/// queues, taken from a min-heap of the eligible heads.
///
/// Per-source state (name, policy, base latency, breaker, report row,
/// TimedSource cast) is resolved once, on a source's first fetch, and
/// keyed by the Source's address: every source a batch names must
/// outlive the scheduler.
class FetchScheduler {
 public:
  /// `tracer` (optional, must outlive the scheduler): each non-empty
  /// batch emits one "fetch.batch" span whose children are one "fetch"
  /// span per *dispatched* query (detail = source name; counters
  /// attempts/retries/timeouts; simulated placement from the timeline;
  /// breaker-refused fetches carry breaker_skip=1) and one
  /// "fetch.coalesced" instant per request answered by an identical
  /// in-flight query. Spans are recorded only on the driver thread at
  /// the in-batch-order merge point — never from workers — so the
  /// per-fetch spans reconcile exactly with the FetchReport and tracing
  /// cannot perturb the execution.
  ///
  /// `stop_on_error`: serial dispatch stops calling further sources once
  /// a fetch has permanently failed (the abort-on-error loop shape);
  /// concurrent dispatch has already issued the batch and ignores it.
  FetchScheduler(RuntimeOptions options, ValueDictionaryPtr session_dict,
                 obs::Tracer* tracer = nullptr, bool stop_on_error = false);
  ~FetchScheduler();

  FetchScheduler(const FetchScheduler&) = delete;
  FetchScheduler& operator=(const FetchScheduler&) = delete;

  /// Executes one frontier. Returns results positionally aligned with
  /// `requests`. Never fails as a whole: per-request errors are in each
  /// FetchResult. With `stop_on_error` under serial dispatch, requests
  /// after the first permanent failure are left in the "not executed"
  /// state (their results are never read — the evaluator aborts first).
  std::vector<FetchResult> ExecuteBatch(
      const std::vector<FetchRequest>& requests);

  const FetchReport& report() const { return report_; }
  /// The simulated clock, advanced by every batch's critical path.
  double simulated_now_ms() const { return sim_clock_ms_; }

 private:
  struct Leader;
  struct Batch;
  /// What the scheduler needs of one source, resolved on first sight and
  /// reused for every later fetch to it (see StateFor).
  struct SourceState {
    std::string name;
    /// std::hash of `name`: the source term of every fetch's jitter seed.
    std::size_t name_hash = 0;
    /// Dense index of `name` among the names seen so far. In-flight caps
    /// are per source name, so two Source objects under one name share
    /// a slot (as they share a breaker and a report row).
    std::size_t name_slot = 0;
    const RetryPolicy* policy = nullptr;
    double base_latency_ms = 0;
    CircuitBreaker* breaker = nullptr;
    FetchReport::SourceStats* stats = nullptr;
    /// The source as a TimedSource, or null for a plain source.
    TimedSource* timed = nullptr;
  };

  /// The state of `source`, built on its first fetch (calling thread
  /// only; workers read it while the batch runs).
  SourceState& StateFor(capability::Source* source);
  /// Worker-side: runs leader `l`'s retry loop against its source and
  /// writes the outcome into its request's result.
  void ExecuteLeader(Batch* batch, std::size_t l) const;
  void RunLeadersConcurrently(Batch* batch);
  /// Driver-side: hands leader `l`'s canonical query and attempt history
  /// to options_.recorder (which is non-null).
  void RecordLeaderFetch(Batch* batch, std::size_t l) const;
  /// Driver-side: lays the executed leaders on the simulated timeline
  /// under the in-flight caps; returns the batch makespan.
  double SimulateTimeline(std::vector<Leader>* leaders, double batch_start);

  RuntimeOptions options_;
  ValueDictionaryPtr dict_;
  obs::Tracer* tracer_;
  bool stop_on_error_;
  std::unique_ptr<ThreadPool> pool_;
  std::map<std::string, CircuitBreaker> breakers_;
  FetchReport report_;
  double sim_clock_ms_ = 0;
  /// Per-source state by address (node-based: leaders point into it).
  std::unordered_map<const capability::Source*, SourceState> sources_;
  /// The name slots handed out so far.
  std::map<std::string, std::size_t> name_slots_;
};

}  // namespace limcap::runtime

#endif  // LIMCAP_RUNTIME_FETCH_SCHEDULER_H_
