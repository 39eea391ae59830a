#ifndef LIMCAP_RUNTIME_FETCH_SCHEDULER_H_
#define LIMCAP_RUNTIME_FETCH_SCHEDULER_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
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

/// One fetch channel of an execution: a source and the view-schema
/// positions, ascending, that every query on the channel binds. The
/// evaluator registers one per fetch spec (FetchScheduler::AddChannel),
/// once per execution, and each round names channels by index.
struct FetchChannel {
  capability::Source* source = nullptr;
  std::vector<uint32_t> positions;
};

/// One fetch round, flat: request `i` asks channel `channels[i]` with the
/// session-encoded ids `ids[offsets[i], offsets[i + 1])`, one per bound
/// position. The builder reuses one round (and its id arena) across
/// rounds, so a round after the first allocates nothing.
struct FetchRound {
  std::vector<uint32_t> channels;
  /// Offsets into `ids`; one more than there are requests.
  std::vector<std::size_t> offsets{0};
  std::vector<ValueId> ids;
  /// Adaptive-dispatch hints (runtime/adaptive_dispatcher.h), parallel to
  /// `channels` when set, empty otherwise. Only timing is ever affected —
  /// answers stay a pure function of the query.
  ///
  /// Hedge: when a fetch's simulated latency overshoots its delay, a
  /// duplicate call to the same source is modeled after the delay and
  /// the first arrival wins, so the effective latency becomes
  /// min(full, hedge_delay + base). Empty: never hedge.
  std::vector<double> hedge_delay_ms;
  /// Batched member (after the first) of one merged source call: its
  /// simulated duration is discounted by this much (the saved per-call
  /// overhead), clamped at zero. Deadlines still see the undiscounted
  /// latency — batching cannot rescue a timeout. Empty: no discounts.
  std::vector<double> batch_discount_ms;

  std::size_t size() const { return channels.size(); }
  bool empty() const { return channels.empty(); }
  std::span<const ValueId> IdsOf(std::size_t i) const {
    return {ids.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  /// Appends a request.
  void Add(uint32_t channel, std::span<const ValueId> request_ids) {
    channels.push_back(channel);
    ids.insert(ids.end(), request_ids.begin(), request_ids.end());
    offsets.push_back(ids.size());
  }
  /// Keeps the first `n` requests.
  void Truncate(std::size_t n) {
    channels.resize(n);
    ids.resize(offsets[n]);
    offsets.resize(n + 1);
    if (!hedge_delay_ms.empty()) hedge_delay_ms.resize(n);
    if (!batch_discount_ms.empty()) batch_discount_ms.resize(n);
  }
  /// Empties the round, keeping its capacity.
  void Clear() {
    channels.clear();
    offsets.resize(1);
    ids.clear();
    hedge_delay_ms.clear();
    batch_discount_ms.clear();
  }
};

/// One request's outcome. All times are simulated milliseconds.
struct FetchOutcome {
  static constexpr uint32_t kNone = ~uint32_t{0};
  /// Index into FetchOutcomes::answers of a non-empty answer; kNone for
  /// an empty one or a failure. Coalesced requests share their leader's.
  uint32_t answer = kNone;
  /// Index into FetchOutcomes::errors; kNone on success.
  uint32_t error = kNone;
  uint32_t attempts = 0;
  uint32_t retries = 0;
  uint32_t timeouts = 0;
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

  bool ok() const { return error == kNone; }
};

/// A round's outcomes, positionally aligned with its requests. Only
/// non-empty answers and failures take room beyond the POD outcome, so a
/// round of misses is one flat array. Answers are encoded against the
/// session dictionary. The caller reuses one across rounds.
struct FetchOutcomes {
  std::vector<FetchOutcome> outcomes;
  std::vector<relational::Relation> answers;
  std::vector<Status> errors;

  std::size_t size() const { return outcomes.size(); }
  const FetchOutcome& operator[](std::size_t i) const { return outcomes[i]; }
  /// Rows request `i` got: 0 for a miss or a failure.
  std::size_t RowsOf(std::size_t i) const {
    const uint32_t answer = outcomes[i].answer;
    return answer == FetchOutcome::kNone ? 0 : answers[answer].size();
  }
  /// Request `i`'s answer, or null for a miss or a failure.
  const relational::Relation* AnswerOf(std::size_t i) const {
    const uint32_t answer = outcomes[i].answer;
    return answer == FetchOutcome::kNone ? nullptr : &answers[answer];
  }
  /// Request `i`'s error; OK on success.
  Status StatusOf(std::size_t i) const {
    const uint32_t error = outcomes[i].error;
    return error == FetchOutcome::kNone ? Status::OK() : errors[error];
  }
  /// Resets to `n` default outcomes, keeping capacity (grown to a power
  /// of two).
  void Reset(std::size_t n) {
    if (n > outcomes.capacity()) outcomes.reserve(std::bit_ceil(n));
    outcomes.assign(n, FetchOutcome{});
    answers.clear();
    errors.clear();
  }
  /// Files a source call's result: a non-empty answer or an error goes to
  /// its side array and `outcome` points at it.
  void File(Result<relational::Relation> result, FetchOutcome* outcome);
};

/// The asynchronous source-access runtime between the evaluators and the
/// SourceCatalog. ExecuteRound takes one fetch round of source queries
/// and:
///
///   * coalesces identical queries into one source call;
///   * fails fast the queries whose source's circuit breaker is open;
///   * dispatches the rest — concurrently on a common/thread_pool under
///     the global and per-source in-flight caps, or strictly in order
///     when `concurrent` is off — retrying each per its RetryPolicy
///     (deadline, bounded attempts, seeded exponential backoff);
///   * merges the outcomes back on the calling thread, IN ROUND ORDER,
///     re-keyed to the session dictionary.
///
/// Determinism and the single-writer contract: worker threads only ever
/// call Source::Execute with a query encoded against a private per-fetch
/// dictionary; the session ValueDictionary, the circuit breakers, the
/// report, and the simulated clock are touched only by the calling
/// (driver) thread. Because the merge happens in round order, a
/// fault-free concurrent round leaves every session-visible structure —
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
/// TimedSource cast) is resolved once per channel, when the channel is
/// added; every channel's source must outlive the scheduler.
class FetchScheduler {
 public:
  /// `tracer` (optional, must outlive the scheduler): each non-empty
  /// round emits one "fetch.batch" span whose children are one "fetch"
  /// span per *dispatched* query (detail = source name; counters
  /// attempts/retries/timeouts; simulated placement from the timeline;
  /// breaker-refused fetches carry breaker_skip=1) and one
  /// "fetch.coalesced" instant per request answered by an identical
  /// in-flight query. Spans are recorded only on the driver thread at
  /// the in-round-order merge point — never from workers — so the
  /// per-fetch spans reconcile exactly with the FetchReport and tracing
  /// cannot perturb the execution.
  ///
  /// `stop_on_error`: serial dispatch stops calling further sources once
  /// a fetch has permanently failed (the abort-on-error loop shape);
  /// concurrent dispatch has already issued the round and ignores it.
  FetchScheduler(RuntimeOptions options, ValueDictionaryPtr session_dict,
                 obs::Tracer* tracer = nullptr, bool stop_on_error = false);
  ~FetchScheduler();

  FetchScheduler(const FetchScheduler&) = delete;
  FetchScheduler& operator=(const FetchScheduler&) = delete;

  /// Registers a channel and returns its index, the next one in order.
  /// `positions` must be ascending view-schema positions of `source`.
  uint32_t AddChannel(capability::Source* source,
                      std::vector<uint32_t> positions);
  const FetchChannel& channel(uint32_t c) const { return channels_[c].channel; }
  /// The view name of channel `c`'s source.
  const std::string& SourceNameOf(uint32_t c) const {
    return channels_[c].channel.source->view().name();
  }

  /// Executes one round into `out` (reset first), positionally aligned
  /// with `round`. Never fails as a whole: per-request errors are in each
  /// outcome. With `stop_on_error` under serial dispatch, requests after
  /// the first permanent failure are left failed as "not executed"
  /// (the evaluator aborts before reading them).
  void ExecuteRound(const FetchRound& round, FetchOutcomes* out);

  const FetchReport& report() const { return report_; }
  /// The simulated clock, advanced by every round's critical path.
  double simulated_now_ms() const { return sim_clock_ms_; }

 private:
  struct Batch;
  /// What the scheduler needs of one source, resolved on first sight and
  /// reused for every later channel to it (see StateFor).
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
  struct Channel {
    FetchChannel channel;
    /// Resolved when a round first names the channel, so a source's
    /// report row and breaker appear with its first fetch.
    const SourceState* state = nullptr;
    /// The first channel with the same source and positions: requests
    /// coalesce across channels of one class.
    uint32_t coalesce_class = 0;
  };

  /// The state of `source`, built on its first sight (calling thread
  /// only; workers read it while a round runs).
  SourceState& StateFor(capability::Source* source);
  /// Runs leader `l`'s retry loop against its source on `query` and
  /// returns the final attempt's result; counters and the hedge flags go
  /// to the leader's outcome. Worker-safe: touches only leader `l`.
  Result<relational::Relation> ExecuteLeader(
      Batch* batch, std::size_t l, const capability::SourceQuery& query) const;
  void RunLeadersConcurrently(Batch* batch);
  /// Driver-side: hands leader `l`'s canonical query and attempt history
  /// to options_.recorder (which is non-null).
  void RecordLeaderFetch(Batch* batch, std::size_t l) const;
  /// Driver-side: lays the executed leaders on the simulated timeline
  /// under the in-flight caps; returns the round's makespan.
  double SimulateTimeline(Batch* batch, double batch_start);

  RuntimeOptions options_;
  ValueDictionaryPtr dict_;
  obs::Tracer* tracer_;
  bool stop_on_error_;
  std::unique_ptr<ThreadPool> pool_;
  std::map<std::string, CircuitBreaker> breakers_;
  FetchReport report_;
  double sim_clock_ms_ = 0;
  std::vector<Channel> channels_;
  /// Per-source state by address (node-based: channels point into it).
  std::unordered_map<const capability::Source*, SourceState> sources_;
  /// The name slots handed out so far.
  std::map<std::string, std::size_t> name_slots_;
  /// Per-round scratch, reused: each request's leader (the request index
  /// of its first occurrence), the leaders in order, and the coalescing
  /// table over the leaders' request indices.
  std::vector<uint32_t> leader_of_;
  std::vector<uint32_t> leaders_;
  std::vector<uint32_t> first_seen_;
  /// The one query serial dispatch hands every source call, refilled per
  /// call from the round's arena.
  capability::SourceQuery query_;
};

}  // namespace limcap::runtime

#endif  // LIMCAP_RUNTIME_FETCH_SCHEDULER_H_
