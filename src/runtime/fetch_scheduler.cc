#include "runtime/fetch_scheduler.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "runtime/fetch_governor.h"
#include "runtime/fetch_recorder.h"
#include "runtime/timed_source.h"

namespace limcap::runtime {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::string FormatMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.0f", ms);
  return buffer;
}

/// Per-fetch jitter seed from (run seed, source, session-encoded query).
/// Session ids are assigned identically under serial and concurrent
/// execution, so the jitter — and with it every simulated duration — is
/// dispatch-order independent.
uint64_t JitterSeed(uint64_t run_seed, std::size_t source_name_hash,
                    const capability::SourceQuery& query) {
  std::size_t seed = static_cast<std::size_t>(run_seed);
  HashCombine(seed, source_name_hash);
  for (std::size_t i = 0; i < query.positions.size(); ++i) {
    HashCombine(seed, query.positions[i]);
    HashCombine(seed, query.ids[i]);
  }
  return Mix64(seed);
}

/// The value-level identity of a source query, comparable across queries:
/// per-query dictionaries assign different ids to equal values, so the
/// scheduler's id-level coalesce key cannot match across queries, while
/// this one can. Kind tags keep Int64(1) distinct from String("1").
std::string CrossQueryKey(const std::string& source,
                          const std::vector<uint32_t>& positions,
                          const std::vector<ValueId>& ids,
                          const ValueDictionary& dict) {
  std::string key = source;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Value& value = dict.Get(ids[i]);
    key += '\x1f';
    key += std::to_string(positions[i]);
    key += '=';
    key += static_cast<char>('0' + static_cast<int>(value.kind()));
    key += value.ToString();
  }
  return key;
}

/// Coalescing identity of a request: its source and its session-encoded
/// query, hashed in place.
std::size_t RequestHash(const FetchRequest& request) {
  std::size_t seed = std::hash<const void*>{}(request.source);
  for (uint32_t position : request.query.positions) {
    HashCombine(seed, position);
  }
  for (ValueId id : request.query.ids) HashCombine(seed, id);
  return static_cast<std::size_t>(Mix64(seed));
}

bool SameQuery(const FetchRequest& a, const FetchRequest& b) {
  return a.source == b.source && a.query.positions == b.query.positions &&
         a.query.ids == b.query.ids;
}

/// Start order under a per-source in-flight cap: the lowest batch index
/// whose source is under its cap, which is what an in-order scan of the
/// pending fetches picks, without the rescan. Fetches wait in per-slot
/// FIFO queues filled in batch order; a min-heap holds the queue head of
/// every slot that is under its cap and has a fetch waiting.
class CappedStarts {
 public:
  CappedStarts(std::size_t cap, std::size_t num_slots)
      : cap_(cap),
        queues_(num_slots),
        next_(num_slots, 0),
        in_flight_(num_slots, 0) {}

  /// Enqueues fetch `index` on `slot`. Indices arrive ascending, all
  /// before the first Take.
  void Push(std::size_t index, std::size_t slot) {
    if (next_[slot] == queues_[slot].size() && in_flight_[slot] < cap_) {
      heads_.push({index, slot});
    }
    queues_[slot].push_back(index);
  }

  /// True when no waiting fetch's slot is under its cap.
  bool empty() const { return heads_.empty(); }

  /// Starts the lowest-index startable fetch: (index, slot).
  std::pair<std::size_t, std::size_t> Take() {
    const auto [index, slot] = heads_.top();
    heads_.pop();
    ++next_[slot];
    ++in_flight_[slot];
    PushHeadIfStartable(slot);
    return {index, slot};
  }

  /// A fetch on `slot` finished.
  void Release(std::size_t slot) {
    const bool was_full = in_flight_[slot] == cap_;
    --in_flight_[slot];
    if (was_full) PushHeadIfStartable(slot);
  }

 private:
  void PushHeadIfStartable(std::size_t slot) {
    if (in_flight_[slot] < cap_ && next_[slot] < queues_[slot].size()) {
      heads_.push({queues_[slot][next_[slot]], slot});
    }
  }

  using Head = std::pair<std::size_t, std::size_t>;  // (index, slot)
  std::size_t cap_;
  std::vector<std::vector<std::size_t>> queues_;
  std::vector<std::size_t> next_;
  std::vector<std::size_t> in_flight_;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads_;
};

}  // namespace

/// One distinct (source, query) to actually dispatch: bookkeeping only.
/// Coalesced duplicate requests become followers pointing at their
/// leader, and a leader's outcome goes straight into its own request's
/// FetchResult. Worker threads write only their own leader and result;
/// the driver reads them after the pool region joins (the pool's region
/// barrier publishes the writes).
struct FetchScheduler::Leader {
  std::size_t request_index = 0;
  const SourceState* state = nullptr;
  bool allowed = true;   ///< false: failed fast by the circuit breaker
  bool executed = false; ///< false: skipped (breaker, or stop_on_error)
  bool hedged = false;
  bool hedge_win = false;
  /// Set by the worker when the governor answered this fetch with
  /// another query's identical in-flight source call.
  bool cross_coalesced = false;
  std::size_t attempts = 0;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  double duration_ms = 0;

  // Timeline placement, assigned by SimulateTimeline on the driver.
  double start_ms = 0;
  double finish_ms = 0;
};

/// One ExecuteBatch call: its requests and results, the leaders, and the
/// side arrays, parallel to `leaders`, that only some modes fill (each is
/// empty unless its mode is on).
struct FetchScheduler::Batch {
  Batch(const std::vector<FetchRequest>& batch_requests,
        std::vector<FetchResult>& batch_results)
      : requests(batch_requests), results(batch_results) {}

  const std::vector<FetchRequest>& requests;
  std::vector<FetchResult>& results;
  std::vector<Leader> leaders;
  /// Concurrent dispatch: each leader's query cloned onto a private
  /// dictionary (workers must never intern into the session dictionary).
  std::vector<capability::SourceQuery> private_queries;
  /// Cross-query coalescing: each leader's value-level identity for the
  /// FetchGovernor.
  std::vector<std::string> cross_keys;
  /// Recorder on: each leader's per-attempt capture, filled by
  /// ExecuteLeader and flushed by the driver at the merge.
  std::vector<std::vector<FetchRecorder::Attempt>> recorded;

  /// The query leader `l` dispatches: its request's own, session-encoded,
  /// under serial dispatch; the private clone under concurrent dispatch.
  const capability::SourceQuery& QueryOf(std::size_t l) const {
    return private_queries.empty()
               ? requests[leaders[l].request_index].query
               : private_queries[l];
  }
};

FetchScheduler::FetchScheduler(RuntimeOptions options,
                               ValueDictionaryPtr session_dict,
                               obs::Tracer* tracer, bool stop_on_error)
    : options_(std::move(options)),
      dict_(std::move(session_dict)),
      tracer_(tracer),
      stop_on_error_(stop_on_error) {}

FetchScheduler::~FetchScheduler() = default;

FetchScheduler::SourceState& FetchScheduler::StateFor(
    capability::Source* source) {
  auto [it, inserted] = sources_.try_emplace(source);
  SourceState& state = it->second;
  if (inserted) {
    state.name = source->view().name();
    state.name_hash = std::hash<std::string>{}(state.name);
    state.name_slot =
        name_slots_.try_emplace(state.name, name_slots_.size()).first->second;
    state.policy = &options_.PolicyFor(state.name);
    state.base_latency_ms = options_.latency.LatencyOf(state.name);
    state.breaker =
        &breakers_.try_emplace(state.name, state.policy->breaker).first->second;
    state.stats = &report_.per_source[state.name];
    state.timed = dynamic_cast<TimedSource*>(source);
  }
  return state;
}

void FetchScheduler::ExecuteLeader(Batch* batch, std::size_t l) const {
  Leader& leader = batch->leaders[l];
  const FetchRequest& request = batch->requests[leader.request_index];
  const capability::SourceQuery& query = batch->QueryOf(l);
  // Starts as the result's "not executed"; every attempt overwrites it.
  Result<relational::Relation>& outcome =
      batch->results[leader.request_index].tuples;
  std::vector<FetchRecorder::Attempt>* recorded =
      batch->recorded.empty() ? nullptr : &batch->recorded[l];
  const SourceState& state = *leader.state;
  const RetryPolicy& policy = *state.policy;
  const std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);
  // Seeded from the session-encoded query under either dispatch mode.
  Rng rng(JitterSeed(options_.seed, state.name_hash, request.query));
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      leader.duration_ms += policy.BackoffBeforeAttempt(attempt, rng);
      ++leader.retries;
    }
    ++leader.attempts;
    TimedSource::Timing timing;
    Result<relational::Relation> answer =
        state.timed != nullptr ? state.timed->ExecuteTimed(query, &timing)
                               : request.source->Execute(query);
    const double full_latency = state.base_latency_ms + timing.added_latency_ms;
    // Hedged request (timing-model level): once the primary overshoots
    // the learned hedge delay, a duplicate call to the same deterministic
    // source is modeled — the answer is the same, only its arrival moves
    // up to hedge_delay + base. No second physical Execute is issued, so
    // attempt counts, fault draws, governor permits and breaker
    // accounting are exactly those of the single call.
    double latency = full_latency;
    if (full_latency > request.hedge_delay_ms) {
      leader.hedged = true;
      latency = std::min(full_latency,
                         request.hedge_delay_ms + state.base_latency_ms);
      if (full_latency > policy.deadline_ms && latency <= policy.deadline_ms) {
        leader.hedge_win = true;
      }
    }
    if (recorded != nullptr) {
      FetchRecorder::Attempt record;
      record.added_latency_ms = timing.added_latency_ms;
      record.discarded = latency > policy.deadline_ms;
      if (!record.discarded) {
        record.ok = answer.ok();
        if (answer.ok()) {
          record.rows = answer->DecodedRows();
        } else {
          record.code = answer.status().code();
          record.message = answer.status().message();
        }
      }
      recorded->push_back(std::move(record));
    }
    if (latency > policy.deadline_ms) {
      // The answer (good or bad) arrived past the deadline: discard it.
      // The attempt costs exactly the deadline — the caller hung up then.
      leader.duration_ms += policy.deadline_ms;
      ++leader.timeouts;
      outcome = Status::DeadlineExceeded(
          "source " + state.name + " attempt " +
          std::to_string(attempt) + " exceeded its " +
          FormatMs(policy.deadline_ms) + " ms deadline");
      continue;
    }
    // Batched member: the shared source call already paid the per-call
    // overhead, so this fetch's simulated cost drops by the discount.
    // Timing only — the deadline check above saw the undiscounted
    // latency, and the answer is untouched.
    leader.duration_ms += std::max(0.0, latency - request.batch_discount_ms);
    outcome = std::move(answer);
    if (outcome.ok()) break;
  }
}

void FetchScheduler::RunLeadersConcurrently(Batch* batch) {
  std::vector<std::size_t> todo;
  for (std::size_t l = 0; l < batch->leaders.size(); ++l) {
    if (batch->leaders[l].executed) todo.push_back(l);
  }
  if (todo.empty()) return;
  if (pool_ == nullptr) {
    std::size_t threads = options_.max_in_flight != 0
                              ? options_.max_in_flight
                              : std::thread::hardware_concurrency();
    pool_ = std::make_unique<ThreadPool>(std::max<std::size_t>(1, threads));
  }
  const std::size_t per_source_cap = options_.per_source_max_in_flight != 0
                                         ? options_.per_source_max_in_flight
                                         : kNone;

  // Claim loop: each worker repeatedly claims the lowest-index unclaimed
  // fetch whose source is under its in-flight cap. The pool size enforces
  // the global cap. Claim order does not affect results — the driver
  // merges in batch order regardless.
  std::mutex mutex;
  std::condition_variable capacity_freed;
  CappedStarts starts(per_source_cap, name_slots_.size());
  for (std::size_t i = 0; i < todo.size(); ++i) {
    starts.Push(i, batch->leaders[todo[i]].state->name_slot);
  }
  std::size_t num_claimed = 0;
  pool_->RunOnAll([&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (starts.empty()) {
        if (num_claimed == todo.size()) return;
        // Unclaimed fetches remain but their sources are at capacity;
        // wait for a finisher to free a slot.
        capacity_freed.wait(lock);
        continue;
      }
      const auto [pick, slot] = starts.Take();
      ++num_claimed;
      lock.unlock();
      const std::size_t l = todo[pick];
      Leader& job = batch->leaders[l];
      const std::string& source_name = job.state->name;
      FetchGovernor* governor = options_.governor;
      if (governor != nullptr && !batch->cross_keys.empty()) {
        // Server-wide coalescing window: the first query with this
        // value-level source query in flight performs the call; everyone
        // else shares its outcome. Followers hold no governor permits
        // while waiting, so leader → follower waits cannot cycle.
        const std::string& cross_key = batch->cross_keys[l];
        Result<relational::Relation>& tuples =
            batch->results[job.request_index].tuples;
        FetchGovernor::Ticket ticket = governor->Begin(cross_key);
        if (ticket.leader) {
          governor->Acquire(source_name);
          ExecuteLeader(batch, l);
          governor->Release(source_name);
          governor->Complete(cross_key, ticket, tuples);
        } else {
          tuples = FetchGovernor::Wait(ticket);
          job.cross_coalesced = true;
          // No attempts/duration: this query did not touch the source.
          // The tuples sit on the other leader's private dictionary
          // (immutable now) and are re-keyed at the ordered merge.
        }
      } else if (governor != nullptr) {
        governor->Acquire(source_name);
        ExecuteLeader(batch, l);
        governor->Release(source_name);
      } else {
        ExecuteLeader(batch, l);
      }
      lock.lock();
      starts.Release(slot);
      capacity_freed.notify_all();
    }
  });
}

double FetchScheduler::SimulateTimeline(std::vector<Leader>* leaders,
                                        double batch_start) {
  if (!options_.concurrent) {
    // Serial dispatch: one fetch at a time, in batch order.
    double now = batch_start;
    for (Leader& leader : *leaders) {
      if (!leader.executed) {
        leader.start_ms = leader.finish_ms = now;
        continue;
      }
      leader.start_ms = now;
      now += leader.duration_ms;
      leader.finish_ms = now;
    }
    return now - batch_start;
  }

  // Event-driven replay of the claim loop under both caps, in batch
  // order, on simulated time: deterministic no matter how the real
  // threads interleaved.
  const std::size_t global_cap = std::max<std::size_t>(
      1, options_.max_in_flight != 0 ? options_.max_in_flight
                                     : std::thread::hardware_concurrency());
  const std::size_t per_source_cap = options_.per_source_max_in_flight != 0
                                         ? options_.per_source_max_in_flight
                                         : kNone;
  std::vector<Leader*> jobs;
  for (Leader& leader : *leaders) {
    if (leader.executed) {
      jobs.push_back(&leader);
    } else {
      leader.start_ms = leader.finish_ms = batch_start;
    }
  }
  if (jobs.empty()) return 0;

  using Finish = std::pair<double, std::size_t>;  // (finish time, job index)
  std::priority_queue<Finish, std::vector<Finish>, std::greater<Finish>>
      running;
  CappedStarts starts(per_source_cap, name_slots_.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    starts.Push(i, jobs[i]->state->name_slot);
  }
  double now = batch_start;
  double makespan_end = batch_start;
  for (;;) {
    // Start every startable job at `now`, lowest batch index first.
    while (running.size() < global_cap && !starts.empty()) {
      const std::size_t i = starts.Take().first;
      jobs[i]->start_ms = now;
      jobs[i]->finish_ms = now + jobs[i]->duration_ms;
      running.push({jobs[i]->finish_ms, i});
    }
    if (running.empty()) break;
    auto [finish, index] = running.top();
    running.pop();
    now = finish;
    makespan_end = std::max(makespan_end, finish);
    starts.Release(jobs[index]->state->name_slot);
  }
  return makespan_end - batch_start;
}

void FetchScheduler::RecordLeaderFetch(Batch* batch, std::size_t l) const {
  const Leader& leader = batch->leaders[l];
  const capability::SourceQuery& query = batch->QueryOf(l);
  const Result<relational::Relation>& tuples =
      batch->results[leader.request_index].tuples;
  FetchRecorder::Fetch fetch;
  fetch.source = leader.state->name;
  fetch.positions = query.positions;
  fetch.values.reserve(query.ids.size());
  // The query's dict is the private per-fetch dictionary under
  // concurrent dispatch and the session dictionary under serial — either
  // way, decoding here yields the canonical value-level query.
  for (ValueId id : query.ids) {
    fetch.values.push_back(query.dict->Get(id));
  }
  if (leader.cross_coalesced) {
    // This fetch made no source call: another query's identical in-flight
    // call answered it, and only the shared final outcome is observable.
    // Synthesize a single attempt carrying that outcome so a solo replay
    // of this query reconstructs an equivalent fetch. Attempt counts and
    // durations may differ from the sharing run — neither is part of the
    // OrderedFingerprint.
    fetch.cross_coalesced = true;
    FetchRecorder::Attempt record;
    if (tuples.ok()) {
      record.ok = true;
      record.rows = tuples->DecodedRows();
    } else if (tuples.status().code() == StatusCode::kDeadlineExceeded) {
      // The shared call timed out every attempt; force the same on
      // replay by overshooting any finite deadline.
      record.discarded = true;
      record.added_latency_ms = kForcedTimeoutLatencyMs;
    } else {
      record.code = tuples.status().code();
      record.message = tuples.status().message();
    }
    fetch.attempts.push_back(std::move(record));
  } else {
    fetch.attempts = std::move(batch->recorded[l]);
  }
  options_.recorder->RecordFetch(std::move(fetch));
}

std::vector<FetchResult> FetchScheduler::ExecuteBatch(
    const std::vector<FetchRequest>& requests) {
  std::vector<FetchResult> results(requests.size());
  if (requests.empty()) return results;

  const double batch_start = sim_clock_ms_;
  ++report_.batches;
  obs::ScopedSpan batch_span(tracer_, "fetch.batch");
  batch_span.Counter("requests", static_cast<double>(requests.size()));
  obs::Tracer* trace = batch_span.tracer();  // null when disabled

  // 1. Coalesce identical (source, query) pairs into leaders. All request
  //    queries are session-encoded, so raw positions+ids identify a query;
  //    an open-addressing table over leader ordinals hashes them in place.
  Batch batch(requests, results);
  std::vector<Leader>& leaders = batch.leaders;
  leaders.reserve(requests.size());
  std::vector<std::size_t> leader_of(requests.size(), kNone);
  std::vector<std::size_t> first_seen;
  if (options_.coalesce) {
    first_seen.assign(std::bit_ceil(2 * requests.size()), kNone);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const FetchRequest& request = requests[i];
    if (options_.coalesce) {
      const std::size_t mask = first_seen.size() - 1;
      std::size_t slot = RequestHash(request) & mask;
      while (first_seen[slot] != kNone &&
             !SameQuery(requests[leaders[first_seen[slot]].request_index],
                        request)) {
        slot = (slot + 1) & mask;
      }
      if (first_seen[slot] != kNone) {
        leader_of[i] = first_seen[slot];
        continue;
      }
      first_seen[slot] = leaders.size();
    }
    leader_of[i] = leaders.size();
    Leader& leader = leaders.emplace_back();
    leader.request_index = i;
    leader.state = &StateFor(request.source);
  }
  if (options_.recorder != nullptr) batch.recorded.resize(leaders.size());

  // 2. Circuit-breaker admission at the batch-start clock.
  for (Leader& leader : leaders) {
    leader.allowed = leader.state->breaker->Allow(batch_start);
  }

  // 3. Dispatch. Concurrent execution clones each leader's query onto a
  //    private dictionary first: worker threads must not touch the
  //    session dictionary (Intern is not thread-safe), and private
  //    results are re-interned on the driver in batch order below, which
  //    reproduces the serial interning order bit for bit.
  if (options_.concurrent) {
    const bool cross_coalesce =
        options_.governor != nullptr &&
        options_.governor->options().cross_query_coalesce;
    batch.private_queries.resize(leaders.size());
    if (cross_coalesce) batch.cross_keys.resize(leaders.size());
    for (std::size_t l = 0; l < leaders.size(); ++l) {
      Leader& leader = leaders[l];
      if (!leader.allowed) continue;
      leader.executed = true;
      const FetchRequest& request = requests[leader.request_index];
      if (cross_coalesce) {
        // Value-level key, computed from the session dictionary before
        // the query is cloned below. Only private-dictionary results
        // may be shared across queries (a session dictionary keeps
        // growing while foreign drivers would read it), which is why
        // cross coalescing exists only on this concurrent path.
        std::string& cross_key = batch.cross_keys[l];
        cross_key = CrossQueryKey(leader.state->name, request.query.positions,
                                  request.query.ids, *dict_);
        // A hedged fetch's *outcome* (kept vs discarded past the
        // deadline) depends on its hedge delay, which is per-query
        // learned state — two queries with different delays can see
        // different outcomes for the same value-level source query. Key
        // them apart so a follower only ever inherits an outcome its own
        // hedge configuration would have produced; un-hedged fetches
        // (delay = infinity) keep the pre-hedging key byte for byte.
        if (request.hedge_delay_ms !=
            std::numeric_limits<double>::infinity()) {
          char hedge[40];
          std::snprintf(hedge, sizeof(hedge), "\x1fhedge=%a",
                        request.hedge_delay_ms);
          cross_key += hedge;
        }
      }
      auto private_dict = std::make_shared<ValueDictionary>();
      capability::SourceQuery& private_query = batch.private_queries[l];
      private_query.positions = request.query.positions;
      private_query.ids.reserve(request.query.ids.size());
      for (ValueId id : request.query.ids) {
        private_query.ids.push_back(private_dict->Intern(dict_->Get(id)));
      }
      private_query.dict = std::move(private_dict);
    }
    RunLeadersConcurrently(&batch);
  } else {
    bool stopped = false;
    for (std::size_t l = 0; l < leaders.size() && !stopped; ++l) {
      Leader& leader = leaders[l];
      if (!leader.allowed) {
        if (stop_on_error_) stopped = true;
        continue;
      }
      leader.executed = true;
      if (options_.governor != nullptr) {
        // Serial dispatch under a governor still honors the server-wide
        // caps; it cannot share results (they land on the mutable
        // session dictionary, unsafe for foreign readers).
        options_.governor->Acquire(leader.state->name);
        ExecuteLeader(&batch, l);
        options_.governor->Release(leader.state->name);
      } else {
        ExecuteLeader(&batch, l);
      }
      if (stop_on_error_ && !results[leader.request_index].tuples.ok()) {
        stopped = true;
      }
    }
  }

  // 4. Timeline: place the executed fetches on the simulated clock.
  const double makespan = SimulateTimeline(&leaders, batch_start);
  sim_clock_ms_ += makespan;
  report_.simulated_makespan_ms += makespan;
  batch_span.SetSimulated(batch_start, makespan);

  // 5. Merge in batch order on the driver thread: re-key results to the
  //    session dictionary, record breaker outcomes, build the report. A
  //    follower's leader always precedes it (the leader is the first
  //    occurrence), so a leader's result is final when its followers copy
  //    it; a leader's own outcome is already in its result.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Leader& leader = leaders[leader_of[i]];
    const std::string& name = leader.state->name;
    FetchResult& result = results[i];
    FetchReport::SourceStats& stats = *leader.state->stats;
    result.start_ms = leader.start_ms;
    result.finish_ms = leader.finish_ms;
    if (leader.request_index != i) {
      result.coalesced = true;
      result.tuples = results[leader.request_index].tuples;
      ++stats.coalesced_hits;
      ++report_.coalesced_hits;
      if (trace != nullptr) trace->Instant("fetch.coalesced", name);
      continue;
    }
    if (!leader.allowed) {
      result.breaker_skipped = true;
      result.tuples = Status::Unavailable(
          "source " + name + " unavailable: circuit breaker open");
      ++stats.breaker_skips;
      ++stats.failed_queries;
      report_.failed_views.insert(name);
      if (trace != nullptr) {
        const obs::SpanId span = trace->Instant("fetch", name);
        trace->Counter(span, "breaker_skip", 1);
        trace->SetSimulated(span, leader.start_ms, 0);
      }
      continue;
    }
    if (!leader.executed) continue;  // stop_on_error skipped; never read.
    if (result.tuples.ok() && result.tuples->dict_ptr() != dict_) {
      result.tuples = result.tuples->WithDictionary(dict_);
    }
    if (options_.recorder != nullptr) RecordLeaderFetch(&batch, leader_of[i]);
    const bool ok = result.tuples.ok();
    CircuitBreaker& breaker = *leader.state->breaker;
    if (leader.cross_coalesced) {
      // Another query's source call answered this fetch: account the
      // saved work, not attempts (this execution made none).
      result.cross_coalesced = true;
      ++stats.cross_query_coalesced;
      ++report_.cross_query_coalesced;
      // The breaker still learns the outcome — a solo run would have
      // made this call and recorded it, so skipping would make breaker
      // admission diverge from solo execution.
      if (ok) {
        ++stats.successes;
        breaker.RecordSuccess();
      } else {
        ++stats.failed_queries;
        report_.failed_views.insert(name);
        breaker.RecordFailure(leader.finish_ms);
      }
      if (trace != nullptr) trace->Instant("fetch.cross_coalesced", name);
      continue;
    }
    result.attempts = leader.attempts;
    result.retries = leader.retries;
    result.timeouts = leader.timeouts;
    result.duration_ms = leader.duration_ms;
    result.hedged = leader.hedged;
    result.hedge_win = leader.hedge_win;
    result.batched = requests[i].batch_discount_ms > 0;
    if (leader.hedged) {
      ++stats.hedged;
      ++report_.hedged;
      if (leader.hedge_win) {
        ++stats.hedge_wins;
        ++report_.hedge_wins;
      }
    }
    if (result.batched) {
      ++stats.batched_calls;
      ++report_.batched_calls;
    }
    stats.attempts += leader.attempts;
    stats.retries += leader.retries;
    stats.timeouts += leader.timeouts;
    stats.simulated_busy_ms += leader.duration_ms;
    report_.total_attempts += leader.attempts;
    report_.total_retries += leader.retries;
    report_.total_timeouts += leader.timeouts;
    report_.simulated_sequential_ms += leader.duration_ms;
    if (ok) {
      ++stats.successes;
      breaker.RecordSuccess();
    } else {
      ++stats.failed_queries;
      report_.failed_views.insert(name);
      breaker.RecordFailure(leader.finish_ms);
    }
    if (trace != nullptr) {
      const obs::SpanId span = trace->Instant("fetch", name);
      trace->Counter(span, "attempts",
                     static_cast<double>(leader.attempts));
      trace->Counter(span, "retries", static_cast<double>(leader.retries));
      trace->Counter(span, "timeouts",
                     static_cast<double>(leader.timeouts));
      trace->Counter(span, "ok", ok ? 1 : 0);
      trace->SetSimulated(span, leader.start_ms,
                          leader.finish_ms - leader.start_ms);
    }
  }
  for (auto& [source, state] : sources_) {
    state.stats->breaker_state = state.breaker->state();
  }
  return results;
}

}  // namespace limcap::runtime
