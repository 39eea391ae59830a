#include "runtime/fetch_scheduler.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
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
constexpr uint32_t kNone32 = std::numeric_limits<uint32_t>::max();
/// Channels a scheduler makes room for when it registers its first:
/// most executions register a handful, which then take one allocation.
constexpr std::size_t kMinChannels = 8;

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
                    std::span<const uint32_t> positions,
                    std::span<const ValueId> ids) {
  std::size_t seed = static_cast<std::size_t>(run_seed);
  HashCombine(seed, source_name_hash);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    HashCombine(seed, positions[i]);
    HashCombine(seed, ids[i]);
  }
  return Mix64(seed);
}

/// The value-level identity of a source query, comparable across queries:
/// per-query dictionaries assign different ids to equal values, so the
/// scheduler's id-level coalesce key cannot match across queries, while
/// this one can. Kind tags keep Int64(1) distinct from String("1").
std::string CrossQueryKey(const std::string& source,
                          std::span<const uint32_t> positions,
                          std::span<const ValueId> ids,
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

/// Coalescing identity of a request: its channel's coalescing class and
/// its session-encoded ids, hashed in place in the round's arena.
std::size_t RequestHash(uint32_t coalesce_class, std::span<const ValueId> ids) {
  std::size_t seed = coalesce_class;
  for (ValueId id : ids) HashCombine(seed, id);
  return static_cast<std::size_t>(Mix64(seed));
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

/// True when a leader's fetch ran: it made at least one attempt, or
/// shared another query's call. False when the breaker refused it or
/// stop_on_error skipped it.
bool Executed(const FetchOutcome& outcome) {
  return outcome.attempts > 0 || outcome.cross_coalesced;
}

}  // namespace

void FetchOutcomes::File(Result<relational::Relation> result,
                         FetchOutcome* outcome) {
  if (!result.ok()) {
    outcome->error = static_cast<uint32_t>(errors.size());
    errors.push_back(result.status());
  } else if (!result->empty()) {
    outcome->answer = static_cast<uint32_t>(answers.size());
    answers.push_back(std::move(result).value());
  }
}

/// One ExecuteRound call: the round, its outcomes, and the side arrays,
/// parallel to the scheduler's `leaders_`, that only some modes fill (each
/// is empty unless its mode is on). A leader is the first occurrence of a
/// distinct (source, query); its request's outcome holds its bookkeeping,
/// and coalesced duplicates copy it at the merge. Worker threads write
/// only their own leader's outcome and side-array slots; the driver reads
/// them after the pool region joins (the pool's region barrier publishes
/// the writes).
struct FetchScheduler::Batch {
  Batch(const FetchRound& batch_round, FetchOutcomes& batch_out)
      : round(batch_round), out(batch_out) {}

  const FetchRound& round;
  FetchOutcomes& out;
  /// Concurrent dispatch: each leader's query cloned onto a private
  /// dictionary (workers must never intern into the session dictionary),
  /// and each leader's result, filed at the ordered merge.
  std::vector<capability::SourceQuery> private_queries;
  std::vector<Result<relational::Relation>> results;
  /// Cross-query coalescing: each leader's value-level identity for the
  /// FetchGovernor.
  std::vector<std::string> cross_keys;
  /// Recorder on: each leader's per-attempt capture, filled by
  /// ExecuteLeader and flushed by the driver at the merge.
  std::vector<std::vector<FetchRecorder::Attempt>> recorded;
};

FetchScheduler::FetchScheduler(RuntimeOptions options,
                               ValueDictionaryPtr session_dict,
                               obs::Tracer* tracer, bool stop_on_error)
    : options_(std::move(options)),
      dict_(std::move(session_dict)),
      tracer_(tracer),
      stop_on_error_(stop_on_error) {
  query_.dict = dict_;
}

FetchScheduler::~FetchScheduler() = default;

uint32_t FetchScheduler::AddChannel(capability::Source* source,
                                    std::vector<uint32_t> positions) {
  const uint32_t index = static_cast<uint32_t>(channels_.size());
  if (channels_.empty()) channels_.reserve(kMinChannels);
  Channel& channel = channels_.emplace_back();
  channel.channel.source = source;
  channel.channel.positions = std::move(positions);
  channel.coalesce_class = index;
  for (uint32_t c = 0; c < index; ++c) {
    if (channels_[c].channel.source == source &&
        channels_[c].channel.positions == channel.channel.positions) {
      channel.coalesce_class = channels_[c].coalesce_class;
      break;
    }
  }
  return index;
}

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

Result<relational::Relation> FetchScheduler::ExecuteLeader(
    Batch* batch, std::size_t l, const capability::SourceQuery& query) const {
  const std::size_t i = leaders_[l];
  const FetchRound& round = batch->round;
  FetchOutcome& leader = batch->out.outcomes[i];
  const Channel& channel = channels_[round.channels[i]];
  const double hedge_delay_ms = round.hedge_delay_ms.empty()
                                    ? std::numeric_limits<double>::infinity()
                                    : round.hedge_delay_ms[i];
  const double batch_discount_ms =
      round.batch_discount_ms.empty() ? 0 : round.batch_discount_ms[i];
  std::vector<FetchRecorder::Attempt>* recorded =
      batch->recorded.empty() ? nullptr : &batch->recorded[l];
  const SourceState& state = *channel.state;
  const RetryPolicy& policy = *state.policy;
  const std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);
  // Backoff jitter, seeded from the session-encoded query under either
  // dispatch mode; only a retry draws from it.
  std::optional<Rng> rng;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      if (!rng.has_value()) {
        rng.emplace(JitterSeed(options_.seed, state.name_hash,
                               channel.channel.positions, round.IdsOf(i)));
      }
      leader.duration_ms += policy.BackoffBeforeAttempt(attempt, *rng);
      ++leader.retries;
    }
    ++leader.attempts;
    TimedSource::Timing timing;
    Result<relational::Relation> answer =
        state.timed != nullptr ? state.timed->ExecuteTimed(query, &timing)
                               : channel.channel.source->Execute(query);
    const double full_latency = state.base_latency_ms + timing.added_latency_ms;
    // Hedged request (timing-model level): once the primary overshoots
    // the learned hedge delay, a duplicate call to the same deterministic
    // source is modeled — the answer is the same, only its arrival moves
    // up to hedge_delay + base. No second physical Execute is issued, so
    // attempt counts, fault draws, governor permits and breaker
    // accounting are exactly those of the single call.
    double latency = full_latency;
    if (full_latency > hedge_delay_ms) {
      leader.hedged = true;
      latency = std::min(full_latency, hedge_delay_ms + state.base_latency_ms);
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
    // The outcome is the last attempt's: the first success, or the final
    // failure once the attempts run out.
    const bool last = attempt == max_attempts;
    if (latency > policy.deadline_ms) {
      // The answer (good or bad) arrived past the deadline: discard it.
      // The attempt costs exactly the deadline — the caller hung up then.
      leader.duration_ms += policy.deadline_ms;
      ++leader.timeouts;
      if (!last) continue;
      return Status::DeadlineExceeded(
          "source " + state.name + " attempt " + std::to_string(attempt) +
          " exceeded its " + FormatMs(policy.deadline_ms) + " ms deadline");
    }
    // Batched member: the shared source call already paid the per-call
    // overhead, so this fetch's simulated cost drops by the discount.
    // Timing only — the deadline check above saw the undiscounted
    // latency, and the answer is untouched.
    leader.duration_ms += std::max(0.0, latency - batch_discount_ms);
    if (answer.ok() || last) return answer;
  }
  return Status::Internal("no attempt made");  // unreachable: max_attempts >= 1
}

void FetchScheduler::RunLeadersConcurrently(Batch* batch) {
  std::vector<std::size_t> todo;
  for (std::size_t l = 0; l < leaders_.size(); ++l) {
    if (!batch->out.outcomes[leaders_[l]].breaker_skipped) todo.push_back(l);
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
  // merges in round order regardless.
  std::mutex mutex;
  std::condition_variable capacity_freed;
  CappedStarts starts(per_source_cap, name_slots_.size());
  for (std::size_t i = 0; i < todo.size(); ++i) {
    starts.Push(i, channels_[batch->round.channels[leaders_[todo[i]]]]
                       .state->name_slot);
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
      const capability::SourceQuery& query = batch->private_queries[l];
      Result<relational::Relation>& result = batch->results[l];
      const std::string& source_name =
          channels_[batch->round.channels[leaders_[l]]].state->name;
      FetchGovernor* governor = options_.governor;
      if (governor != nullptr && !batch->cross_keys.empty()) {
        // Server-wide coalescing window: the first query with this
        // value-level source query in flight performs the call; everyone
        // else shares its outcome. Followers hold no governor permits
        // while waiting, so leader → follower waits cannot cycle.
        const std::string& cross_key = batch->cross_keys[l];
        FetchGovernor::Ticket ticket = governor->Begin(cross_key);
        if (ticket.leader) {
          governor->Acquire(source_name);
          result = ExecuteLeader(batch, l, query);
          governor->Release(source_name);
          governor->Complete(cross_key, ticket, result);
        } else {
          result = FetchGovernor::Wait(ticket);
          batch->out.outcomes[leaders_[l]].cross_coalesced = true;
          // No attempts/duration: this query did not touch the source.
          // The tuples sit on the other leader's private dictionary
          // (immutable now) and are re-keyed at the ordered merge.
        }
      } else if (governor != nullptr) {
        governor->Acquire(source_name);
        result = ExecuteLeader(batch, l, query);
        governor->Release(source_name);
      } else {
        result = ExecuteLeader(batch, l, query);
      }
      lock.lock();
      starts.Release(slot);
      capacity_freed.notify_all();
    }
  });
}

double FetchScheduler::SimulateTimeline(Batch* batch, double batch_start) {
  std::vector<FetchOutcome>& outcomes = batch->out.outcomes;
  if (!options_.concurrent) {
    // Serial dispatch: one fetch at a time, in round order.
    double now = batch_start;
    for (uint32_t i : leaders_) {
      FetchOutcome& leader = outcomes[i];
      if (!Executed(leader)) {
        leader.start_ms = leader.finish_ms = now;
        continue;
      }
      leader.start_ms = now;
      now += leader.duration_ms;
      leader.finish_ms = now;
    }
    return now - batch_start;
  }

  // Event-driven replay of the claim loop under both caps, in round
  // order, on simulated time: deterministic no matter how the real
  // threads interleaved.
  const std::size_t global_cap = std::max<std::size_t>(
      1, options_.max_in_flight != 0 ? options_.max_in_flight
                                     : std::thread::hardware_concurrency());
  const std::size_t per_source_cap = options_.per_source_max_in_flight != 0
                                         ? options_.per_source_max_in_flight
                                         : kNone;
  std::vector<uint32_t> jobs;  // request indices of the executed leaders
  for (uint32_t i : leaders_) {
    if (Executed(outcomes[i])) {
      jobs.push_back(i);
    } else {
      outcomes[i].start_ms = outcomes[i].finish_ms = batch_start;
    }
  }
  if (jobs.empty()) return 0;
  auto slot_of = [&](std::size_t job) {
    return channels_[batch->round.channels[jobs[job]]].state->name_slot;
  };

  using Finish = std::pair<double, std::size_t>;  // (finish time, job index)
  std::priority_queue<Finish, std::vector<Finish>, std::greater<Finish>>
      running;
  CappedStarts starts(per_source_cap, name_slots_.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) starts.Push(j, slot_of(j));
  double now = batch_start;
  double makespan_end = batch_start;
  for (;;) {
    // Start every startable job at `now`, lowest round index first.
    while (running.size() < global_cap && !starts.empty()) {
      const std::size_t j = starts.Take().first;
      FetchOutcome& job = outcomes[jobs[j]];
      job.start_ms = now;
      job.finish_ms = now + job.duration_ms;
      running.push({job.finish_ms, j});
    }
    if (running.empty()) break;
    auto [finish, index] = running.top();
    running.pop();
    now = finish;
    makespan_end = std::max(makespan_end, finish);
    starts.Release(slot_of(index));
  }
  return makespan_end - batch_start;
}

void FetchScheduler::RecordLeaderFetch(Batch* batch, std::size_t l) const {
  const std::size_t i = leaders_[l];
  const FetchOutcome& leader = batch->out.outcomes[i];
  const Channel& channel = channels_[batch->round.channels[i]];
  FetchRecorder::Fetch fetch;
  fetch.source = channel.state->name;
  fetch.positions = channel.channel.positions;
  // Decoding from the session dictionary yields the canonical value-level
  // query under either dispatch mode (a private clone holds equal values).
  const std::span<const ValueId> ids = batch->round.IdsOf(i);
  fetch.values.reserve(ids.size());
  for (ValueId id : ids) fetch.values.push_back(dict_->Get(id));
  if (leader.cross_coalesced) {
    // This fetch made no source call: another query's identical in-flight
    // call answered it, and only the shared final outcome is observable.
    // Synthesize a single attempt carrying that outcome so a solo replay
    // of this query reconstructs an equivalent fetch. Attempt counts and
    // durations may differ from the sharing run — neither is part of the
    // OrderedFingerprint.
    fetch.cross_coalesced = true;
    FetchRecorder::Attempt record;
    if (leader.ok()) {
      record.ok = true;
      if (const relational::Relation* rows = batch->out.AnswerOf(i)) {
        record.rows = rows->DecodedRows();
      }
    } else if (const Status& error = batch->out.errors[leader.error];
               error.code() == StatusCode::kDeadlineExceeded) {
      // The shared call timed out every attempt; force the same on
      // replay by overshooting any finite deadline.
      record.discarded = true;
      record.added_latency_ms = kForcedTimeoutLatencyMs;
    } else {
      record.code = error.code();
      record.message = error.message();
    }
    fetch.attempts.push_back(std::move(record));
  } else {
    fetch.attempts = std::move(batch->recorded[l]);
  }
  options_.recorder->RecordFetch(std::move(fetch));
}

void FetchScheduler::ExecuteRound(const FetchRound& round, FetchOutcomes* out) {
  const std::size_t n = round.size();
  out->Reset(n);
  if (n == 0) return;

  const double batch_start = sim_clock_ms_;
  ++report_.batches;
  obs::ScopedSpan batch_span(tracer_, "fetch.batch");
  batch_span.Counter("requests", static_cast<double>(n));
  obs::Tracer* trace = batch_span.tracer();  // null when disabled

  // 1. Coalesce identical (source, query) pairs into leaders. All ids are
  //    session-encoded, so a channel's coalescing class plus the raw ids
  //    identify a query; an open-addressing table over the leaders'
  //    request indices hashes them in place in the round's arena.
  Batch batch(round, *out);
  leader_of_.resize(n);
  leaders_.clear();
  if (n > leaders_.capacity()) leaders_.reserve(std::bit_ceil(n));
  const bool coalesce = options_.coalesce;
  if (coalesce) first_seen_.assign(std::bit_ceil(2 * n), kNone32);
  for (std::size_t i = 0; i < n; ++i) {
    Channel& channel = channels_[round.channels[i]];
    if (channel.state == nullptr) {
      channel.state = &StateFor(channel.channel.source);
    }
    if (coalesce) {
      const std::span<const ValueId> ids = round.IdsOf(i);
      const std::size_t mask = first_seen_.size() - 1;
      std::size_t slot = RequestHash(channel.coalesce_class, ids) & mask;
      for (; first_seen_[slot] != kNone32; slot = (slot + 1) & mask) {
        const uint32_t seen = first_seen_[slot];
        if (channels_[round.channels[seen]].coalesce_class ==
                channel.coalesce_class &&
            std::ranges::equal(round.IdsOf(seen), ids)) {
          break;
        }
      }
      if (first_seen_[slot] != kNone32) {
        leader_of_[i] = first_seen_[slot];
        continue;
      }
      first_seen_[slot] = static_cast<uint32_t>(i);
    }
    leader_of_[i] = static_cast<uint32_t>(i);
    leaders_.push_back(static_cast<uint32_t>(i));
  }
  if (options_.recorder != nullptr) batch.recorded.resize(leaders_.size());

  // 2. Circuit-breaker admission at the round-start clock.
  std::vector<FetchOutcome>& outcomes = out->outcomes;
  for (uint32_t i : leaders_) {
    outcomes[i].breaker_skipped =
        !channels_[round.channels[i]].state->breaker->Allow(batch_start);
  }

  // 3. Dispatch. Concurrent execution clones each leader's query onto a
  //    private dictionary first: worker threads must not touch the
  //    session dictionary (Intern is not thread-safe), and private
  //    results are re-interned on the driver in round order below, which
  //    reproduces the serial interning order bit for bit.
  if (options_.concurrent) {
    const bool cross_coalesce =
        options_.governor != nullptr &&
        options_.governor->options().cross_query_coalesce;
    batch.private_queries.resize(leaders_.size());
    batch.results.resize(leaders_.size(), Status::Internal("not executed"));
    if (cross_coalesce) batch.cross_keys.resize(leaders_.size());
    for (std::size_t l = 0; l < leaders_.size(); ++l) {
      const std::size_t i = leaders_[l];
      if (outcomes[i].breaker_skipped) continue;
      const Channel& channel = channels_[round.channels[i]];
      const std::span<const ValueId> ids = round.IdsOf(i);
      if (cross_coalesce) {
        // Value-level key, computed from the session dictionary before
        // the query is cloned below. Only private-dictionary results
        // may be shared across queries (a session dictionary keeps
        // growing while foreign drivers would read it), which is why
        // cross coalescing exists only on this concurrent path.
        std::string& cross_key = batch.cross_keys[l];
        cross_key = CrossQueryKey(channel.state->name,
                                  channel.channel.positions, ids, *dict_);
        // A hedged fetch's *outcome* (kept vs discarded past the
        // deadline) depends on its hedge delay, which is per-query
        // learned state — two queries with different delays can see
        // different outcomes for the same value-level source query. Key
        // them apart so a follower only ever inherits an outcome its own
        // hedge configuration would have produced; un-hedged fetches
        // (delay = infinity) keep the pre-hedging key byte for byte.
        if (!round.hedge_delay_ms.empty() &&
            round.hedge_delay_ms[i] !=
                std::numeric_limits<double>::infinity()) {
          char hedge[40];
          std::snprintf(hedge, sizeof(hedge), "\x1fhedge=%a",
                        round.hedge_delay_ms[i]);
          cross_key += hedge;
        }
      }
      auto private_dict = std::make_shared<ValueDictionary>();
      capability::SourceQuery& private_query = batch.private_queries[l];
      private_query.positions = channel.channel.positions;
      private_query.ids.reserve(ids.size());
      for (ValueId id : ids) {
        private_query.ids.push_back(private_dict->Intern(dict_->Get(id)));
      }
      private_query.dict = std::move(private_dict);
    }
    RunLeadersConcurrently(&batch);
  } else {
    // One reused query per call, refilled from the round's arena.
    uint32_t query_channel = kNone32;
    for (std::size_t l = 0; l < leaders_.size(); ++l) {
      const std::size_t i = leaders_[l];
      FetchOutcome& leader = outcomes[i];
      if (leader.breaker_skipped) {
        if (stop_on_error_) break;
        continue;
      }
      const Channel& channel = channels_[round.channels[i]];
      if (round.channels[i] != query_channel) {
        query_channel = round.channels[i];
        query_.positions.assign(channel.channel.positions.begin(),
                                channel.channel.positions.end());
      }
      const std::span<const ValueId> ids = round.IdsOf(i);
      query_.ids.assign(ids.begin(), ids.end());
      if (options_.governor != nullptr) {
        // Serial dispatch under a governor still honors the server-wide
        // caps; it cannot share results (they land on the mutable
        // session dictionary, unsafe for foreign readers).
        options_.governor->Acquire(channel.state->name);
        out->File(ExecuteLeader(&batch, l, query_), &leader);
        options_.governor->Release(channel.state->name);
      } else {
        out->File(ExecuteLeader(&batch, l, query_), &leader);
      }
      if (stop_on_error_ && !leader.ok()) break;
    }
  }

  // 4. Timeline: place the executed fetches on the simulated clock.
  const double makespan = SimulateTimeline(&batch, batch_start);
  sim_clock_ms_ += makespan;
  report_.simulated_makespan_ms += makespan;
  batch_span.SetSimulated(batch_start, makespan);

  // 5. Merge in round order on the driver thread: re-key answers to the
  //    session dictionary, record breaker outcomes, build the report. A
  //    follower's leader always precedes it (the leader is the first
  //    occurrence), so a leader's outcome is final when its followers
  //    copy it.
  uint32_t not_executed = FetchOutcome::kNone;
  std::size_t next_leader = 0;
  for (std::size_t i = 0; i < n; ++i) {
    FetchOutcome& outcome = outcomes[i];
    const Channel& channel = channels_[round.channels[i]];
    const std::string& name = channel.state->name;
    FetchReport::SourceStats& stats = *channel.state->stats;
    if (leader_of_[i] != i) {
      const FetchOutcome& leader = outcomes[leader_of_[i]];
      outcome.answer = leader.answer;
      outcome.error = leader.error;
      outcome.start_ms = leader.start_ms;
      outcome.finish_ms = leader.finish_ms;
      outcome.coalesced = true;
      ++stats.coalesced_hits;
      ++report_.coalesced_hits;
      if (trace != nullptr) trace->Instant("fetch.coalesced", name);
      continue;
    }
    const std::size_t l = next_leader++;
    if (outcome.breaker_skipped) {
      outcome.error = static_cast<uint32_t>(out->errors.size());
      out->errors.push_back(Status::Unavailable(
          "source " + name + " unavailable: circuit breaker open"));
      ++stats.breaker_skips;
      ++stats.failed_queries;
      report_.failed_views.insert(name);
      if (trace != nullptr) {
        const obs::SpanId span = trace->Instant("fetch", name);
        trace->Counter(span, "breaker_skip", 1);
        trace->SetSimulated(span, outcome.start_ms, 0);
      }
      continue;
    }
    if (!batch.results.empty()) out->File(std::move(batch.results[l]), &outcome);
    if (!Executed(outcome)) {
      // stop_on_error skipped it; never read.
      if (not_executed == FetchOutcome::kNone) {
        not_executed = static_cast<uint32_t>(out->errors.size());
        out->errors.push_back(Status::Internal("not executed"));
      }
      outcome.error = not_executed;
      outcome.answer = FetchOutcome::kNone;
      continue;
    }
    if (outcome.answer != FetchOutcome::kNone &&
        out->answers[outcome.answer].dict_ptr() != dict_) {
      relational::Relation& answer = out->answers[outcome.answer];
      answer = answer.WithDictionary(dict_);
    }
    if (options_.recorder != nullptr) RecordLeaderFetch(&batch, l);
    const bool ok = outcome.ok();
    CircuitBreaker& breaker = *channel.state->breaker;
    if (outcome.cross_coalesced) {
      // Another query's source call answered this fetch: account the
      // saved work, not attempts (this execution made none).
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
        breaker.RecordFailure(outcome.finish_ms);
      }
      if (trace != nullptr) trace->Instant("fetch.cross_coalesced", name);
      continue;
    }
    outcome.batched =
        !round.batch_discount_ms.empty() && round.batch_discount_ms[i] > 0;
    if (outcome.hedged) {
      ++stats.hedged;
      ++report_.hedged;
      if (outcome.hedge_win) {
        ++stats.hedge_wins;
        ++report_.hedge_wins;
      }
    }
    if (outcome.batched) {
      ++stats.batched_calls;
      ++report_.batched_calls;
    }
    stats.attempts += outcome.attempts;
    stats.retries += outcome.retries;
    stats.timeouts += outcome.timeouts;
    stats.simulated_busy_ms += outcome.duration_ms;
    report_.total_attempts += outcome.attempts;
    report_.total_retries += outcome.retries;
    report_.total_timeouts += outcome.timeouts;
    report_.simulated_sequential_ms += outcome.duration_ms;
    if (ok) {
      ++stats.successes;
      breaker.RecordSuccess();
    } else {
      ++stats.failed_queries;
      report_.failed_views.insert(name);
      breaker.RecordFailure(outcome.finish_ms);
    }
    if (trace != nullptr) {
      const obs::SpanId span = trace->Instant("fetch", name);
      trace->Counter(span, "attempts", static_cast<double>(outcome.attempts));
      trace->Counter(span, "retries", static_cast<double>(outcome.retries));
      trace->Counter(span, "timeouts", static_cast<double>(outcome.timeouts));
      trace->Counter(span, "ok", ok ? 1 : 0);
      trace->SetSimulated(span, outcome.start_ms,
                          outcome.finish_ms - outcome.start_ms);
    }
  }
  for (auto& [source, state] : sources_) {
    state.stats->breaker_state = state.breaker->state();
  }
}

}  // namespace limcap::runtime
