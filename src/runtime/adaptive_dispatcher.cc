#include "runtime/adaptive_dispatcher.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

namespace limcap::runtime {

namespace {

/// Quantile of a source's learned latency histogram that arms a hedge.
constexpr double kHedgeQuantile = 0.95;
/// Observations of a source required before hedging it (cold sources have
/// no p95 worth trusting).
constexpr std::size_t kHedgeMinSamples = 8;
/// Floor on the hedge delay, so a uniformly fast source is never hedged
/// at effectively zero delay.
constexpr double kHedgeMinDelayMs = 1.0;
/// Simulated cost of a follow-up call inside one batched source call, as
/// a fraction of the source's base latency.
constexpr double kBatchMarginalFraction = 0.25;
/// Smoothing factor of the per-source latency/rows/failure EWMAs.
constexpr double kEwmaAlpha = 0.2;

const std::string& SourceNameOf(const FetchRequest& request) {
  return request.source->view().name();
}

}  // namespace

AdaptiveDispatcher::AdaptiveDispatcher(const RuntimeOptions& runtime,
                                       FetchScheduler* scheduler)
    : runtime_(runtime), scheduler_(scheduler) {}

double AdaptiveDispatcher::ScoreFor(const std::string& source) const {
  // This execution's own observations ONLY — like the hedge delay, the
  // score must be a pure function of this query, never of concurrent
  // traffic: the permutation it drives sets the dictionary interning
  // order, which OrderedFingerprint is sensitive to. The shared
  // AdaptiveState is written (PublishShared) but never read here.
  auto it = profiles_.find(source);
  if (it != profiles_.end() && it->second.observations > 0) {
    return it->second.Score();
  }
  // Cold source: score it by the configured base latency alone, so
  // known-cheap sources still sort before known-expensive ones.
  return 1.0 / std::max(runtime_.latency.LatencyOf(source), 1e-6);
}

double AdaptiveDispatcher::HedgeDelayFor(const std::string& source) const {
  if (!runtime_.adaptive.hedge) return std::numeric_limits<double>::infinity();
  // Hedge delays come from this execution's OWN observations only: the
  // shared state aggregates other queries' progress, which would make a
  // query's timing depend on concurrent traffic.
  auto it = profiles_.find(source);
  if (it == profiles_.end() ||
      it->second.observations < kHedgeMinSamples) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(it->second.LatencyQuantileMs(kHedgeQuantile),
                  kHedgeMinDelayMs);
}

std::vector<FetchResult> AdaptiveDispatcher::ExecuteFrontier(
    const std::vector<FetchRequest>& requests, const SkipProbe& probe) {
  const AdaptiveOptions& adaptive = runtime_.adaptive;
  const std::size_t n = requests.size();
  std::vector<FetchResult> results(n);

  // 1. Dynamic relevance: suppress the requests the checker certifies.
  std::vector<std::size_t> dispatch;
  dispatch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (adaptive.dynamic_pruning && probe && probe(i)) {
      FetchResult& skip = results[i];
      skip.tuples =
          Status::Unavailable("suppressed by dynamic relevance check");
      skip.skipped_dynamic = true;
      ++skipped_;
      ++skipped_per_source_[SourceNameOf(requests[i])];
      continue;
    }
    dispatch.push_back(i);
  }

  // 2. Cost-aware ordering: stable-permute the survivors by learned
  // score. The key is a pure function of (score, source name, original
  // index), so the permutation is identical across dispatch modes.
  if (adaptive.reorder && dispatch.size() > 1) {
    std::vector<std::pair<double, std::size_t>> keyed;
    keyed.reserve(dispatch.size());
    for (std::size_t index : dispatch) {
      keyed.emplace_back(ScoreFor(SourceNameOf(requests[index])), index);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const std::pair<double, std::size_t>& a,
                         const std::pair<double, std::size_t>& b) {
                       if (a.first != b.first) return a.first > b.first;
                       const std::string& sa = SourceNameOf(requests[a.second]);
                       const std::string& sb = SourceNameOf(requests[b.second]);
                       if (sa != sb) return sa < sb;
                       return a.second < b.second;
                     });
    for (std::size_t k = 0; k < keyed.size(); ++k) {
      dispatch[k] = keyed[k].second;
    }
  }

  // 3. Build the dispatched batch in permuted order, arming hedge delays
  // and marking batched members (consecutive requests to one source with
  // the same bound positions model one merged source call: members after
  // the first are discounted the non-marginal share of the base latency).
  std::vector<FetchRequest> batch;
  batch.reserve(dispatch.size());
  for (std::size_t k = 0; k < dispatch.size(); ++k) {
    FetchRequest& request = batch.emplace_back(requests[dispatch[k]]);
    const std::string& source = SourceNameOf(request);
    request.hedge_delay_ms = HedgeDelayFor(source);
    request.batch_discount_ms = 0;
    if (adaptive.batch && k > 0) {
      const FetchRequest& prev = requests[dispatch[k - 1]];
      if (prev.source == request.source &&
          prev.query.positions == request.query.positions) {
        request.batch_discount_ms =
            runtime_.latency.LatencyOf(source) *
            (1.0 - kBatchMarginalFraction);
      }
    }
  }

  std::vector<FetchResult> executed = scheduler_->ExecuteBatch(batch);

  // 4. Un-permute, then learn in canonical (caller) order so the
  // profiles — and hence later rounds' hedge delays and scores — are
  // independent of the permutation actually dispatched.
  for (std::size_t k = 0; k < dispatch.size(); ++k) {
    results[dispatch[k]] = std::move(executed[k]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const FetchResult& result = results[i];
    if (result.skipped_dynamic) continue;
    // Only fetches that drove a source call teach us about the source:
    // coalesced followers and breaker fast-fails carry no new signal.
    if (result.attempts == 0) continue;
    const bool failed = !result.tuples.ok();
    const double rows =
        failed ? 0.0 : static_cast<double>(result.tuples.value().size());
    profiles_[SourceNameOf(requests[i])].Observe(result.duration_ms, rows,
                                                 failed, kEwmaAlpha);
  }
  return results;
}

void AdaptiveDispatcher::PublishShared() {
  if (published_ || runtime_.adaptive_state == nullptr) return;
  runtime_.adaptive_state->Absorb(profiles_);
  published_ = true;
}

}  // namespace limcap::runtime
