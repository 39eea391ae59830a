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

void AdaptiveDispatcher::ExecuteFrontier(const FetchRound& round,
                                         const SkipProbe& probe,
                                         FetchOutcomes* out) {
  const AdaptiveOptions& adaptive = runtime_.adaptive;
  const std::size_t n = round.size();
  auto source_of = [&](std::size_t i) -> const std::string& {
    return scheduler_->SourceNameOf(round.channels[i]);
  };

  // 1. Dynamic relevance: suppress the requests the checker certifies.
  std::vector<std::size_t> dispatch;
  std::vector<std::size_t> skipped;
  dispatch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (adaptive.dynamic_pruning && probe && probe(i)) {
      skipped.push_back(i);
      ++skipped_;
      ++skipped_per_source_[source_of(i)];
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
      keyed.emplace_back(ScoreFor(source_of(index)), index);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const std::pair<double, std::size_t>& a,
                         const std::pair<double, std::size_t>& b) {
                       if (a.first != b.first) return a.first > b.first;
                       const std::string& sa = source_of(a.second);
                       const std::string& sb = source_of(b.second);
                       if (sa != sb) return sa < sb;
                       return a.second < b.second;
                     });
    for (std::size_t k = 0; k < keyed.size(); ++k) {
      dispatch[k] = keyed[k].second;
    }
  }

  // 3. Build the dispatched round in permuted order, arming hedge delays
  // and marking batched members (consecutive requests to one source with
  // the same bound positions model one merged source call: members after
  // the first are discounted the non-marginal share of the base latency).
  permuted_.Clear();
  for (std::size_t k = 0; k < dispatch.size(); ++k) {
    const uint32_t channel = round.channels[dispatch[k]];
    permuted_.Add(channel, round.IdsOf(dispatch[k]));
    const std::string& source = scheduler_->SourceNameOf(channel);
    permuted_.hedge_delay_ms.push_back(HedgeDelayFor(source));
    double discount = 0;
    if (adaptive.batch && k > 0) {
      const FetchChannel& prev =
          scheduler_->channel(round.channels[dispatch[k - 1]]);
      const FetchChannel& here = scheduler_->channel(channel);
      if (prev.source == here.source && prev.positions == here.positions) {
        discount = runtime_.latency.LatencyOf(source) *
                   (1.0 - kBatchMarginalFraction);
      }
    }
    permuted_.batch_discount_ms.push_back(discount);
  }

  scheduler_->ExecuteRound(permuted_, &executed_);

  // 4. Un-permute, then learn in canonical (caller) order so the
  // profiles — and hence later rounds' hedge delays and scores — are
  // independent of the permutation actually dispatched. Answer and error
  // indices stay valid: the side arrays move over whole.
  out->Reset(n);
  std::swap(out->answers, executed_.answers);
  std::swap(out->errors, executed_.errors);
  for (std::size_t k = 0; k < dispatch.size(); ++k) {
    out->outcomes[dispatch[k]] = executed_.outcomes[k];
  }
  if (!skipped.empty()) {
    const uint32_t suppressed = static_cast<uint32_t>(out->errors.size());
    out->errors.push_back(
        Status::Unavailable("suppressed by dynamic relevance check"));
    for (std::size_t i : skipped) {
      out->outcomes[i].skipped_dynamic = true;
      out->outcomes[i].error = suppressed;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const FetchOutcome& outcome = out->outcomes[i];
    if (outcome.skipped_dynamic) continue;
    // Only fetches that drove a source call teach us about the source:
    // coalesced followers and breaker fast-fails carry no new signal.
    if (outcome.attempts == 0) continue;
    profiles_[source_of(i)].Observe(outcome.duration_ms,
                                    static_cast<double>(out->RowsOf(i)),
                                    !outcome.ok(), kEwmaAlpha);
  }
}

void AdaptiveDispatcher::PublishShared() {
  if (published_ || runtime_.adaptive_state == nullptr) return;
  runtime_.adaptive_state->Absorb(profiles_);
  published_ = true;
}

}  // namespace limcap::runtime
