#ifndef LIMCAP_RUNTIME_ADAPTIVE_DISPATCHER_H_
#define LIMCAP_RUNTIME_ADAPTIVE_DISPATCHER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/adaptive_state.h"
#include "runtime/fetch_scheduler.h"
#include "runtime/options.h"

namespace limcap::runtime {

/// The runtime-adaptive dispatch layer between the source-driven
/// evaluator and the fetch scheduler (ROADMAP item 3; the program of
/// Benedikt, Gottlob & Senellart's "Determining Relevance of Accesses at
/// Runtime"). Per frontier it:
///
///   1. asks the evaluator-provided probe which requests the dynamic
///      relevance checker certifies as skippable, and suppresses those
///      (no source call, no log record, no budget spend);
///   2. permutes the survivors by a learned expected-useful-rows-per-ms
///      score — deterministic: (score desc, source name, original index),
///      with scores from this execution's OWN observations only (the
///      shared AdaptiveState is publish-only: the scheduler's merge
///      interns result values in dispatch order, so a permutation shaped
///      by other queries' history would break serve-vs-solo
///      OrderedFingerprint bit-identity);
///   3. marks consecutive same-(source, bound positions) requests as one
///      batched source call (timing discount on the members);
///   4. arms a hedge delay at each source's learned latency quantile.
///
/// Results come back positionally aligned with the caller's order, and
/// profile updates happen in that canonical order on the driver thread —
/// so everything the session can observe is a pure function of the
/// request stream, independent of dispatch mode. The adaptive property
/// suite pins OrderedFingerprint bit-identity across serial /
/// concurrent-fetch / serve execution.
class AdaptiveDispatcher {
 public:
  /// True when the dynamic relevance checker certified the frontier
  /// request at this index as answer-preserving to skip.
  using SkipProbe = std::function<bool(std::size_t)>;

  /// `scheduler` is borrowed and must outlive the dispatcher; `runtime`
  /// must be the scheduler's own options (the latency model prices batch
  /// discounts, `runtime.adaptive` configures everything else).
  AdaptiveDispatcher(const RuntimeOptions& runtime, FetchScheduler* scheduler);

  /// Executes one round adaptively into `out`. `probe` may be null (no
  /// dynamic pruning). Outcomes align with `round`; a skipped request's
  /// outcome has `skipped_dynamic` set and an error — the caller must not
  /// commit it.
  void ExecuteFrontier(const FetchRound& round, const SkipProbe& probe,
                       FetchOutcomes* out);

  /// This execution's learned per-source profiles (canonical order).
  const std::map<std::string, SourceProfile>& profiles() const {
    return profiles_;
  }
  std::size_t skipped() const { return skipped_; }
  const std::map<std::string, std::size_t>& skipped_per_source() const {
    return skipped_per_source_;
  }

  /// Folds this execution's profiles into the shared AdaptiveState (when
  /// one is wired in); call once, after the execution completes.
  void PublishShared();

 private:
  double HedgeDelayFor(const std::string& source) const;
  double ScoreFor(const std::string& source) const;

  RuntimeOptions runtime_;
  FetchScheduler* scheduler_;
  /// Per-round scratch, reused: the permuted round the scheduler runs and
  /// its outcomes.
  FetchRound permuted_;
  FetchOutcomes executed_;
  std::map<std::string, SourceProfile> profiles_;
  std::map<std::string, std::size_t> skipped_per_source_;
  std::size_t skipped_ = 0;
  bool published_ = false;
};

}  // namespace limcap::runtime

#endif  // LIMCAP_RUNTIME_ADAPTIVE_DISPATCHER_H_
