#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string_view>

#include "exec/query_answerer.h"
#include "obs/trace.h"
#include "probe.h"

namespace perfbench {

/// Per-layer totals over the answers of a traced run. Times are
/// wall-clock microseconds; the per-answer metrics divide by `answers`.
struct LayerSums {
  double answers = 0;
  double answer_us = 0;
  // planner
  double signature_us = 0;
  double cache_lookup_us = 0;
  double relevance_us = 0;
  double build_us = 0;
  double optimize_us = 0;
  double cache_lookups = 0;
  double cache_hits = 0;
  // analysis
  double gate_us = 0;
  double pruned_channels = 0;
  // exec / datalog / runtime
  double execute_us = 0;
  double eval_us = 0;
  double fetch_batch_us = 0;
  double rounds = 0;
  double post_ingest_translations = 0;
  double rule_activations = 0;
  double facts_derived = 0;
  double batches = 0;
  double attempts = 0;
  // capability, from the probed sources
  double source_us = 0;
  double source_calls = 0;
  double rows = 0;
  double useful_calls = 0;

  /// Folds in one answer: the spans the answer path emitted into `trace`
  /// through ExecOptions::tracer, the report's counters, and the probe's
  /// counts over the answer. `answer_us` is the answer's service time.
  /// The query signature is computed inside "plan.cache_lookup", so it
  /// lands in cache_lookup_us; the caller splits it out.
  void AddAnswer(const limcap::exec::AnswerReport& report,
                 const limcap::obs::Tracer& trace, double answer_us,
                 const Probe::Snapshot& probed);
};

/// Sum of the durations of every span named `name`.
double SpanUs(const limcap::obs::Tracer& tracer, std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
