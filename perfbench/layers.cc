#include "layers.h"

namespace perfbench {

double SpanUs(const limcap::obs::Tracer& tracer, std::string_view name) {
  double total = 0;
  for (const limcap::obs::Span& span : tracer.spans()) {
    if (span.name == name) total += span.dur_us;
  }
  return total;
}

void LayerSums::AddAnswer(const limcap::exec::AnswerReport& report,
                          const limcap::obs::Tracer& trace, double answer_us,
                          const Probe::Snapshot& probed) {
  answers += 1;
  this->answer_us += answer_us;
  cache_lookup_us += SpanUs(trace, "plan.cache_lookup");
  relevance_us += SpanUs(trace, "plan.relevance");
  build_us += SpanUs(trace, "plan.build") + SpanUs(trace, "plan.build_relevant");
  optimize_us += SpanUs(trace, "plan.optimize");
  cache_lookups += report.cache.attempted ? 1 : 0;
  cache_hits += report.cache.hit ? 1 : 0;
  gate_us += SpanUs(trace, "analysis.gate");
  if (report.analysis_ran && report.analysis.binding_flow_ran) {
    pruned_channels +=
        double(report.analysis.binding_flow.PrunedChannels().size());
  }
  const limcap::exec::ExecResult& exec = report.exec;
  execute_us += SpanUs(trace, "exec");
  eval_us += SpanUs(trace, "eval");
  fetch_batch_us += SpanUs(trace, "fetch.batch");
  rounds += double(exec.rounds);
  post_ingest_translations += double(exec.post_ingest_translations);
  rule_activations += double(exec.datalog_stats.rule_activations);
  facts_derived += double(exec.datalog_stats.facts_derived);
  batches += double(exec.fetch_report.batches);
  attempts += double(exec.fetch_report.total_attempts);
  source_us += double(probed.source_ns) / 1000.0;
  source_calls += double(probed.calls);
  rows += double(probed.rows);
  useful_calls += double(probed.useful_calls);
}

}  // namespace perfbench
