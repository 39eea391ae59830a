#include "runtime/latency_model.h"

#include <algorithm>

namespace limcap::runtime {

MakespanReport EstimateMakespan(const capability::AccessLog& log,
                                const LatencyModel& model) {
  MakespanReport report;
  // Per round: the max single latency and the per-source query counts.
  std::map<std::size_t, double> round_max;
  std::map<std::size_t, std::map<std::string, std::size_t>> round_counts;
  for (const capability::AccessRecord record : log.records()) {
    double latency = model.LatencyOf(record.source());
    report.sequential_ms += latency;
    round_max[record.round()] = std::max(round_max[record.round()], latency);
    ++round_counts[record.round()][record.source()];
  }
  for (const auto& [round, latency] : round_max) {
    report.parallel_ms += latency;
  }
  for (const auto& [round, counts] : round_counts) {
    double slowest = 0;
    for (const auto& [source, count] : counts) {
      slowest = std::max(slowest,
                         static_cast<double>(count) * model.LatencyOf(source));
    }
    report.per_source_serial_ms += slowest;
  }
  report.rounds = round_counts.size();
  return report;
}

}  // namespace limcap::runtime
