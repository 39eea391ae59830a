#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

/// The median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The highest of p99.9, p99, p95, p90, p75 and p50 with at least ten
/// samples beyond it (nearest rank), with that percentile and the sample
/// count.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Times one fixed piece of work that shares no code with the library
/// (string keys into a hash map of vectors, then a sort and lookups;
/// about 0.8 ms on a 4-vCPU Sapphire Rapids VM) and returns its wall
/// time in ms: how fast this core runs right now.
double HostProbeMs();

/// The host a result was measured on: hardware threads, compiler, build
/// type, whether the build is optimized, and the source revision
/// (`revision` as handed in by the runner).
limcap::Json HostJson(const std::string& revision);
bool OptimizedBuild();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result object the benchmark prints as its last line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
limcap::Json ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
