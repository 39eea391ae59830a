#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  constexpr double kBeyond = 10;
  const double n = double(values.size());
  tail.percentile = 50;
  for (double percentile : kLadder) {
    if (n * (1 - percentile / 100) >= kBeyond) {
      tail.percentile = percentile;
      break;
    }
  }
  // Nearest rank.
  const std::size_t rank = std::size_t(std::ceil(tail.percentile / 100 * n));
  tail.value = values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
  return tail;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {
volatile uint64_t probe_sink = 0;  // keeps the probe's work observable
}  // namespace

double HostProbeMs() {
  const auto start = std::chrono::steady_clock::now();
  std::unordered_map<std::string, std::vector<uint64_t>> map;
  uint64_t x = 88172645463325252ULL;  // xorshift64
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map["key" + std::to_string(x % 5000)].push_back(x);
  }
  std::vector<std::pair<std::string, std::size_t>> rows;
  for (const auto& [key, values] : map) rows.emplace_back(key, values.size());
  std::sort(rows.begin(), rows.end());
  uint64_t sum = 0;
  for (const auto& [key, count] : rows) sum += map.at(key).front() + count;
  probe_sink = sum;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

limcap::Json HostJson(const std::string& revision) {
  limcap::Json host = limcap::Json::MakeObject();
  host.Set("nproc", double(std::thread::hardware_concurrency()));
#ifdef __VERSION__
  host.Set("compiler", std::string(__VERSION__));
#else
  host.Set("compiler", "unknown");
#endif
  host.Set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  host.Set("optimized", OptimizedBuild());
  host.Set("revision", revision);
  return host;
}

limcap::Json ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  limcap::Json result = limcap::Json::MakeObject();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  limcap::Json values = limcap::Json::MakeObject();
  for (const Metric& metric : metrics) {
    limcap::Json entry = limcap::Json::MakeObject();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    values.Set(metric.name, std::move(entry));
  }
  result.Set("metrics", std::move(values));
  return result;
}

}  // namespace perfbench
