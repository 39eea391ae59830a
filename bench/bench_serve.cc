// Serving throughput harness: the mixed workload (paper Example 2.1 +
// bf-chain + random-topology queries, one seeded arrival order) driven
// through a ServeSession at increasing worker counts. Every request is
// submitted up front with an unbounded-enough queue, so the measured
// window is pure sustained service: wall clock from first Submit to
// last callback.
//
// Each catalog source is wrapped in a decorator that sleeps a real
// (wall-clock) delay per Execute, modeling the remote round-trips the
// in-memory stand-ins elide. That is what makes worker scaling
// hardware-independent: queries are dominated by blocked time, which
// workers overlap, so a single-core CI runner still shows the pool
// winning. The delay changes no answer bytes (fingerprints ignore
// timings by design).
//
// Self-checks (the acceptance bars for the serving layer actually
// scaling):
//   * every request completes with an OK report at every worker count;
//   * per-request answers are bit-identical (exec::OrderedFingerprint)
//     across worker counts — concurrency changes throughput, never
//     answers;
//   * the >=4-worker run sustains at least 2x the 1-worker qps.
//
// Output: one JSON row per worker count (human-readable) plus
// BENCH_serve.json via the shared reporter.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capability/source.h"
#include "capability/source_catalog.h"
#include "common/string_util.h"
#include "exec/fingerprint.h"
#include "mediator/mediator.h"
#include "mediator/serve_session.h"
#include "workload/generator.h"

#include "bench_report.h"

namespace {

using limcap::mediator::Mediator;
using limcap::mediator::ServeOptions;
using limcap::mediator::ServeRequest;
using limcap::mediator::ServeResponse;
using limcap::mediator::ServeSession;

int failures = 0;
limcap::benchreport::Reporter reporter("serve");

// Wall-clock round-trip per source call. Small enough to keep the
// harness fast, large enough to dominate the per-call CPU work.
constexpr auto kRoundTrip = std::chrono::microseconds(100);

/// Delegates to a real source after sleeping one simulated round-trip.
/// The underlying source (and its catalog) must outlive the decorator;
/// concurrent Execute is safe because the in-tree sources serialize
/// internally and the sleep touches no shared state.
class SlowSource : public limcap::capability::Source {
 public:
  explicit SlowSource(limcap::capability::Source* wrapped)
      : wrapped_(wrapped) {}

  const limcap::capability::SourceView& view() const override {
    return wrapped_->view();
  }

  limcap::Result<limcap::relational::Relation> Execute(
      const limcap::capability::SourceQuery& query) override {
    std::this_thread::sleep_for(kRoundTrip);
    return wrapped_->Execute(query);
  }

 private:
  limcap::capability::Source* wrapped_;
};

/// A catalog of SlowSource decorators over `fast`, in the same
/// registration order (so the capability fingerprint — and with it plan
/// caching — behaves identically).
limcap::capability::SourceCatalog WrapSlow(
    const limcap::capability::SourceCatalog& fast) {
  limcap::capability::SourceCatalog slow;
  for (const std::string& name : fast.ViewNames()) {
    auto source = fast.Find(name);
    slow.RegisterUnsafe(std::make_unique<SlowSource>(*source));
  }
  return slow;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

struct RunResult {
  double wall_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cross_query_coalesced = 0;
  std::vector<std::string> fingerprints;  // by request index
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

RunResult Drive(const limcap::capability::SourceCatalog& catalog,
                const limcap::workload::MixedWorkload& workload,
                std::size_t workers) {
  Mediator mediator(&catalog, workload.domains);
  ServeOptions options;
  options.workers = workers;
  options.max_queue = workload.requests.size() + 1;
  ServeSession session(&mediator, options);

  const std::size_t n = workload.requests.size();
  RunResult result;
  result.fingerprints.resize(n);
  std::vector<double> latencies(n, 0);
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t remaining = n;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    ServeRequest request;
    request.query = workload.requests[i].query;
    const auto submitted = std::chrono::steady_clock::now();
    limcap::Status admitted = session.Submit(
        std::move(request), [&, i, submitted](ServeResponse response) {
          const auto finished = std::chrono::steady_clock::now();
          std::lock_guard<std::mutex> lock(mutex);
          latencies[i] = std::chrono::duration<double, std::milli>(
                             finished - submitted)
                             .count();
          if (response.report.ok()) {
            result.fingerprints[i] =
                limcap::exec::OrderedFingerprint(response.report->exec);
          }
          if (--remaining == 0) all_done.notify_all();
        });
    Check(admitted.ok(), "every request admitted (queue sized to fit)");
    if (!admitted.ok()) {
      std::lock_guard<std::mutex> lock(mutex);
      if (--remaining == 0) all_done.notify_all();
    }
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return remaining == 0; });
  }
  const auto stop = std::chrono::steady_clock::now();
  session.Shutdown();

  const ServeSession::Stats stats = session.stats();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.qps = result.wall_ms > 0
                   ? 1000.0 * static_cast<double>(n) / result.wall_ms
                   : 0;
  result.p50_ms = Percentile(latencies, 0.50);
  result.p99_ms = Percentile(latencies, 0.99);
  result.completed = stats.completed;
  result.failed = stats.failed;
  result.cross_query_coalesced = stats.governor.cross_query_coalesced;
  return result;
}

void EmitRow(std::size_t workers, const RunResult& run) {
  const std::string name = limcap::StrCat({"workers_", std::to_string(workers)});
  std::printf(
      "{\"bench\": \"serve/%s\", \"completed\": %llu, \"failed\": %llu, "
      "\"wall_ms\": %.1f, \"qps\": %.1f, \"p50_ms\": %.3f, "
      "\"p99_ms\": %.3f, \"cross_query_coalesced\": %llu}\n",
      name.c_str(), static_cast<unsigned long long>(run.completed),
      static_cast<unsigned long long>(run.failed), run.wall_ms, run.qps,
      run.p50_ms, run.p99_ms,
      static_cast<unsigned long long>(run.cross_query_coalesced));
  reporter.AddRow(name)
      .Set("workers", static_cast<double>(workers))
      .Set("completed", static_cast<double>(run.completed))
      .Set("failed", static_cast<double>(run.failed))
      .Set("wall_ms", run.wall_ms)
      .Set("qps", run.qps)
      .Set("p50_ms", run.p50_ms)
      .Set("p99_ms", run.p99_ms)
      .Set("cross_query_coalesced",
           static_cast<double>(run.cross_query_coalesced));
}

}  // namespace

int main() {
  limcap::workload::MixedWorkloadSpec spec;
  spec.seed = 20260809;
  spec.num_requests = 96;
  auto workload = limcap::workload::GenerateMixedWorkload(spec);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  const std::size_t n = workload->requests.size();
  const limcap::capability::SourceCatalog slow_catalog =
      WrapSlow(workload->catalog);

  // Untimed warm-up pass: fills the OS caches and faults in the binary
  // so the 1-worker baseline isn't penalized for going first. Each
  // timed run still builds its own Mediator (cold plan cache) — both
  // worker counts pay identical planning work.
  (void)Drive(slow_catalog, *workload, 2);

  const RunResult serial = Drive(slow_catalog, *workload, 1);
  const RunResult pooled = Drive(slow_catalog, *workload, 4);
  EmitRow(1, serial);
  EmitRow(4, pooled);

  Check(serial.completed == n && serial.failed == 0,
        "1-worker run completes every request OK");
  Check(pooled.completed == n && pooled.failed == 0,
        "4-worker run completes every request OK");
  reporter.Invariant("all_requests_ok",
                     serial.completed == n && pooled.completed == n &&
                         serial.failed == 0 && pooled.failed == 0);

  bool identical = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (serial.fingerprints[i] != pooled.fingerprints[i]) {
      identical = false;
      std::fprintf(stderr, "fingerprint diverges at request %zu (%s)\n",
                   i,
                   limcap::workload::MixedRequestClassName(
                       workload->requests[i].query_class));
    }
  }
  Check(identical, "answers bit-identical across worker counts");
  reporter.Invariant("bit_identical_across_worker_counts", identical);

  const double speedup =
      serial.qps > 0 ? pooled.qps / serial.qps : 0;
  std::printf("{\"bench\": \"serve/scaling\", \"speedup\": %.2f}\n",
              speedup);
  reporter.AddRow("scaling").Set("speedup", speedup);
  Check(speedup >= 2.0, "4 workers sustain >= 2x the 1-worker qps");
  reporter.Invariant("four_workers_at_least_2x", speedup >= 2.0);

  reporter.Write();
  if (failures != 0) {
    std::fprintf(stderr, "%d self-check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_serve: all self-checks passed\n");
  return 0;
}
