// The limcap benchmark: one seeded workload driven through
// mediator::Mediator::Answer or mediator::ServeSession by one
// closed-loop client, every answer checked against the same query
// answered alone.
//
//   limcap_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--revision <text>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (half the time untraced, half traced, so the tracing overhead shows).
// The end-to-end times are rescaled to a reference host speed measured by
// a probe that runs between answers (see kWindows).
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this program and runs it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/fingerprint.h"
#include "layers.h"
#include "mediator/serve_session.h"
#include "planner/plan_cache.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using limcap::Result;
using limcap::exec::AnswerReport;

/// The untraced run is cut into this many windows of equal answering
/// time. Before a window set-up runs again (at least once, and until
/// kSetupSecondsPerWindow went into it), so set-up is sampled across the
/// whole run just as answers are; a window skips it while set-up has
/// taken more than kMaxSetupShare of the answering time so far (one
/// wide_fetch set-up answers every pool query once).
///
/// The end-to-end times are rescaled to one fixed host speed. A shared
/// VM's cores run up to ~50% slower in spells of a second to minutes,
/// thread CPU time included, and a run can fall wholly inside one. So the
/// run times HostProbeMs every kProbeEveryMs between answers, and every
/// answer or set-up time of a window is multiplied by kProbeReferenceMs
/// over the window's median probe time. The probe shares no code with the
/// library: a program that got slower reads slower after rescaling too.
/// Over runs on the same host, rescaled p50s spread ~5% where raw ones
/// spread ~25%. The raw figures are printed beside them. Answers with a
/// large working set slow down more than the probe in a slow spell, so
/// the answer times come from the half of the windows with the fastest
/// probes, where the rescaling has least to correct.
constexpr std::size_t kWindows = 40;
constexpr double kSetupSecondsPerWindow = 0.0125;
constexpr double kMaxSetupShare = 0.25;
constexpr double kProbeEveryMs = 20;
/// About the probe's median time on the 4-vCPU Sapphire Rapids VM the
/// bounds were set on, in its fast spells.
constexpr double kProbeReferenceMs = 0.8;
constexpr std::size_t kReferenceThreads = 4;
constexpr const char* kClasses[] = {"paper", "chain", "random"};

struct Args {
  WorkloadKind workload = WorkloadKind::kPaperWarm;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      auto kind = ParseWorkload(value);
      if (!kind.ok()) return false;
      args->workload = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args->seconds > 0 &&
                     args->seconds <= 3600;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--revision") {
      args->revision = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// What one measured phase saw.
struct RunStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  /// Latency of every OK answer, and parallel to it, the answer's window.
  std::vector<double> latency_ms;
  std::vector<std::size_t> window;
  /// Set-up times sampled before each window, and their windows.
  std::vector<double> setup_s;
  std::vector<std::size_t> setup_window;
  /// HostProbeMs times taken in each window.
  std::vector<std::vector<double>> host_probe_ms;
  std::vector<double> queue_ms;
  std::map<std::string, std::vector<double>> service_ms;
  uint64_t shed = 0;
  LayerSums layers;

  void Fail(std::string problem) {
    ++failed;
    if (problems.size() < 5) problems.push_back(std::move(problem));
  }
};

/// The correctness gate for one answer: OK, the solo answer's
/// fingerprint and source-query count, and decorator calls == AccessLog
/// queries == FetchReport attempts. Returns the problem, or "" when the
/// answer passes.
std::string CheckAnswer(const Result<AnswerReport>& report,
                        const Reference& reference, uint64_t probe_calls) {
  if (!report.ok()) return report.status().ToString();
  const limcap::exec::ExecResult& exec = report->exec;
  const std::size_t logged = exec.log.total_queries();
  if (logged != reference.source_queries) {
    return "source queries " + std::to_string(logged) + " != solo " +
           std::to_string(reference.source_queries);
  }
  if (exec.fetch_report.total_attempts != logged) {
    return "fetch attempts " +
           std::to_string(exec.fetch_report.total_attempts) +
           " != logged queries " + std::to_string(logged);
  }
  if (probe_calls != logged) {
    return "source calls " + std::to_string(probe_calls) +
           " != logged queries " + std::to_string(logged);
  }
  if (limcap::exec::OrderedFingerprint(exec) != reference.fingerprint) {
    return "answer differs from the solo answer";
  }
  return "";
}

/// One answer as the client saw it.
struct Answered {
  Result<AnswerReport> report = limcap::Status::Internal("not sent");
  /// serve_mixed: time queued in the session; otherwise 0.
  double queue_ms = 0;
  /// Time spent answering: the session's execution time, or the whole
  /// Mediator::Answer call.
  double service_ms = 0;
  /// The span tree the answer path emitted, in the traced run.
  std::unique_ptr<limcap::obs::Tracer> trace;
};

/// Sends pool query `index` once, checks the answer and records it in
/// `stats` as answered in `window`.
void AnswerOnce(Workload& workload,
                std::optional<limcap::mediator::ServeSession>& session,
                bool traced, std::size_t index, std::size_t window,
                RunStats* stats, double* signature_us) {
  Probe& probe = *workload.probe;
  const PoolQuery& query = workload.pool[index];
  const Universe& universe = workload.universes[query.universe];
  const Probe::Snapshot before = probe.Read();
  Answered answered;
  const Clock::time_point start = Clock::now();
  if (session.has_value()) {
    limcap::mediator::ServeRequest request;
    request.query = query.expanded;
    limcap::mediator::ServeResponse response =
        session->Answer(std::move(request));
    answered.report = std::move(response.report);
    answered.queue_ms = response.queue_ms;
    answered.service_ms = response.exec_ms;
    answered.trace = std::move(response.trace);
  } else {
    limcap::exec::ExecOptions options = workload.options;
    if (traced) {
      answered.trace = std::make_unique<limcap::obs::Tracer>();
      options.tracer = answered.trace.get();
    }
    answered.report = universe.mediator->Answer(query.request, options);
  }
  const double ms = MsBetween(start, Clock::now());
  if (!session.has_value()) answered.service_ms = ms;
  const Probe::Snapshot delta = probe.Read() - before;
  ++stats->attempted;
  std::string problem =
      CheckAnswer(answered.report, workload.reference[index], delta.calls);
  if (!problem.empty()) {
    if (!answered.report.ok() && answered.report.status().code() ==
                                     limcap::StatusCode::kLoadShed) {
      ++stats->shed;
    }
    stats->Fail(query.request.view + ": " + problem);
    return;
  }
  stats->latency_ms.push_back(ms);
  stats->window.push_back(window);
  if (session.has_value()) stats->queue_ms.push_back(answered.queue_ms);
  stats->service_ms[query.query_class].push_back(answered.service_ms);
  if (answered.trace != nullptr) {
    stats->layers.AddAnswer(*answered.report, *answered.trace,
                            answered.service_ms * 1000.0, delta);
    // The signature is computed inside "plan.cache_lookup"; time it
    // alone to split it out.
    const Clock::time_point t0 = Clock::now();
    auto signature = limcap::planner::MakeQuerySignature(
        query.expanded, *universe.catalog, universe.mediator->domains(),
        workload.options.builder,
        StaticAnalysisModeTag(workload.options.static_analysis));
    *signature_us += MsBetween(t0, Clock::now()) * 1000.0;
    if (!signature.ok()) stats->Fail(signature.status().ToString());
  }
}

/// One client, closed loop: the next request goes out when the previous
/// answer is back, to Mediator::Answer or — for serve_mixed — to a
/// ServeSession. In the traced run every answer carries its span tree.
/// `cursor` walks the request order across phases. The host probe runs
/// between answers; with `setup_inputs` (the end-to-end run), set-up over
/// them is also timed between windows (see kWindows).
RunStats RunClosedLoop(Workload& workload, double seconds, bool traced,
                       std::size_t* cursor,
                       const Inputs* setup_inputs = nullptr) {
  RunStats stats;
  Probe& probe = *workload.probe;
  probe.timing = traced;
  std::optional<limcap::mediator::ServeSession> session;
  if (workload.kind == WorkloadKind::kServeMixed) {
    limcap::mediator::ServeOptions options;
    options.workers = kServeWorkers;
    options.exec = workload.options;
    options.trace_requests = traced;
    session.emplace(workload.universes[0].mediator.get(), options);
  }
  double signature_us = 0;
  const auto window_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kWindows));
  Clock::time_point deadline = Clock::now();
  double setup_total_s = 0;
  stats.host_probe_ms.resize(kWindows);
  for (std::size_t window = 0; window < kWindows; ++window) {
    if (setup_inputs != nullptr &&
        setup_total_s <= kMaxSetupShare * seconds * window / kWindows) {
      // The set-up a fresh mediator pays, timed and thrown away.
      double spent_s = 0;
      while (spent_s == 0 || spent_s < kSetupSecondsPerWindow) {
        const Clock::time_point start = Clock::now();
        Result<Workload> fresh = BuildWorkload(*setup_inputs);
        const double setup_s = MsBetween(start, Clock::now()) / 1000.0;
        if (!fresh.ok()) {
          stats.Fail("set-up: " + fresh.status().ToString());
          return stats;
        }
        fresh = limcap::Status::Internal("timed");  // free it
        stats.setup_s.push_back(setup_s);
        stats.setup_window.push_back(window);
        spent_s += setup_s;
      }
      setup_total_s += spent_s;
    }
    deadline = std::max(deadline, Clock::now()) + window_length;
    std::optional<Clock::time_point> last_probe;
    while (Clock::now() < deadline) {
      if (!last_probe ||
          MsBetween(*last_probe, Clock::now()) >= kProbeEveryMs) {
        stats.host_probe_ms[window].push_back(HostProbeMs());
        last_probe = Clock::now();
      }
      const std::size_t index =
          workload.order[(*cursor)++ % workload.order.size()];
      AnswerOnce(workload, session, traced, index, window, &stats,
                 &signature_us);
    }
  }
  probe.timing = false;
  if (traced) {
    stats.layers.signature_us = signature_us;
    stats.layers.cache_lookup_us =
        std::max(0.0, stats.layers.cache_lookup_us - signature_us);
  }
  return stats;
}

/// The paper's cost: solo source queries per pool query. Every timed
/// answer was checked against its solo count, and the loops cycle the
/// pool, so the figure is exact for a seed however many answers the
/// window held.
double SourceQueriesPerAnswer(const Workload& workload) {
  double total = 0;
  for (const Reference& reference : workload.reference) {
    total += double(reference.source_queries);
  }
  return total / double(workload.reference.size());
}

/// Each window's factor to the reference host speed (see kWindows): 1 for
/// a window without a probe.
std::vector<double> WindowScales(const RunStats& stats) {
  std::vector<double> scale(kWindows, 1.0);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double median = Median(stats.host_probe_ms[w]);
    if (median > 0) scale[w] = kProbeReferenceMs / median;
  }
  return scale;
}

/// Every OK answer's latency, rescaled to the reference host speed.
std::vector<double> RescaledLatencies(const RunStats& stats) {
  const std::vector<double> scale = WindowScales(stats);
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < stats.latency_ms.size(); ++i) {
    latency_ms.push_back(stats.latency_ms[i] * scale[stats.window[i]]);
  }
  return latency_ms;
}

/// The half of the windows (rounded up) with the fastest median probe.
std::vector<bool> FastWindows(const RunStats& stats) {
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double median = Median(stats.host_probe_ms[w]);
    if (median > 0) ranked.emplace_back(median, w);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<bool> fast(kWindows, false);
  for (std::size_t k = 0; k < (ranked.size() + 1) / 2; ++k) {
    fast[ranked[k].second] = true;
  }
  return fast;
}

std::vector<Metric> EndToEndMetrics(const Workload& workload,
                                    const RunStats& stats) {
  const std::vector<double> scale = WindowScales(stats);
  const std::vector<double> rescaled = RescaledLatencies(stats);
  const std::vector<bool> fast = FastWindows(stats);
  std::vector<double> latency_ms;
  double busy_ms = 0;
  for (std::size_t i = 0; i < rescaled.size(); ++i) {
    if (!fast[stats.window[i]]) continue;
    latency_ms.push_back(rescaled[i]);
    busy_ms += rescaled[i];
  }
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < stats.setup_s.size(); ++i) {
    setup_s.push_back(stats.setup_s[i] * scale[stats.setup_window[i]]);
  }
  std::vector<double> probe_ms;
  std::size_t probes = 0;
  for (const std::vector<double>& window : stats.host_probe_ms) {
    probes += window.size();
    if (!window.empty()) probe_ms.push_back(Median(window));
  }
  std::sort(probe_ms.begin(), probe_ms.end());
  const Tail tail = TailOf(latency_ms);
  std::printf("answers: %zu OK of %llu attempted; failed_frac %.6g\n",
              stats.latency_ms.size(),
              static_cast<unsigned long long>(stats.attempted),
              stats.attempted > 0 ? double(stats.failed) / stats.attempted
                                  : 1.0);
  if (!probe_ms.empty()) {
    std::printf("host probe: %zu probes, window medians %.4f / %.4f / %.4f "
                "ms (min / median / max; reference %.4g ms)\n",
                probes, probe_ms.front(), Median(probe_ms), probe_ms.back(),
                kProbeReferenceMs);
  }
  std::printf("not rescaled: answer_p50_ms %.6g, answer_tail_ms %.6g, "
              "setup_s %.6g\n",
              Median(stats.latency_ms), TailOf(stats.latency_ms).value,
              Median(stats.setup_s));
  std::printf("answer_tail_ms is p%g of %zu samples (the fast-probe half of "
              "the windows); setup_s is the median of %zu set-ups\n",
              tail.percentile, tail.samples, setup_s.size());
  return {
      {"answer_p50_ms", Median(latency_ms), "ms"},
      {"answer_tail_ms", tail.value, "ms"},
      {"answers_per_s",
       busy_ms > 0 ? double(latency_ms.size()) / (busy_ms / 1000.0) : 0,
       "1/s"},
      {"source_queries_per_answer", SourceQueriesPerAnswer(workload),
       "count"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const RunStats& untraced,
                                 const RunStats& traced) {
  const LayerSums& s = traced.layers;
  const double n = s.answers > 0 ? s.answers : 1;
  const double dispatch_us = s.fetch_batch_us - s.source_us;
  const double self_us = s.execute_us - s.eval_us - s.source_us;
  const double covered = s.signature_us + s.cache_lookup_us + s.relevance_us +
                         s.build_us + s.optimize_us + s.gate_us + s.eval_us +
                         s.fetch_batch_us;
  // Both halves rescaled, so a host spell in one does not read as tracing
  // cost.
  const double untraced_p50 = Median(RescaledLatencies(untraced));
  const bool served = workload.kind == WorkloadKind::kServeMixed;
  std::vector<Metric> metrics = {
      {"planner.signature_us", s.signature_us / n, "us"},
      {"planner.cache_lookup_us", s.cache_lookup_us / n, "us"},
      {"planner.relevance_us", s.relevance_us / n, "us"},
      {"planner.build_us", s.build_us / n, "us"},
      {"planner.optimize_us", s.optimize_us / n, "us"},
      {"planner.cache_hit_ratio",
       s.cache_lookups > 0 ? s.cache_hits / s.cache_lookups : 0, "frac"},
      {"planner.cache_lookups", s.cache_lookups, "count"},
      {"analysis.gate_us", s.gate_us / n, "us"},
      {"analysis.pruned_channels", s.pruned_channels / n, "count"},
      {"exec.execute_us", s.execute_us / n, "us"},
      {"exec.self_us", self_us / n, "us"},
      {"exec.rounds", s.rounds / n, "count"},
      {"exec.post_ingest_translations", s.post_ingest_translations / n,
       "count"},
      {"datalog.eval_us", s.eval_us / n, "us"},
      {"datalog.rule_activations", s.rule_activations / n, "count"},
      {"datalog.facts_derived", s.facts_derived / n, "count"},
      {"runtime.dispatch_us", dispatch_us / n, "us"},
      {"runtime.batches", s.batches / n, "count"},
      {"runtime.attempts", s.attempts / n, "count"},
      {"capability.source_calls", s.source_calls / n, "count"},
      {"capability.source_us", s.source_us / n, "us"},
      {"capability.rows_per_call",
       s.source_calls > 0 ? s.rows / s.source_calls : 0, "count"},
      {"capability.useful_call_ratio",
       s.source_calls > 0 ? s.useful_calls / s.source_calls : 0, "frac"},
      // One closed-loop client never queues.
      {"mediator.queue_wait_p50_ms", served ? Median(traced.queue_ms) : 0,
       "ms"},
      {"mediator.queue_wait_tail_ms",
       served ? TailOf(traced.queue_ms).value : 0, "ms"},
  };
  for (const char* query_class : kClasses) {
    auto it = traced.service_ms.find(query_class);
    metrics.push_back({std::string("mediator.service_p50_ms.") + query_class,
                       it == traced.service_ms.end() ? 0 : Median(it->second),
                       "ms"});
  }
  metrics.push_back(
      {"mediator.shed", double(untraced.shed + traced.shed), "count"});
  metrics.push_back(
      {"obs.trace_overhead_frac",
       untraced_p50 > 0
           ? Median(RescaledLatencies(traced)) / untraced_p50 - 1
           : 0,
       "frac"});
  metrics.push_back({"obs.unattributed_frac",
                     s.answer_us > 0 ? 1 - covered / s.answer_us : 0,
                     "frac"});
  return metrics;
}

int Run(const Args& args) {
  limcap::Json host = limcap::Json::MakeObject();
  host.Set("host", HostJson(args.revision));
  std::printf("%s\n", host.Dump().c_str());
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "WARNING: unoptimized build; wall times are not comparable\n");
  }
  const char* name = WorkloadName(args.workload);

  // The inputs are drawn once and the system is built over them; the
  // untraced run times set-up again before each window.
  const Result<Inputs> inputs = DrawInputs(args.workload, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s inputs failed: %s\n", name,
                 inputs.status().ToString().c_str());
    return 1;
  }
  Result<Workload> workload = BuildWorkload(*inputs);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s set-up failed: %s\n", name,
                 workload.status().ToString().c_str());
    return 1;
  }
  const Clock::time_point reference_start = Clock::now();
  limcap::Status referenced = ComputeReferences(&*workload, kReferenceThreads);
  if (!referenced.ok()) {
    std::fprintf(stderr, "%s reference answers failed: %s\n", name,
                 referenced.ToString().c_str());
    return 1;
  }
  std::printf("%s seed %llu: %zu pool queries, solo reference answers "
              "%.3f s\n",
              name, static_cast<unsigned long long>(args.seed),
              workload->pool.size(),
              MsBetween(reference_start, Clock::now()) / 1000.0);

  std::vector<double> solo_queries;
  for (const Reference& reference : workload->reference) {
    solo_queries.push_back(double(reference.source_queries));
  }
  std::sort(solo_queries.begin(), solo_queries.end());
  std::printf("solo source queries per pool query: min %.0f median %.0f "
              "max %.0f\n",
              solo_queries.front(), Median(solo_queries), solo_queries.back());

  std::size_t cursor = 0;
  std::vector<Metric> metrics;
  RunStats all;
  if (!args.trace) {
    all = RunClosedLoop(*workload, args.seconds, false, &cursor, &*inputs);
    metrics = EndToEndMetrics(*workload, all);
  } else {
    RunStats untraced =
        RunClosedLoop(*workload, args.seconds / 2, false, &cursor);
    RunStats traced = RunClosedLoop(*workload, args.seconds / 2, true, &cursor);
    metrics = LayerMetrics(*workload, untraced, traced);
    all.attempted = untraced.attempted + traced.attempted;
    all.failed = untraced.failed + traced.failed;
    all.problems = untraced.problems;
    all.problems.insert(all.problems.end(), traced.problems.begin(),
                        traced.problems.end());
    all.latency_ms = traced.latency_ms;
  }
  bool correct = all.failed == 0 && !all.latency_ms.empty();
  for (Metric& metric : metrics) {
    std::printf("%-36s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    if (!std::isfinite(metric.value)) {  // JSON has no NaN or infinity
      all.problems.push_back(metric.name + " is not finite");
      metric.value = 0;
      correct = false;
    }
  }
  for (const std::string& problem : all.problems) {
    std::fprintf(stderr, "FAILED: %s\n", problem.c_str());
  }
  std::printf("%s\n", ResultJson(correct, all.attempted, all.failed, metrics)
                          .Dump()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_warm|chain_cold|wide_fetch|"
                 "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--revision <text>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
