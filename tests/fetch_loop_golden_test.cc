// Golden for the Sec. 3.3 fetch/evaluate loop: for a fixed matrix of
// catalogs, queries and execution options, the hash of each execution's
// OrderedFingerprint (every source query in order, every interned id,
// every derived fact) plus its round count, budget flag, source-call
// attempts and simulated makespan, checked against
// tests/golden/fetch_loop.txt line by line. Any change to which queries
// the loop forms, in what order, how the scheduler dispatches them, or
// where they land on the simulated timeline shows up as a diff.
// Regenerate in place with
//
//   LIMCAP_REGEN_GOLDEN=1 build/tests/fetch_loop_golden_test
//
// The matrix: 24 generated instances (chain, star and random topologies;
// the random ones carry templates with two or more bound positions, and
// several views have none) under {round-based, eager} × {unbudgeted,
// max_source_queries, min_answers} × {serial, concurrent dispatch}, plus
// adaptive runs with dynamic pruning, the paper examples, and fault-
// injected runs with retries, breakers and continue_on_source_error.
//
// The semi-naive frontier enumerator (ForEachDeltaCombo) is also checked
// directly against brute-force odometer filtering.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "capability/catalog_fingerprint.h"
#include "capability/catalog_text.h"
#include "capability/in_memory_source.h"
#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "runtime/fault_injection.h"
#include "workload/generator.h"

#ifndef LIMCAP_GOLDEN_DIR
#error "LIMCAP_GOLDEN_DIR must be defined by the build"
#endif

namespace limcap::exec {
namespace {

using capability::InMemorySource;
using capability::SourceCatalog;
using workload::CatalogSpec;
using workload::GeneratedInstance;

std::string GoldenPath() {
  return std::string(LIMCAP_GOLDEN_DIR) + "/fetch_loop.txt";
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Distinct simulated latencies per view, so concurrent timelines under
/// the in-flight caps are not all ties.
runtime::LatencyModel VariedLatency(const SourceCatalog& catalog) {
  runtime::LatencyModel latency;
  std::size_t i = 0;
  for (const std::string& name : catalog.ViewNames()) {
    latency.per_source_ms[name] = 10.0 + 7.0 * double(i++ % 5);
  }
  return latency;
}

ExecOptions Concurrent(ExecOptions options) {
  options.runtime.concurrent = true;
  options.runtime.max_in_flight = 3;
  options.runtime.per_source_max_in_flight = 2;
  return options;
}

/// Observed shape of the matrix, so the golden provably covers what it
/// claims to (multi-bound and unbound queries actually issued).
struct Coverage {
  std::size_t multi_bound_queries = 0;
  std::size_t unbound_queries = 0;
  std::size_t eager_runs = 0;
  std::size_t budget_stops = 0;
  std::size_t skipped_dynamic = 0;
  std::size_t failed_fetches = 0;
};

/// One golden line: the case label and the execution's pinned outputs
/// (or its error, for a run that aborts).
std::string RunCase(const std::string& label, const SourceCatalog& catalog,
                    const planner::DomainMap& domains,
                    const planner::Query& query, const ExecOptions& options,
                    bool unoptimized, Coverage* coverage) {
  QueryAnswerer answerer(&catalog, domains);
  auto report = unoptimized ? answerer.AnswerUnoptimized(query, options)
                            : answerer.Answer(query, options);
  if (!report.ok()) return label + " error=" + report.status().ToString();
  const ExecResult& exec = report->exec;
  for (const auto& record : exec.log.records()) {
    if (record.query_ids().size() >= 2) ++coverage->multi_bound_queries;
    if (record.query_ids().empty()) ++coverage->unbound_queries;
    if (!record.error().empty()) ++coverage->failed_fetches;
  }
  if (exec.budget_exhausted) ++coverage->budget_stops;
  coverage->skipped_dynamic += exec.fetch_report.skipped_dynamic;
  char line[256];
  std::snprintf(
      line, sizeof(line),
      " fp=%016llx rounds=%zu budget=%d attempts=%zu makespan=%a",
      static_cast<unsigned long long>(
          capability::StableHash64(OrderedFingerprint(exec))),
      exec.rounds, exec.budget_exhausted ? 1 : 0,
      exec.fetch_report.total_attempts,
      exec.fetch_report.simulated_makespan_ms);
  return label + line;
}

/// The {strategy} × {budget} × {dispatch} matrix over one catalog/query.
void RunMatrix(const std::string& name, const SourceCatalog& catalog,
               const planner::DomainMap& domains, const planner::Query& query,
               bool unoptimized, std::vector<std::string>* lines,
               Coverage* coverage) {
  const runtime::LatencyModel latency = VariedLatency(catalog);
  for (FetchStrategy strategy :
       {FetchStrategy::kRoundBased, FetchStrategy::kEager}) {
    for (int budget = 0; budget < 3; ++budget) {
      for (bool concurrent : {false, true}) {
        ExecOptions options;
        options.strategy = strategy;
        options.runtime.latency = latency;
        if (budget == 1) options.max_source_queries = 5;
        if (budget == 2) options.min_answers = 1;
        if (concurrent) options = Concurrent(options);
        if (strategy == FetchStrategy::kEager) ++coverage->eager_runs;
        const std::string label =
            name + (strategy == FetchStrategy::kEager ? " eager" : " round") +
            (budget == 0 ? "/all" : budget == 1 ? "/max5" : "/min1") +
            (concurrent ? "/concurrent" : "/serial");
        lines->push_back(RunCase(label, catalog, domains, query, options,
                                 unoptimized, coverage));
      }
    }
  }
  for (bool concurrent : {false, true}) {
    ExecOptions options;
    options.runtime.latency = latency;
    options.runtime.adaptive.enabled = true;
    if (concurrent) options = Concurrent(options);
    lines->push_back(RunCase(
        name + " adaptive/" + (concurrent ? "concurrent" : "serial"), catalog,
        domains, query, options, unoptimized, coverage));
  }
}

/// 8 instances per topology, drawn from consecutive seeds (a seed whose
/// instance admits no valid query is passed over, deterministically).
void RunGeneratedInstances(std::vector<std::string>* lines,
                           Coverage* coverage) {
  for (auto topology :
       {CatalogSpec::Topology::kChain, CatalogSpec::Topology::kStar,
        CatalogSpec::Topology::kRandom}) {
    const char* topology_name =
        topology == CatalogSpec::Topology::kChain  ? "chain"
        : topology == CatalogSpec::Topology::kStar ? "star"
                                                   : "random";
    std::size_t found = 0;
    for (uint64_t seed = 0; found < 8 && seed < 64; ++seed) {
      CatalogSpec spec;
      spec.topology = topology;
      spec.seed = seed * 6151 + 17;
      spec.num_views = 7;
      spec.num_attributes = 6;
      spec.max_arity = 4;
      spec.bound_probability = 0.45;
      spec.tuples_per_view = 16;
      spec.domain_size = 8;
      GeneratedInstance instance = GenerateInstance(spec);
      workload::QuerySpec query_spec;
      query_spec.seed = seed * 7723 + 5;
      auto query = workload::GenerateQuery(instance, query_spec);
      if (!query.ok()) continue;
      ++found;
      RunMatrix(std::string(topology_name) + "/s" + std::to_string(seed),
                instance.catalog, instance.domains, *query,
                /*unoptimized=*/true, lines, coverage);
    }
    ASSERT_EQ(found, 8u) << topology_name;
  }
}

/// Example 2.1 with v4 behind a seeded FaultInjectingSource: flaky
/// attempts, latency spikes past a deadline, retries with jittered
/// backoff, and a circuit breaker.
void RunFaultCases(std::vector<std::string>* lines, Coverage* coverage) {
  for (bool concurrent : {false, true}) {
    for (bool keep_going : {true, false}) {
      paperdata::PaperExample example = paperdata::MakeExample21();
      SourceCatalog catalog;
      for (const auto& view : example.views) {
        auto* source = dynamic_cast<InMemorySource*>(
            example.catalog.Find(view.name()).value());
        auto copy = std::make_unique<InMemorySource>(
            InMemorySource::MakeUnsafe(view, source->data()));
        if (view.name() == "v4" || view.name() == "v2") {
          runtime::FaultSpec fault;
          fault.fail_rate = 0.6;
          fault.latency_spike_rate = 0.3;
          fault.latency_spike_ms = 400;
          fault.seed = view.name() == "v4" ? 11 : 29;
          catalog.RegisterUnsafe(std::make_unique<runtime::FaultInjectingSource>(
              std::move(copy), fault));
        } else {
          catalog.RegisterUnsafe(std::move(copy));
        }
      }
      ExecOptions options;
      options.continue_on_source_error = keep_going;
      options.runtime.latency = VariedLatency(catalog);
      options.runtime.retry.max_attempts = 2;
      options.runtime.retry.deadline_ms = 200;
      options.runtime.retry.breaker.failure_threshold = 2;
      options.runtime.retry.breaker.cooldown_ms = 60;
      options.runtime.seed = 5;
      if (concurrent) options = Concurrent(options);
      lines->push_back(RunCase(
          std::string("faults ") + (keep_going ? "continue" : "stop") + "/" +
              (concurrent ? "concurrent" : "serial"),
          catalog, example.domains, example.query, options,
          /*unoptimized=*/false, coverage));
    }
  }
}

// A decoy join whose fetches the dynamic relevance check suppresses (the
// adaptive suite's junk-feeder catalog).
constexpr const char* kJunkFeederCatalog = R"(
source v1(Song, Cd) [bf] { (t1, c1), (t1, c9) }
source v2(Cd, Price) [bf] { (c1, "$5") }
source w(Song, Cd) [bf] { (t1, c9) }
source x(Cd, Price) [bf] { (c1, "$7") }
)";

TEST(FetchLoopGoldenTest, MatchesCheckedInGolden) {
  std::vector<std::string> lines;
  Coverage coverage;
  RunGeneratedInstances(&lines, &coverage);

  const std::pair<const char*, paperdata::PaperExample (*)()> examples[] = {
      {"example21", paperdata::MakeExample21},
      {"example41", paperdata::MakeExample41},
      {"example51", paperdata::MakeExample51},
      {"example52", paperdata::MakeExample52}};
  for (const auto& [name, make] : examples) {
    paperdata::PaperExample example = make();
    RunMatrix(name, example.catalog, example.domains, example.query,
              /*unoptimized=*/false, &lines, &coverage);
  }

  auto junk = capability::ParseCatalog(kJunkFeederCatalog);
  ASSERT_TRUE(junk.ok()) << junk.status().message();
  const planner::Query junk_query(
      {{"Song", Value::String("t1")}}, {"Price"},
      {planner::Connection({"v1", "v2"}), planner::Connection({"w", "x"})});
  RunMatrix("junkfeeder", junk->catalog, planner::DomainMap(), junk_query,
            /*unoptimized=*/false, &lines, &coverage);

  RunFaultCases(&lines, &coverage);

  // The matrix exercises what it claims to.
  EXPECT_GT(coverage.multi_bound_queries, 0u);
  EXPECT_GT(coverage.unbound_queries, 0u);
  EXPECT_GT(coverage.eager_runs, 0u);
  EXPECT_GT(coverage.budget_stops, 0u);
  EXPECT_GT(coverage.skipped_dynamic, 0u);
  EXPECT_GT(coverage.failed_fetches, 0u);

  std::string rendered;
  for (const std::string& line : lines) rendered += line + "\n";
  if (std::getenv("LIMCAP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << rendered;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath();
  std::stringstream golden;
  golden << in.rdbuf();
  const std::vector<std::string> expected = Lines(golden.str());
  ASSERT_EQ(lines.size(), expected.size())
      << "regenerate with LIMCAP_REGEN_GOLDEN=1 "
         "build/tests/fetch_loop_golden_test";
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < lines.size() && mismatches < 10; ++i) {
    if (lines[i] != expected[i]) {
      ++mismatches;
      ADD_FAILURE() << "line " << i + 1 << "\n  got:  " << lines[i]
                    << "\n  want: " << expected[i];
    }
  }
}

/// The full cross product of `extents` in odometer order (position 0
/// fastest), filtered to the picks with a coordinate at or past its
/// watermark.
std::vector<std::vector<std::size_t>> BruteForceDelta(
    const std::vector<std::size_t>& extents,
    const std::vector<std::size_t>& watermarks) {
  std::vector<std::vector<std::size_t>> delta;
  for (std::size_t extent : extents) {
    if (extent == 0) return delta;
  }
  std::vector<std::size_t> pick(extents.size(), 0);
  while (true) {
    for (std::size_t i = 0; i < pick.size(); ++i) {
      if (pick[i] >= watermarks[i]) {
        delta.push_back(pick);
        break;
      }
    }
    std::size_t i = 0;
    for (; i < pick.size(); ++i) {
      if (++pick[i] < extents[i]) break;
      pick[i] = 0;
    }
    if (i == pick.size()) return delta;
  }
}

TEST(FetchLoopDeltaTest, MatchesBruteForceOdometer) {
  std::mt19937_64 rng(20261018);
  std::size_t nonempty = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t k = rng() % 5;
    std::vector<std::size_t> extents(k);
    std::vector<std::size_t> watermarks(k);
    for (std::size_t i = 0; i < k; ++i) {
      extents[i] = rng() % 5;
      watermarks[i] = rng() % (extents[i] + 1);
    }
    std::vector<std::vector<std::size_t>> delta;
    ForEachDeltaCombo(extents, watermarks,
                      [&](std::span<const std::size_t> pick) {
                        delta.emplace_back(pick.begin(), pick.end());
                      });
    std::ostringstream shape;
    for (std::size_t i = 0; i < k; ++i) {
      shape << extents[i] << "/" << watermarks[i] << " ";
    }
    ASSERT_EQ(delta, BruteForceDelta(extents, watermarks))
        << "extent/watermark per position: " << shape.str();
    if (!delta.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 1000u);
}

}  // namespace
}  // namespace limcap::exec
