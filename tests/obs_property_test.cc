// Property: observability is passive. Attaching a tracer and a metrics
// registry to an execution must leave the execution bit-identical —
// same answer, same source-access log (order included), same derived
// facts — under every dispatch configuration. The check runs a seeded
// random-workload sweep and compares exec::OrderedFingerprint (the
// total-order digest of an execution) between a traced and an untraced
// run of the same query, for
//
//   * the serial evaluator + serial fetch (the default),
//   * the concurrent fetch runtime (thread pool + in-flight caps) —
//     this configuration also runs under TSan in CI, so a tracer
//     touched off the driver thread would be caught here.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query_redraw.h"
#include "workload/generator.h"

namespace limcap::obs {
namespace {

using exec::ExecOptions;
using exec::QueryAnswerer;
using workload::CatalogSpec;
using workload::GeneratedInstance;
using workload::GenerateInstance;
using workload::QuerySpec;

enum class Config { kSerial, kConcurrentFetch };

struct Scenario {
  Config config;
  uint64_t seed;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  const char* config =
      info.param.config == Config::kSerial ? "Serial" : "ConcurrentFetch";
  return std::string(config) + "Seed" + std::to_string(info.param.seed);
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  for (Config config : {Config::kSerial, Config::kConcurrentFetch}) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      scenarios.push_back({config, seed});
    }
  }
  return scenarios;
}

ExecOptions MakeOptions(Config config) {
  ExecOptions options;
  switch (config) {
    case Config::kSerial:
      break;
    case Config::kConcurrentFetch:
      options.runtime.concurrent = true;
      options.runtime.max_in_flight = 8;
      options.runtime.per_source_max_in_flight = 4;
      break;
  }
  return options;
}

class ObsBitIdentityProperty : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    CatalogSpec spec;
    spec.topology = GetParam().seed % 2 == 0 ? CatalogSpec::Topology::kRandom
                                             : CatalogSpec::Topology::kChain;
    spec.seed = GetParam().seed * 6151 + 29;
    spec.num_views = 8;
    spec.num_attributes = 7;
    spec.tuples_per_view = 25;
    spec.domain_size = 12;
    instance_ = GenerateInstance(spec);

    QuerySpec query_spec;
    query_spec.seed = GetParam().seed * 12289 + 11;
    query_spec.num_connections = 2;
    query_spec.views_per_connection = 2;
    std::optional<planner::Query> query =
        testutil::RedrawAny(instance_, query_spec);
    ASSERT_TRUE(query.has_value())
        << "no valid query in " << testutil::kMaxDraws << " draws";
    query_ = *query;
  }

  GeneratedInstance instance_;
  planner::Query query_;
};

TEST_P(ObsBitIdentityProperty, TraceOnEqualsTraceOff) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);

  ExecOptions plain_options = MakeOptions(GetParam().config);
  auto plain = answerer.Answer(query_, plain_options);
  ASSERT_TRUE(plain.ok()) << plain.status();

  Tracer tracer;
  MetricsRegistry metrics;
  ExecOptions traced_options = MakeOptions(GetParam().config);
  traced_options.tracer = &tracer;
  traced_options.metrics = &metrics;
  auto traced = answerer.Answer(query_, traced_options);
  ASSERT_TRUE(traced.ok()) << traced.status();

  EXPECT_EQ(exec::OrderedFingerprint(plain->exec),
            exec::OrderedFingerprint(traced->exec));
  EXPECT_FALSE(tracer.empty());

  // A *disabled* tracer is equally passive.
  Tracer disabled(/*enabled=*/false);
  ExecOptions disabled_options = MakeOptions(GetParam().config);
  disabled_options.tracer = &disabled;
  auto quiet = answerer.Answer(query_, disabled_options);
  ASSERT_TRUE(quiet.ok()) << quiet.status();
  EXPECT_EQ(exec::OrderedFingerprint(plain->exec),
            exec::OrderedFingerprint(quiet->exec));
  EXPECT_TRUE(disabled.empty());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ObsBitIdentityProperty,
                         ::testing::ValuesIn(AllScenarios()), ScenarioName);

}  // namespace
}  // namespace limcap::obs
