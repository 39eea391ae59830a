#include <gtest/gtest.h>

#include <optional>

#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "planner/cost_model.h"
#include "query_redraw.h"
#include "workload/generator.h"

namespace limcap::planner {
namespace {

using paperdata::MakeExample21;

TEST(CollectStatsTest, ExactCounts) {
  auto example = MakeExample21();
  auto stats = CollectCatalogStats(example.catalog);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const ViewStats& v4 = stats->at("v4");
  EXPECT_EQ(v4.tuple_count, 4u);
  EXPECT_EQ(v4.distinct_values.at("Cd"), 4u);
  EXPECT_EQ(v4.distinct_values.at("Artist"), 3u);
  EXPECT_EQ(v4.distinct_values.at("Price"), 4u);
}

TEST(EstimateTest, NoInputsMeansNoQueriesOnBoundCatalog) {
  // Every view of Example 2.1 has a bound attribute; without any initial
  // binding nothing can ever be asked.
  auto example = MakeExample21();
  auto stats = CollectCatalogStats(example.catalog);
  ASSERT_TRUE(stats.ok());
  Query no_inputs({}, {"Price"},
                  {Connection({"v1", "v3"})});
  CostEstimate estimate = EstimateExecution(no_inputs, example.views,
                                            example.domains, *stats);
  EXPECT_DOUBLE_EQ(estimate.total_queries, 0.0);
}

TEST(EstimateTest, Example21InTheRightBallpark) {
  // The real evaluation of Example 2.1 issues 12 queries and obtains 11
  // source tuples; the analytic estimate must land within a small factor.
  auto example = MakeExample21();
  auto stats = CollectCatalogStats(example.catalog);
  ASSERT_TRUE(stats.ok());
  CostEstimate estimate = EstimateExecution(example.query, example.views,
                                            example.domains, *stats);
  EXPECT_GT(estimate.total_queries, 12.0 / 4.0);
  EXPECT_LT(estimate.total_queries, 12.0 * 4.0);
  EXPECT_GT(estimate.iterations, 1u);
  // All four views get queried in the estimate, as in reality.
  for (const char* view : {"v1", "v2", "v3", "v4"}) {
    EXPECT_GT(estimate.source_queries.at(view), 0.0) << view;
  }
  // Domain estimates are bounded by the universes.
  EXPECT_LE(estimate.domain_values.at("cd"), 5.0 + 1e-9);
  EXPECT_LE(estimate.domain_values.at("artist"), 4.0 + 1e-9);
  EXPECT_FALSE(estimate.ToString().empty());
}

TEST(EstimateTest, MonotoneInSeeding) {
  auto example = MakeExample21();
  auto stats = CollectCatalogStats(example.catalog);
  ASSERT_TRUE(stats.ok());
  CostEstimate cold = EstimateExecution(example.query, example.views,
                                        example.domains, *stats);
  CostEstimate warm = EstimateExecution(example.query, example.views,
                                        example.domains, *stats,
                                        {{"artist", 2.0}});
  EXPECT_GE(warm.total_queries, cold.total_queries);
  EXPECT_GE(warm.domain_values.at("artist"), cold.domain_values.at("artist"));
}

class EstimateAccuracy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EstimateAccuracy, WithinAnOrderOfMagnitude) {
  // On random instances the estimate should track the measured source
  // accesses within 10x either way (the usual cardinality-estimation
  // tolerance on small uniform data).
  workload::CatalogSpec spec;
  spec.topology = workload::CatalogSpec::Topology::kRandom;
  spec.num_views = 8;
  spec.num_attributes = 7;
  spec.tuples_per_view = 40;
  spec.domain_size = 15;
  spec.seed = GetParam() * 211 + 17;
  auto instance = workload::GenerateInstance(spec);
  workload::QuerySpec query_spec;
  query_spec.num_connections = 2;
  query_spec.views_per_connection = 2;
  query_spec.seed = GetParam() * 5 + 1;
  std::optional<Query> query = testutil::RedrawAny(instance, query_spec);
  ASSERT_TRUE(query.has_value())
      << "no valid query in " << testutil::kMaxDraws << " draws";

  auto stats = CollectCatalogStats(instance.catalog);
  ASSERT_TRUE(stats.ok());
  CostEstimate estimate = EstimateExecution(
      *query, instance.views, instance.domains, *stats);

  exec::QueryAnswerer answerer(&instance.catalog, instance.domains);
  // Estimate against the brute-force program, which queries all views
  // like the estimator assumes.
  auto report = answerer.AnswerUnoptimized(*query);
  ASSERT_TRUE(report.ok());
  double actual = static_cast<double>(report->exec.log.total_queries());
  if (actual < 3) GTEST_SKIP() << "degenerate instance";
  EXPECT_GT(estimate.total_queries, actual / 10.0)
      << "actual " << actual << ", estimated " << estimate.total_queries;
  EXPECT_LT(estimate.total_queries, actual * 10.0)
      << "actual " << actual << ", estimated " << estimate.total_queries;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimateAccuracy,
                         ::testing::Range(uint64_t{0}, uint64_t{12}));

}  // namespace
}  // namespace limcap::planner
