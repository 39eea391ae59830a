#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "capability/in_memory_source.h"
#include "exec/oracle.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "planner/witness.h"
#include "query_redraw.h"
#include "workload/generator.h"

namespace limcap::planner {
namespace {

using capability::InMemorySource;
using capability::SourceCatalog;
using paperdata::MakeExample21;
using paperdata::MakeExample41;

/// Materializes a witness instance as a live catalog over exactly the
/// connection's views.
SourceCatalog Materialize(const NonIndependenceWitness& witness,
                          const std::vector<SourceView>& views) {
  SourceCatalog catalog;
  for (const SourceView& view : views) {
    auto it = witness.data.find(view.name());
    if (it == witness.data.end()) continue;
    catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, it->second)));
  }
  return catalog;
}

TEST(WitnessTest, IndependentConnectionHasNoWitness) {
  auto example = MakeExample41();
  auto witness = ConstructNonIndependenceWitness(
      example.query, example.query.connections()[0], example.views);
  EXPECT_FALSE(witness.ok());  // T1 = {v1, v3} is independent
}

TEST(WitnessTest, UnknownViewFails) {
  auto example = MakeExample41();
  EXPECT_FALSE(ConstructNonIndependenceWitness(
                   example.query, Connection({"v1", "nope"}), example.views)
                   .ok());
}

TEST(WitnessTest, Example41T2WitnessLosesTheTuple) {
  // T2 = {v2, v3} is not independent: the witness instance must have a
  // complete answer the restricted execution cannot reach.
  auto example = MakeExample41();
  const Connection& t2 = example.query.connections()[1];
  auto witness =
      ConstructNonIndependenceWitness(example.query, t2, example.views);
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_FALSE(witness->unreachable_views.empty());

  std::vector<SourceView> t2_views;
  for (const auto& view : example.views) {
    if (t2.ContainsView(view.name())) t2_views.push_back(view);
  }
  SourceCatalog catalog = Materialize(*witness, t2_views);

  auto complete = exec::CompleteAnswer(witness->query, witness->data);
  ASSERT_TRUE(complete.ok()) << complete.status();
  EXPECT_EQ(complete->size(), 1u);
  EXPECT_TRUE(complete->Contains({Value::String("w_D")}));

  exec::QueryAnswerer answerer(&catalog, example.domains);
  auto obtainable = answerer.Answer(witness->query);
  ASSERT_TRUE(obtainable.ok()) << obtainable.status();
  EXPECT_TRUE(obtainable->exec.answer.empty());
}

class WitnessOnRandomConnections : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(WitnessOnRandomConnections, Theorem42Holds) {
  workload::CatalogSpec spec;
  spec.topology = workload::CatalogSpec::Topology::kRandom;
  spec.num_views = 8;
  spec.num_attributes = 7;
  spec.bound_probability = 0.6;
  spec.tuples_per_view = 5;
  spec.seed = GetParam() * 97 + 11;
  workload::GeneratedInstance instance = workload::GenerateInstance(spec);

  workload::QuerySpec query_spec;
  query_spec.num_connections = 2;
  query_spec.views_per_connection = 3;
  query_spec.seed = GetParam() * 7 + 3;
  // Theorem 4.2 speaks about dependent connections: draw until a query
  // has one.
  auto query = testutil::Redraw(
      instance, query_spec,
      [&](const planner::Query& drawn) -> std::optional<planner::Query> {
        for (const Connection& connection : drawn.connections()) {
          if (ConstructNonIndependenceWitness(drawn, connection,
                                              instance.views)
                  .ok()) {
            return drawn;
          }
        }
        return std::nullopt;
      });
  ASSERT_TRUE(query.has_value())
      << "no query with a dependent connection in "
      << testutil::kMaxDraws << " draws";

  bool found_dependent = false;
  for (const Connection& connection : query->connections()) {
    auto witness =
        ConstructNonIndependenceWitness(*query, connection, instance.views);
    if (!witness.ok()) continue;  // independent connection
    found_dependent = true;

    std::vector<SourceView> connection_views;
    for (const auto& view : instance.views) {
      if (connection.ContainsView(view.name())) {
        connection_views.push_back(view);
      }
    }
    SourceCatalog catalog = Materialize(*witness, connection_views);
    auto complete = exec::CompleteAnswer(witness->query, witness->data);
    ASSERT_TRUE(complete.ok());
    EXPECT_EQ(complete->size(), 1u);

    exec::QueryAnswerer answerer(&catalog, instance.domains);
    auto obtainable = answerer.Answer(witness->query);
    ASSERT_TRUE(obtainable.ok()) << obtainable.status();
    // Theorem 4.2: some complete tuple is missed — here, the only one.
    EXPECT_LT(obtainable->exec.answer.size(), complete->size())
        << connection.ToString();
  }
  EXPECT_TRUE(found_dependent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessOnRandomConnections,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace limcap::planner
