#include <gtest/gtest.h>

#include "common/string_util.h"
#include "exec/oracle.h"
#include "exec/query_answerer.h"
#include "planner/query_parser.h"
#include "workload/generator.h"

namespace limcap::workload {
namespace {

TEST(GeneratorTest, DeterministicAcrossCalls) {
  CatalogSpec spec;
  spec.seed = 99;
  GeneratedInstance a = GenerateInstance(spec);
  GeneratedInstance b = GenerateInstance(spec);
  ASSERT_EQ(a.views.size(), b.views.size());
  for (std::size_t i = 0; i < a.views.size(); ++i) {
    EXPECT_EQ(a.views[i].ToString(), b.views[i].ToString());
    EXPECT_TRUE(a.full_data.at(a.views[i].name()) ==
                b.full_data.at(b.views[i].name()));
  }
}

TEST(GeneratorTest, SeedChangesInstance) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kRandom;
  spec.seed = 1;
  GeneratedInstance a = GenerateInstance(spec);
  spec.seed = 2;
  GeneratedInstance b = GenerateInstance(spec);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.views.size(); ++i) {
    if (!(a.views[i].ToString() == b.views[i].ToString()) ||
        !(a.full_data.at(a.views[i].name()) ==
          b.full_data.at(b.views[i].name()))) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorTest, ChainTopologyShape) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = 5;
  GeneratedInstance instance = GenerateInstance(spec);
  ASSERT_EQ(instance.views.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(instance.views[i].pattern().ToString(), "bf");
    EXPECT_EQ(instance.views[i].schema().attribute(0),
              StrCat({"A", std::to_string(i)}));
    EXPECT_EQ(instance.views[i].schema().attribute(1),
              StrCat({"A", std::to_string(i + 1)}));
  }
}

TEST(GeneratorTest, StarTopologySharesHub) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kStar;
  spec.num_views = 6;
  GeneratedInstance instance = GenerateInstance(spec);
  for (const auto& view : instance.views) {
    EXPECT_EQ(view.schema().attribute(0), "A0");
  }
}

TEST(GeneratorTest, RandomViewsNeverFullyBoundAboveArityOne) {
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kRandom;
  spec.num_views = 30;
  spec.bound_probability = 0.95;
  spec.seed = 5;
  GeneratedInstance instance = GenerateInstance(spec);
  for (const auto& view : instance.views) {
    if (view.schema().arity() > 1) {
      EXPECT_FALSE(view.FreeAttributes().empty()) << view.ToString();
    }
  }
}

TEST(GeneratorTest, DataRespectsDomains) {
  CatalogSpec spec;
  spec.domain_size = 4;
  spec.seed = 3;
  GeneratedInstance instance = GenerateInstance(spec);
  for (const auto& view : instance.views) {
    const auto& data = instance.full_data.at(view.name());
    for (std::size_t col = 0; col < view.schema().arity(); ++col) {
      EXPECT_LE(data.ColumnValues(col).size(), 4u);
    }
  }
}

TEST(GeneratorTest, GeneratedQueryValidates) {
  CatalogSpec spec;
  spec.seed = 17;
  GeneratedInstance instance = GenerateInstance(spec);
  QuerySpec query_spec;
  query_spec.seed = 4;
  auto query = GenerateQuery(instance, query_spec);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_TRUE(query->Validate(instance.catalog).ok());
  EXPECT_EQ(query->connections().size(), query_spec.num_connections);
  // Deterministic.
  auto again = GenerateQuery(instance, query_spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(query->ToString(), again->ToString());
}

TEST(GeneratorTest, ChainQueryEndToEnd) {
  // A bf-chain is fully answerable from its head binding: framework and
  // oracle must agree.
  CatalogSpec spec;
  spec.topology = CatalogSpec::Topology::kChain;
  spec.num_views = 4;
  spec.tuples_per_view = 30;
  spec.domain_size = 10;
  spec.seed = 23;
  GeneratedInstance instance = GenerateInstance(spec);

  planner::Query query(
      {{"A0", GeneratedInstance::DomainValue("A0", 0)}},
      {"A4"},
      {planner::Connection({"v1", "v2", "v3", "v4"})});
  ASSERT_TRUE(query.Validate(instance.catalog).ok());

  exec::QueryAnswerer answerer(&instance.catalog, instance.domains);
  auto report = answerer.Answer(query);
  ASSERT_TRUE(report.ok()) << report.status();
  auto complete = exec::CompleteAnswer(query, instance.full_data);
  ASSERT_TRUE(complete.ok());
  EXPECT_TRUE(report->exec.answer == *complete);
}

// ---------------------------------------------------------------------------
// Mixed serving workload.

TEST(MixedWorkloadTest, DeterministicAndInterleavesAllClasses) {
  MixedWorkloadSpec spec;
  spec.seed = 5;
  spec.num_requests = 48;
  auto a = GenerateMixedWorkload(spec);
  auto b = GenerateMixedWorkload(spec);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();

  // Same spec, same arrival sequence — byte for byte. This is what lets
  // limcap_serve_client regenerate the daemon's workload from a seed.
  ASSERT_EQ(a->requests.size(), b->requests.size());
  std::size_t paper = 0, chain = 0, random = 0;
  for (std::size_t i = 0; i < a->requests.size(); ++i) {
    EXPECT_EQ(a->requests[i].query_class, b->requests[i].query_class);
    EXPECT_EQ(a->requests[i].query.ToString(),
              b->requests[i].query.ToString());
    switch (a->requests[i].query_class) {
      case MixedRequest::Class::kPaper:
        ++paper;
        break;
      case MixedRequest::Class::kChain:
        ++chain;
        break;
      case MixedRequest::Class::kRandom:
        ++random;
        break;
    }
  }
  // Equal default weights over 48 draws: every class shows up.
  EXPECT_GT(paper, 0u);
  EXPECT_GT(chain, 0u);
  EXPECT_GT(random, 0u);

  // The merged catalog holds all three source families, names disjoint.
  EXPECT_TRUE(a->catalog.Contains("v1"));   // paper Example 2.1
  EXPECT_TRUE(a->catalog.Contains("cv1"));  // chain, prefixed
  EXPECT_TRUE(a->catalog.Contains("rv1"));  // random topology, prefixed
}

TEST(MixedWorkloadTest, QueriesValidateAndRoundTripAsText) {
  MixedWorkloadSpec spec;
  spec.seed = 12;
  spec.num_requests = 24;
  auto workload = GenerateMixedWorkload(spec);
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (const MixedRequest& request : workload->requests) {
    EXPECT_TRUE(request.query.Validate(workload->catalog).ok())
        << request.query.ToString();
    // The serve wire protocol ships queries as paper-notation text.
    const std::string text = request.query.ToString();
    auto parsed = planner::ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for " << text;
    EXPECT_EQ(parsed->ToString(), text);
  }
}

TEST(MixedWorkloadTest, ZeroWeightDropsClassAndItsSources) {
  MixedWorkloadSpec spec;
  spec.seed = 9;
  spec.num_requests = 16;
  spec.random_weight = 0;
  auto workload = GenerateMixedWorkload(spec);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_FALSE(workload->catalog.Contains("rv1"));
  for (const MixedRequest& request : workload->requests) {
    EXPECT_NE(request.query_class, MixedRequest::Class::kRandom);
  }

  MixedWorkloadSpec none;
  none.paper_weight = 0;
  none.chain_weight = 0;
  none.random_weight = 0;
  EXPECT_EQ(GenerateMixedWorkload(none).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace limcap::workload
