// StaticAnalysisMode::kPrune with binding-flow channel pruning: the
// prune verdict is answer-preserving in every execution mode (serial
// and concurrent fetch), bit-identical across modes by
// OrderedFingerprint, and actually saves source queries when the
// program carries a reachable-but-irrelevant channel.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "capability/catalog_text.h"
#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "query_redraw.h"
#include "workload/generator.h"

namespace limcap {
namespace {

using exec::AnswerReport;
using exec::ExecOptions;
using exec::OrderedFingerprint;
using exec::QueryAnswerer;
using exec::StaticAnalysisMode;
using relational::Row;
using workload::CatalogSpec;
using workload::GeneratedInstance;
using workload::GenerateInstance;
using workload::QuerySpec;

std::set<Row> Rows(const relational::Relation& relation) {
  auto decoded = relation.DecodedRows();
  return std::set<Row>(decoded.begin(), decoded.end());
}

/// The two execution modes of the acceptance criterion, each with kPrune
/// switched on.
ExecOptions SerialPrune() {
  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kPrune;
  return options;
}

ExecOptions ConcurrentFetchPrune() {
  ExecOptions options = SerialPrune();
  options.runtime.concurrent = true;
  options.runtime.max_in_flight = 8;
  options.runtime.per_source_max_in_flight = 8;
  return options;
}

/// Answers `example.query` unpruned and pruned in both modes;
/// asserts the pruned answers match the unpruned baseline and that the
/// pruned executions are bit-identical to each other.
void ExpectPrunePreservesAnswers(const paperdata::PaperExample& example,
                                 const char* label) {
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto baseline = answerer.Answer(example.query);
  ASSERT_TRUE(baseline.ok()) << label << ": " << baseline.status().message();

  auto serial = answerer.Answer(example.query, SerialPrune());
  ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().message();
  EXPECT_TRUE(serial->analysis.binding_flow_ran) << label;
  EXPECT_EQ(Rows(serial->exec.answer), Rows(baseline->exec.answer)) << label;

  auto concurrent = answerer.Answer(example.query, ConcurrentFetchPrune());
  ASSERT_TRUE(concurrent.ok()) << label;
  EXPECT_EQ(Rows(concurrent->exec.answer), Rows(baseline->exec.answer))
      << label;

  // The pruned execution is deterministic across modes: same fetches in
  // the same canonical order, same derived facts, same answer bytes.
  EXPECT_EQ(OrderedFingerprint(concurrent->exec),
            OrderedFingerprint(serial->exec))
      << label;
}

TEST(StaticPruneTest, PaperExamplesAreAnswerPreservingInEveryMode) {
  ExpectPrunePreservesAnswers(paperdata::MakeExample21(), "example 2.1");
  ExpectPrunePreservesAnswers(paperdata::MakeExample41(), "example 4.1");
  ExpectPrunePreservesAnswers(paperdata::MakeExample51(), "example 5.1");
  ExpectPrunePreservesAnswers(paperdata::MakeExample52(), "example 5.2");
}

/// Example 2.1's v1/v3 chain plus two decoys: d1 and d2 are reachable
/// off the chain's domains (Cd, Artist) but their free attributes
/// (Stock, Bio) feed no needed domain and no goal — statically
/// irrelevant. Π(Q, V) carries alpha rules for every catalog view, so
/// the ungated unoptimized run fetches the decoys; kPrune drops their
/// channels before scheduling.
constexpr const char* kDecoyCatalog = R"(
source v1(Song, Cd) [bf] { (t1, c1) (t2, c3) }
source v3(Cd, Artist, Price) [bff] { (c1, a1, "$15") (c3, a3, "$14") }
source d1(Cd, Stock) [bf] { (c1, s7) }
source d2(Artist, Bio) [bf] { (a1, b9) }
)";

planner::Query DecoyQuery() {
  return planner::Query({{"Song", Value::String("t1")}}, {"Price"},
                        {planner::Connection({"v1", "v3"})});
}

TEST(StaticPruneTest, PruningIrrelevantChannelsSavesSourceQueries) {
  auto parsed = capability::ParseCatalog(kDecoyCatalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  QueryAnswerer answerer(&parsed->catalog, planner::DomainMap());

  auto baseline = answerer.AnswerUnoptimized(DecoyQuery());
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();

  auto pruned = answerer.AnswerUnoptimized(DecoyQuery(), SerialPrune());
  ASSERT_TRUE(pruned.ok()) << pruned.status().message();
  ASSERT_TRUE(pruned->analysis.binding_flow_ran);

  EXPECT_EQ(Rows(pruned->exec.answer), Rows(baseline->exec.answer));
  // The decoys' fetches (one per Cd / Artist constant reached) are gone.
  EXPECT_LT(pruned->exec.log.total_queries(),
            baseline->exec.log.total_queries());
  // And the verdicts said so up front.
  std::set<std::string> pruned_views;
  for (const auto& [view, template_index] :
       pruned->analysis.binding_flow.PrunedChannels()) {
    pruned_views.insert(view);
  }
  EXPECT_TRUE(pruned_views.count("d1") > 0);
  EXPECT_TRUE(pruned_views.count("d2") > 0);
  EXPECT_EQ(pruned_views.count("v1"), 0u);
  EXPECT_EQ(pruned_views.count("v3"), 0u);
  // The decoy fetches were logged in the ungated run.
  bool baseline_fetched_decoy = false;
  for (const auto& record : baseline->exec.log.records()) {
    if (record.source == "d1" || record.source == "d2") {
      baseline_fetched_decoy = true;
    }
  }
  EXPECT_TRUE(baseline_fetched_decoy);
}

TEST(StaticPruneTest, UnoptimizedAndCachedPathsHonorThePruneSet) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto baseline = answerer.Answer(example.query);
  ASSERT_TRUE(baseline.ok());

  auto unoptimized = answerer.AnswerUnoptimized(example.query, SerialPrune());
  ASSERT_TRUE(unoptimized.ok()) << unoptimized.status().message();
  EXPECT_TRUE(unoptimized->analysis.binding_flow_ran);
  EXPECT_EQ(Rows(unoptimized->exec.answer), Rows(baseline->exec.answer));
  auto ungated = answerer.AnswerUnoptimized(example.query);
  ASSERT_TRUE(ungated.ok());
  EXPECT_LE(unoptimized->exec.log.total_queries(),
            ungated->exec.log.total_queries());

  auto cached = answerer.AnswerWithCache(example.query, {}, SerialPrune());
  ASSERT_TRUE(cached.ok()) << cached.status().message();
  EXPECT_EQ(Rows(cached->exec.answer), Rows(baseline->exec.answer));
}

// ---------------------------------------------------------------------
// Property: on random instances, kPrune stays answer-preserving in all
// three modes and never issues more source queries than the baseline.

struct Scenario {
  CatalogSpec::Topology topology;
  uint64_t seed;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  const char* topology =
      info.param.topology == CatalogSpec::Topology::kChain  ? "Chain"
      : info.param.topology == CatalogSpec::Topology::kStar ? "Star"
                                                            : "Random";
  return std::string(topology) + "Seed" + std::to_string(info.param.seed);
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  for (auto topology :
       {CatalogSpec::Topology::kChain, CatalogSpec::Topology::kStar,
        CatalogSpec::Topology::kRandom}) {
    for (uint64_t seed = 0; seed < 5; ++seed) {
      scenarios.push_back({topology, seed});
    }
  }
  return scenarios;
}

class StaticPruneProperty : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    CatalogSpec spec;
    spec.topology = GetParam().topology;
    spec.seed = GetParam().seed * 7919 + 401;
    spec.num_views = 7;
    spec.num_attributes = 6;
    spec.tuples_per_view = 20;
    spec.domain_size = 10;
    instance_ = GenerateInstance(spec);

    QuerySpec query_spec;
    query_spec.seed = GetParam().seed * 104729 + 41;
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

TEST_P(StaticPruneProperty, PruneIsAnswerPreservingAcrossModes) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);

  auto baseline = answerer.AnswerUnoptimized(query_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();

  auto serial = answerer.AnswerUnoptimized(query_, SerialPrune());
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  EXPECT_EQ(Rows(serial->exec.answer), Rows(baseline->exec.answer));
  EXPECT_LE(serial->exec.log.total_queries(),
            baseline->exec.log.total_queries());

  auto concurrent =
      answerer.AnswerUnoptimized(query_, ConcurrentFetchPrune());
  ASSERT_TRUE(concurrent.ok());
  EXPECT_EQ(OrderedFingerprint(concurrent->exec),
            OrderedFingerprint(serial->exec));
}

INSTANTIATE_TEST_SUITE_P(Workloads, StaticPruneProperty,
                         ::testing::ValuesIn(AllScenarios()), ScenarioName);

}  // namespace
}  // namespace limcap
