#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>

#include "analysis/binding_flow.h"
#include "capability/catalog_text.h"
#include "common/value_dictionary.h"
#include "exec/baseline_executor.h"
#include "exec/oracle.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "planner/closure.h"
#include "query_redraw.h"
#include "workload/generator.h"

namespace limcap {
namespace {

using exec::CompleteAnswer;
using exec::QueryAnswerer;
using planner::AttributeSet;
using relational::Row;
using workload::CatalogSpec;
using workload::GeneratedInstance;
using workload::GenerateInstance;
using workload::GenerateQuery;
using workload::QuerySpec;

std::set<Row> Rows(const relational::Relation& relation) {
  auto decoded = relation.DecodedRows();
  return std::set<Row>(decoded.begin(), decoded.end());
}

struct Scenario {
  CatalogSpec::Topology topology;
  uint64_t seed;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  const char* topology =
      info.param.topology == CatalogSpec::Topology::kChain   ? "Chain"
      : info.param.topology == CatalogSpec::Topology::kStar ? "Star"
                                                             : "Random";
  return std::string(topology) + "Seed" + std::to_string(info.param.seed);
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  for (auto topology :
       {CatalogSpec::Topology::kChain, CatalogSpec::Topology::kStar,
        CatalogSpec::Topology::kRandom}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      scenarios.push_back({topology, seed});
    }
  }
  return scenarios;
}

class RandomInstanceProperties : public ::testing::TestWithParam<Scenario> {
 protected:
  /// Every scenario finds what its properties need well inside
  /// kMaxDraws draws; draw 0 is query_.
  static constexpr uint64_t kMaxDraws = testutil::kMaxDraws;

  void SetUp() override {
    CatalogSpec spec;
    spec.topology = GetParam().topology;
    spec.seed = GetParam().seed * 7919 + 13;
    spec.num_views = 8;
    spec.num_attributes = 7;
    spec.tuples_per_view = 25;
    spec.domain_size = 12;
    instance_ = GenerateInstance(spec);

    query_spec_.seed = GetParam().seed * 104729 + 3;
    query_spec_.num_connections = 2;
    query_spec_.views_per_connection = 2;
    auto query = GenerateQuery(instance_, query_spec_);
    ASSERT_TRUE(query.ok()) << "no valid query for this instance";
    query_ = *query;
  }

  /// The views of `connection`, in the connection's order.
  std::vector<capability::SourceView> ViewsOf(
      const planner::Connection& connection) const {
    std::vector<capability::SourceView> views;
    for (const std::string& name : connection.view_names()) {
      for (const auto& view : instance_.views) {
        if (view.name() == name) views.push_back(view);
      }
    }
    return views;
  }

  /// The first non-empty `pick` over query_ and then its deterministic
  /// re-draws, so a property that needs a particular kind of query never
  /// skips. nullopt when kMaxDraws draws run out; callers fail on it.
  std::optional<planner::Query> Redraw(
      const std::function<std::optional<planner::Query>(
          const planner::Query&)>& pick) const {
    return testutil::Redraw(instance_, query_spec_, pick);
  }

  GeneratedInstance instance_;
  QuerySpec query_spec_;
  planner::Query query_;
};

TEST_P(RandomInstanceProperties, ObtainableSubsetOfComplete) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  auto report = answerer.Answer(query_);
  ASSERT_TRUE(report.ok()) << report.status();
  auto complete = CompleteAnswer(query_, instance_.full_data);
  ASSERT_TRUE(complete.ok()) << complete.status();
  for (const Row& row : report->exec.answer.DecodedRows()) {
    EXPECT_TRUE(complete->Contains(row))
        << "obtainable row " << relational::RowToString(row)
        << " missing from complete answer; query " << query_.ToString();
  }
}

TEST_P(RandomInstanceProperties, OptimizedProgramPreservesAnswer) {
  // Theorem 5.1 + Section 6: Π(Q, V_r) with useless rules removed gives
  // the same answer as the brute-force Π(Q, V), never with more source
  // queries.
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  auto optimized = answerer.Answer(query_);
  auto unoptimized = answerer.AnswerUnoptimized(query_);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  ASSERT_TRUE(unoptimized.ok()) << unoptimized.status();
  EXPECT_EQ(Rows(optimized->exec.answer), Rows(unoptimized->exec.answer))
      << query_.ToString();
  EXPECT_LE(optimized->exec.log.total_queries(),
            unoptimized->exec.log.total_queries());
}

TEST_P(RandomInstanceProperties, BaselineSubsetOfFramework) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  exec::BaselineExecutor baseline(&instance_.catalog);
  auto framework = answerer.Answer(query_);
  auto per_join = baseline.Execute(query_);
  ASSERT_TRUE(framework.ok()) << framework.status();
  ASSERT_TRUE(per_join.ok()) << per_join.status();
  for (const Row& row : per_join->answer.DecodedRows()) {
    EXPECT_TRUE(framework->exec.answer.Contains(row))
        << relational::RowToString(row) << "; query " << query_.ToString();
  }
}

TEST_P(RandomInstanceProperties, IndependentConnectionsComplete) {
  // Theorem 4.1: on a query of independent connections the obtainable
  // answer equals the complete answer, and the baseline's bind-join
  // chains retrieve it too. Checked on the sub-query of the independent
  // connections of the first draw that has any.
  std::optional<planner::Query> independent =
      Redraw([&](const planner::Query& query) -> std::optional<planner::Query> {
        std::vector<planner::Connection> connections;
        for (const planner::Connection& connection : query.connections()) {
          if (planner::IsIndependent(query.InputAttributes(),
                                     ViewsOf(connection))) {
            connections.push_back(connection);
          }
        }
        if (connections.empty()) return std::nullopt;
        return planner::Query(query.inputs(), query.outputs(), connections);
      });
  ASSERT_TRUE(independent.has_value())
      << "no independent connection in " << kMaxDraws << " draws";

  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  auto framework = answerer.Answer(*independent);
  auto complete = CompleteAnswer(*independent, instance_.full_data);
  exec::BaselineExecutor baseline(&instance_.catalog);
  auto per_join = baseline.Execute(*independent);
  ASSERT_TRUE(framework.ok()) << framework.status();
  ASSERT_TRUE(complete.ok()) << complete.status();
  ASSERT_TRUE(per_join.ok()) << per_join.status();
  EXPECT_EQ(Rows(framework->exec.answer), Rows(*complete))
      << independent->ToString();
  EXPECT_EQ(Rows(per_join->answer), Rows(*complete))
      << independent->ToString();
}

TEST_P(RandomInstanceProperties, NaiveAndSemiNaiveExecutionsAgree) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  exec::ExecOptions naive;
  naive.mode = datalog::Evaluator::Mode::kNaive;
  auto a = answerer.Answer(query_, naive);
  auto b = answerer.Answer(query_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Rows(a->exec.answer), Rows(b->exec.answer));
}

TEST_P(RandomInstanceProperties, FetchStrategiesAgree) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  exec::ExecOptions eager;
  eager.strategy = exec::FetchStrategy::kEager;
  auto a = answerer.Answer(query_, eager);
  auto b = answerer.Answer(query_);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Rows(a->exec.answer), Rows(b->exec.answer));
  EXPECT_EQ(a->exec.log.total_queries(), b->exec.log.total_queries());
}

TEST_P(RandomInstanceProperties, BudgetedAnswersAreMonotone) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  std::size_t previous = 0;
  std::size_t previous_budget = 0;
  for (std::size_t budget : {0u, 2u, 8u, 32u, 10000u}) {
    exec::ExecOptions options;
    options.max_source_queries = budget;
    auto report = answerer.Answer(query_, options);
    ASSERT_TRUE(report.ok());
    EXPECT_GE(report->exec.answer.size(), previous)
        << "budget " << budget << " vs " << previous_budget;
    previous = report->exec.answer.size();
    previous_budget = budget;
  }
}

TEST_P(RandomInstanceProperties, FClosureOrderIsExecutable) {
  // The f-closure's order is an executable sequence: every view's
  // requirements are satisfied by the inputs plus all earlier views.
  planner::FClosure closure = planner::ComputeFClosure(
      query_.InputAttributes(), instance_.views);
  AttributeSet bound = query_.InputAttributes();
  for (const std::string& name : closure.order) {
    const capability::SourceView* view =
        instance_.catalog.FindView(name).value();
    EXPECT_TRUE(view->RequirementsSatisfiedBy(bound)) << name;
    AttributeSet attrs = view->Attributes();
    bound.insert(attrs.begin(), attrs.end());
  }
  EXPECT_EQ(bound, closure.bound_attributes);
  // Views outside the closure must not be satisfiable even at the end.
  for (const auto& view : instance_.views) {
    if (!closure.Contains(view.name())) {
      EXPECT_FALSE(view.RequirementsSatisfiedBy(bound)) << view.name();
    }
  }
}

TEST_P(RandomInstanceProperties, CatalogTextRoundTrip) {
  auto text = capability::CatalogToText(instance_.catalog);
  ASSERT_TRUE(text.ok()) << text.status();
  auto reparsed = capability::ParseCatalog(*text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->views.size(), instance_.views.size());
  // The reparsed catalog answers the query identically.
  QueryAnswerer original(&instance_.catalog, instance_.domains);
  QueryAnswerer round_tripped(&reparsed->catalog, instance_.domains);
  auto a = original.Answer(query_);
  auto b = round_tripped.Answer(query_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->exec.answer == b->exec.answer);
}

TEST_P(RandomInstanceProperties, NoDuplicateSourceQueries) {
  // The evaluator memoizes issued queries; an identical source query must
  // never be sent twice, and every query must satisfy the source's
  // templates (a violation would surface as an execution error, but we
  // assert it structurally too).
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  auto report = answerer.Answer(query_);
  ASSERT_TRUE(report.ok()) << report.status();
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& record : report->exec.log.records()) {
    EXPECT_TRUE(seen.emplace(record.source, record.RenderedQuery()).second)
        << "duplicate query " << record.RenderedQuery();
    const capability::SourceView* view =
        instance_.catalog.FindView(record.source).value();
    capability::AttributeSet bound;
    for (const auto& [attribute, value] : record.query.DecodedBindings(*view)) {
      bound.insert(attribute);
    }
    EXPECT_TRUE(view->RequirementsSatisfiedBy(bound))
        << record.RenderedQuery() << " violates " << view->ToString();
  }
}

TEST_P(RandomInstanceProperties, MinAnswersIsRespected) {
  // Needs answers to target: re-draws until the full answer is non-empty.
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  std::optional<planner::Query> query = Redraw(
      [&](const planner::Query& candidate) -> std::optional<planner::Query> {
        auto report = answerer.Answer(candidate);
        if (!report.ok() || report->exec.answer.empty()) return std::nullopt;
        return candidate;
      });
  ASSERT_TRUE(query.has_value())
      << "no query with answers in " << kMaxDraws << " draws";
  auto full = answerer.Answer(*query);
  ASSERT_TRUE(full.ok());
  exec::ExecOptions options;
  options.min_answers = 1;
  auto targeted = answerer.Answer(*query, options);
  ASSERT_TRUE(targeted.ok());
  EXPECT_GE(targeted->exec.answer.size(), 1u);
  EXPECT_LE(targeted->exec.log.total_queries(),
            full->exec.log.total_queries());
  for (const Row& row : targeted->exec.answer.DecodedRows()) {
    EXPECT_TRUE(full->exec.answer.Contains(row));
  }
}

TEST_P(RandomInstanceProperties, KernelDefinitionHolds) {
  for (const planner::Connection& connection : query_.connections()) {
    std::vector<capability::SourceView> views = ViewsOf(connection);
    AttributeSet inputs = query_.InputAttributes();
    AttributeSet kernel = planner::ComputeKernel(inputs, views);
    AttributeSet start = kernel;
    start.insert(inputs.begin(), inputs.end());
    // f-closure(K ∪ I, T) = T.
    EXPECT_EQ(planner::ComputeFClosure(start, views).views.size(),
              views.size());
    // Minimality.
    for (const std::string& attribute : kernel) {
      AttributeSet smaller = start;
      smaller.erase(attribute);
      EXPECT_LT(planner::ComputeFClosure(smaller, views).views.size(),
                views.size());
    }
    // An independent connection iff empty kernel.
    EXPECT_EQ(kernel.empty(), planner::IsIndependent(inputs, views));
  }
}

TEST_P(RandomInstanceProperties, AllKernelsShareBClosure) {
  // Lemma 5.3 on generated instances.
  for (const planner::Connection& connection : query_.connections()) {
    std::vector<capability::SourceView> views = ViewsOf(connection);
    planner::FClosure queryable = planner::ComputeFClosure(
        query_.InputAttributes(), instance_.views);
    // Lemma 5.3 speaks about queryable connections.
    bool connection_queryable = true;
    for (const std::string& name : connection.view_names()) {
      if (!queryable.Contains(name)) connection_queryable = false;
    }
    if (!connection_queryable) continue;
    std::vector<capability::SourceView> queryable_views;
    for (const auto& view : instance_.views) {
      if (queryable.Contains(view.name())) queryable_views.push_back(view);
    }
    auto kernels = planner::AllKernels(query_.InputAttributes(), views);
    if (kernels.size() < 2) continue;
    auto first = planner::ComputeBClosure(kernels[0], queryable_views);
    for (std::size_t i = 1; i < kernels.size(); ++i) {
      EXPECT_EQ(planner::ComputeBClosure(kernels[i], queryable_views), first)
          << connection.ToString();
    }
  }
}

TEST_P(RandomInstanceProperties, BindingFlowCertificatesVerify) {
  // Every verdict of the binding-flow pass carries a machine-checkable
  // certificate, and the independent checker accepts all of them.
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  auto report = answerer.AnswerUnoptimized(query_);
  ASSERT_TRUE(report.ok()) << report.status();
  auto full = planner::BuildFullProgram(query_, instance_.catalog.Views(),
                                        instance_.domains);
  ASSERT_TRUE(full.ok()) << full.status();
  analysis::BindingFlowResult flow = analysis::AnalyzeBindingFlow(
      *full, instance_.catalog.Views(), instance_.domains);
  for (const analysis::ChannelVerdict& verdict : flow.channels) {
    Status status = analysis::VerifyCertificate(
        *full, instance_.catalog.Views(), instance_.domains,
        analysis::BindingFlowOptions(), verdict);
    EXPECT_TRUE(status.ok())
        << verdict.view << "[" << verdict.template_index
        << "]: " << status.message() << "; query " << query_.ToString();
  }
}

TEST_P(RandomInstanceProperties, IrrelevantChannelsAreEvaluationInert) {
  // Soundness of the prune verdict: a channel the binding-flow pass
  // calls irrelevant contributes nothing — dropping it (alone, or all of
  // them together) leaves the answer bit-for-bit unchanged.
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);
  auto baseline = answerer.AnswerUnoptimized(query_);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto full = planner::BuildFullProgram(query_, instance_.catalog.Views(),
                                        instance_.domains);
  ASSERT_TRUE(full.ok()) << full.status();
  analysis::BindingFlowResult flow = analysis::AnalyzeBindingFlow(
      *full, instance_.catalog.Views(), instance_.domains);
  const auto pruned_channels = flow.PrunedChannels();

  exec::ExecOptions all;
  all.pruned_channels = pruned_channels;
  auto all_pruned = answerer.AnswerUnoptimized(query_, all);
  ASSERT_TRUE(all_pruned.ok()) << all_pruned.status();
  EXPECT_EQ(Rows(all_pruned->exec.answer), Rows(baseline->exec.answer))
      << query_.ToString();
  EXPECT_LE(all_pruned->exec.log.total_queries(),
            baseline->exec.log.total_queries());

  std::size_t checked = 0;
  for (const auto& channel : pruned_channels) {
    if (++checked > 4) break;  // keep the sweep bounded
    exec::ExecOptions one;
    one.pruned_channels = {channel};
    auto report = answerer.AnswerUnoptimized(query_, one);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(Rows(report->exec.answer), Rows(baseline->exec.answer))
        << "pruning " << channel.first << "[" << channel.second
        << "] changed the answer; query " << query_.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomInstanceProperties,
                         ::testing::ValuesIn(AllScenarios()), ScenarioName);

TEST(ValueDictionaryProperty, RoundTripAllKinds) {
  // Every Value kind survives Intern → Get unchanged, interning is
  // idempotent, and Lookup finds exactly the interned ids.
  ValueDictionary dict;
  std::vector<Value> values = {
      Value::Null(),          Value::Int64(0),
      Value::Int64(-7),       Value::Int64(1LL << 40),
      Value::Double(0.0),     Value::Double(-2.5),
      Value::Double(1e300),   Value::String(""),
      Value::String("faust"), Value::String("a longer string value"),
  };
  std::vector<ValueId> ids;
  for (const Value& value : values) ids.push_back(dict.Intern(value));
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.Get(ids[i]), values[i]) << values[i].ToString();
    EXPECT_EQ(dict.Get(ids[i]).kind(), values[i].kind());
    EXPECT_EQ(dict.Intern(values[i]), ids[i]) << "re-intern changed the id";
    ValueId found = 0;
    ASSERT_TRUE(dict.Lookup(values[i], &found));
    EXPECT_EQ(found, ids[i]);
  }
  // Distinct values get distinct ids.
  std::set<ValueId> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), ids.size());
}

TEST(ValueDictionaryProperty, TextuallyEqualValuesInternDistinctly) {
  // Int64(7), Double(7) and String("7") all render as "7" but are
  // different values: the dictionary must never conflate them.
  ValueDictionary dict;
  ValueId as_int = dict.Intern(Value::Int64(7));
  ValueId as_double = dict.Intern(Value::Double(7));
  ValueId as_string = dict.Intern(Value::String("7"));
  EXPECT_NE(as_int, as_double);
  EXPECT_NE(as_int, as_string);
  EXPECT_NE(as_double, as_string);
  EXPECT_EQ(dict.Get(as_int).kind(), Value::Kind::kInt64);
  EXPECT_EQ(dict.Get(as_double).kind(), Value::Kind::kDouble);
  EXPECT_EQ(dict.Get(as_string).kind(), Value::Kind::kString);
  // Null is its own value, distinct from the empty string.
  EXPECT_NE(dict.Intern(Value::Null()), dict.Intern(Value::String("")));
}

}  // namespace
}  // namespace limcap
