// The strict static gate in QueryAnswerer, and the analyzer's soundness
// property: a rule judged never-fireable contributes no facts — pruning
// it cannot change any answer.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/executability.h"
#include "analysis/lint.h"
#include "capability/catalog_text.h"
#include "datalog/parser.h"
#include "exec/query_answerer.h"
#include "exec/source_driven_evaluator.h"
#include "obs/trace.h"
#include "paperdata/paper_examples.h"
#include "query_redraw.h"
#include "workload/generator.h"

namespace limcap {
namespace {

using exec::AnswerReport;
using exec::ExecOptions;
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

/// Example 2.1's catalog extended with v6, whose only template needs
/// Isbn bound — unsatisfiable — plus a {v6} connection. The full
/// Π(Q, V) then contains rules the analyzer must flag and prune.
constexpr const char* kIsbnCatalog = R"(
source v1(Song, Cd) [bf] { (t1, c1) (t2, c3) }
source v2(Song, Cd) [fb] { (t1, c4) (t2, c2) (t1, c5) }
source v3(Cd, Artist, Price) [bff] { (c1, a1, "$15") (c3, a3, "$14") }
source v4(Cd, Artist, Price) [fbf] {
  (c1, a1, "$13") (c2, a1, "$12") (c4, a3, "$10") (c5, a5, "$11")
}
source v6(Isbn, Price) [bf] { (i1, "$9") }
)";

planner::Query IsbnQuery() {
  return planner::Query(
      {{"Song", Value::String("t1")}}, {"Price"},
      {planner::Connection({"v1", "v3"}), planner::Connection({"v6"})});
}

TEST(StaticGateTest, OffRunsNoAnalysis) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_FALSE(report->analysis_ran);
}

TEST(StaticGateTest, WarnAttachesFindingsAndExecutes) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto baseline = answerer.Answer(example.query);
  ASSERT_TRUE(baseline.ok());

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kWarn;
  auto gated = answerer.Answer(example.query, options);
  ASSERT_TRUE(gated.ok()) << gated.status().message();
  EXPECT_TRUE(gated->analysis_ran);
  EXPECT_FALSE(gated->analysis.diagnostics.has_errors());
  EXPECT_EQ(Rows(gated->exec.answer), Rows(baseline->exec.answer));
}

TEST(StaticGateTest, RejectAcceptsCleanOptimizedPlan) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kReject;
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->analysis_ran);
}

TEST(StaticGateTest, RejectRefusesUnbindableViewAtom) {
  // The optimizer drops the doomed {v6} connection, so the strict gate
  // accepts the optimized plan — but the *unoptimized* program carries
  // the unbindable v6 atom and must be rejected.
  auto parsed = capability::ParseCatalog(kIsbnCatalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  QueryAnswerer answerer(&parsed->catalog, planner::DomainMap());

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kReject;
  auto optimized = answerer.Answer(IsbnQuery(), options);
  EXPECT_TRUE(optimized.ok()) << optimized.status().message();

  auto full = answerer.AnswerUnoptimized(IsbnQuery(), options);
  ASSERT_FALSE(full.ok());
  EXPECT_NE(full.status().message().find("LC020"), std::string::npos);
}

TEST(StaticGateTest, PruneDropsDeadRulesAndPreservesAnswers) {
  auto parsed = capability::ParseCatalog(kIsbnCatalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  QueryAnswerer answerer(&parsed->catalog, planner::DomainMap());

  auto baseline = answerer.AnswerUnoptimized(IsbnQuery());
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kPrune;
  auto pruned = answerer.AnswerUnoptimized(IsbnQuery(), options);
  ASSERT_TRUE(pruned.ok()) << pruned.status().message();
  EXPECT_TRUE(pruned->analysis_ran);

  std::size_t dead = 0;
  for (const analysis::RuleVerdict& verdict :
       pruned->analysis.executability.rules) {
    if (!verdict.can_fire) ++dead;
  }
  EXPECT_GT(dead, 0u) << "the v6 rules should be provably dead";
  EXPECT_EQ(Rows(pruned->exec.answer), Rows(baseline->exec.answer));
}

TEST(StaticGateTest, GatedAnswerRunsTheAnalysisOnce) {
  // One AnalyzeProgram call carries the binding-flow verdicts: a single
  // analysis.gate span with both counters, no second pass beside it.
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  obs::Tracer tracer;
  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kPrune;
  options.tracer = &tracer;
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_TRUE(report->analysis.binding_flow_ran);

  std::vector<std::string> gate_counters;
  std::size_t analysis_spans = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name.rfind("analysis", 0) != 0) continue;
    ++analysis_spans;
    EXPECT_EQ(span.name, "analysis.gate");
    for (const auto& [name, value] : span.counters) {
      gate_counters.push_back(name);
    }
  }
  EXPECT_EQ(analysis_spans, 1u);
  EXPECT_EQ(gate_counters,
            (std::vector<std::string>{"diagnostics", "prunable_channels"}));
}

TEST(StaticGateTest, GateFunctionRejectsAndPrunesHandWrittenPrograms) {
  auto parsed = capability::ParseCatalog("source v(A, B) [bf] { (a1, b1) }");
  ASSERT_TRUE(parsed.ok());
  // No body ordering binds v's A position and nothing populates domA:
  // LC020 (reject) and never-fires (prune) at once.
  auto program = datalog::ParseProgram("ans(Y) :- v(X, Y).");
  ASSERT_TRUE(program.ok());

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kReject;
  AnswerReport report;
  auto rejected = exec::ApplyStaticAnalysisGate(
      *program, parsed->views, planner::DomainMap(), options, &report);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("LC020"), std::string::npos);

  options.static_analysis = StaticAnalysisMode::kPrune;
  auto pruned = exec::ApplyStaticAnalysisGate(
      *program, parsed->views, planner::DomainMap(), options, &report);
  ASSERT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned->rules().empty());
}

TEST(StaticGateTest, GateDoesNotPruneGloballyFetchedRules) {
  // The soundness counter-example: p's rule has no SIP order (LC020),
  // but domA is populated elsewhere, the evaluator fetches v globally,
  // and the rule fires — kPrune must keep it.
  auto parsed = capability::ParseCatalog("source v(A, B) [bf] { (a1, b1) }");
  ASSERT_TRUE(parsed.ok());
  auto program = datalog::ParseProgram(
      "domA(a1).\n"
      "p(X, Y) :- v(X, Y).");
  ASSERT_TRUE(program.ok());

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kPrune;
  AnswerReport report;
  auto pruned = exec::ApplyStaticAnalysisGate(
      *program, parsed->views, planner::DomainMap(), options, &report);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->rules().size(), 2u);
}

TEST(StaticGateTest, GateKeepsRulesFedByAViewNamedLikeADomain) {
  // v's bound attribute A has domain predicate domA, and domA is itself a
  // catalog view the program mentions: its all-free channel populates
  // domA, the evaluator forms v(a1, B) from it, and ans fires. No rule
  // derives domA, so only a fixpoint that counts a fetched view as a
  // populated domain keeps the ans rule.
  auto parsed = capability::ParseCatalog(
      "source domA(A) [f] { (a1) }\n"
      "source v(A, B) [bf] { (a1, b1) }\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  constexpr const char* kProgram =
      "ans(Y) :- v(X, Y).\n"
      "seen(X) :- domA(X).\n";
  auto program = datalog::ParseProgram(kProgram);
  ASSERT_TRUE(program.ok()) << program.status().message();

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kPrune;
  AnswerReport report;
  auto gated = exec::ApplyStaticAnalysisGate(
      *program, parsed->views, planner::DomainMap(), options, &report);
  ASSERT_TRUE(gated.ok()) << gated.status().message();
  EXPECT_EQ(gated->rules().size(), 2u);

  // The gated program answers what the ungated one does.
  const planner::Query query({}, {"B"}, {planner::Connection({"v"})});
  exec::SourceDrivenEvaluator ungated_evaluator(&parsed->catalog,
                                                planner::DomainMap());
  auto ungated = ungated_evaluator.Execute(*program, query);
  ASSERT_TRUE(ungated.ok()) << ungated.status().message();
  exec::SourceDrivenEvaluator gated_evaluator(&parsed->catalog,
                                              planner::DomainMap());
  auto answered = gated_evaluator.Execute(*gated, query);
  ASSERT_TRUE(answered.ok()) << answered.status().message();
  const std::set<Row> expected = {{Value::String("b1")}};
  EXPECT_EQ(Rows(ungated->answer), expected);
  EXPECT_EQ(Rows(answered->answer), expected);

  // Lint agrees: nothing is dead. The rule still has no SIP order.
  analysis::LintRequest request;
  request.catalog_text =
      "source domA(A) [f] { (a1) }\n"
      "source v(A, B) [bf] { (a1, b1) }\n";
  request.program_text = kProgram;
  request.has_program = true;
  auto linted = analysis::Lint(request);
  ASSERT_TRUE(linted.ok()) << linted.status().message();
  std::set<analysis::Code> codes;
  for (const analysis::Diagnostic& d :
       linted->analysis.diagnostics.diagnostics()) {
    codes.insert(d.code);
  }
  EXPECT_EQ(codes.count(analysis::Code::kRuleNeverFires), 0u);
  EXPECT_EQ(codes.count(analysis::Code::kUnproduciblePredicate), 0u);
  EXPECT_EQ(codes.count(analysis::Code::kUnfetchableView), 0u);
  EXPECT_EQ(codes.count(analysis::Code::kUnbindableViewAtom), 1u);
}

// ---------------------------------------------------------------------
// Property: the analyzer's never-fire verdict is sound — on random
// instances, rules it would prune derive nothing, and pruning them
// leaves the answer bit-identical.

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
    for (uint64_t seed = 0; seed < 6; ++seed) {
      scenarios.push_back({topology, seed});
    }
  }
  return scenarios;
}

class PruneSoundness : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    CatalogSpec spec;
    spec.topology = GetParam().topology;
    spec.seed = GetParam().seed * 7919 + 211;
    spec.num_views = 7;
    spec.num_attributes = 6;
    spec.tuples_per_view = 20;
    spec.domain_size = 10;
    instance_ = GenerateInstance(spec);

    QuerySpec query_spec;
    query_spec.seed = GetParam().seed * 104729 + 19;
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

TEST_P(PruneSoundness, PrunedRulesAreEvaluationInert) {
  QueryAnswerer answerer(&instance_.catalog, instance_.domains);

  auto baseline = answerer.AnswerUnoptimized(query_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kPrune;
  auto pruned = answerer.AnswerUnoptimized(query_, options);
  ASSERT_TRUE(pruned.ok()) << pruned.status().message();
  ASSERT_TRUE(pruned->analysis_ran);

  // Pruning never changes the answer.
  EXPECT_EQ(Rows(pruned->exec.answer), Rows(baseline->exec.answer));

  // And the verdicts were truthful: a predicate whose every rule the
  // analyzer called dead derived nothing in the ungated run.
  const analysis::ExecutabilityResult& verdicts =
      pruned->analysis.executability;
  auto full = planner::BuildFullProgram(query_, instance_.catalog.Views(),
                                        instance_.domains);
  ASSERT_TRUE(full.ok()) << full.status().message();
  const datalog::Program& program = *full;
  std::set<std::string> heads;
  for (const datalog::Rule& rule : program.rules()) {
    heads.insert(rule.head.predicate);
  }
  for (const std::string& head : heads) {
    if (verdicts.producible.count(head) > 0) continue;
    EXPECT_EQ(baseline->exec.store.Count(head), 0u)
        << "analyzer called '" << head
        << "' unproducible, but evaluation derived facts for it";
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PruneSoundness,
                         ::testing::ValuesIn(AllScenarios()), ScenarioName);

}  // namespace
}  // namespace limcap
