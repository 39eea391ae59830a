// The binding-flow abstract interpretation (analysis/binding_flow.h):
// reachable patterns, frontier depths, fetch bounds, relevance verdicts,
// and the machine-checkable certificates behind them.

#include "analysis/binding_flow.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "capability/catalog_text.h"
#include "datalog/parser.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"

namespace limcap {
namespace {

using analysis::AbstractBinding;
using analysis::AnalyzeBindingFlow;
using analysis::BindingFlowOptions;
using analysis::BindingFlowResult;
using analysis::ChannelVerdict;
using analysis::Code;
using analysis::PruningCertificate;
using analysis::VerifyCertificate;
using analysis::WitnessStep;
using exec::ExecOptions;
using exec::QueryAnswerer;
using exec::StaticAnalysisMode;

/// A bind-join chain v1 -> v2 plus two bystanders: v3 is unreachable
/// (nothing populates domD), v4 is reachable off the chain's domB but
/// feeds only the dead-end predicate p.
constexpr const char* kChainCatalog = R"(
source v1(A, B) [bf] { (a0, b1) }
source v2(B, C) [bf] { (b1, c1) }
source v3(D, E) [bf] { (d1, e1) }
source v4(B, Z) [bf] { (b1, z1) }
)";

constexpr const char* kChainProgram = R"(
domA(a0).
domB(B) :- v1(A, B).
ans(C) :- v1(A, B), v2(B, C).
q(E) :- v3(D, E).
p(Z) :- v4(B, Z).
)";

const ChannelVerdict& ChannelOf(const BindingFlowResult& result,
                                const std::string& view) {
  for (const ChannelVerdict& verdict : result.channels) {
    if (verdict.view == view) return verdict;
  }
  ADD_FAILURE() << "no verdict for view " << view;
  static ChannelVerdict missing;
  return missing;
}

class BindingFlowChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = capability::ParseCatalog(kChainCatalog);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    views_ = parsed->views;
    auto program = datalog::ParseProgram(kChainProgram);
    ASSERT_TRUE(program.ok()) << program.status().message();
    program_ = *program;
    result_ = AnalyzeBindingFlow(program_, views_, domains_);
  }

  std::vector<capability::SourceView> views_;
  datalog::Program program_;
  planner::DomainMap domains_;
  BindingFlowResult result_;
};

TEST_F(BindingFlowChainTest, PatternsDepthsAndBounds) {
  ASSERT_EQ(result_.channels.size(), 4u);

  const ChannelVerdict& v1 = ChannelOf(result_, "v1");
  EXPECT_TRUE(v1.reachable);
  EXPECT_TRUE(v1.relevant);
  EXPECT_EQ(v1.reachable_pattern, "cf");
  EXPECT_EQ(v1.frontier_depth, 0u);
  ASSERT_TRUE(v1.fetch_bound_finite);
  EXPECT_EQ(v1.fetch_bound, 1u);  // domA holds the single constant a0.

  const ChannelVerdict& v2 = ChannelOf(result_, "v2");
  EXPECT_TRUE(v2.reachable);
  EXPECT_TRUE(v2.relevant);
  EXPECT_EQ(v2.reachable_pattern, "vf");  // domB carries runtime values.
  EXPECT_EQ(v2.frontier_depth, 1u);
  EXPECT_FALSE(v2.fetch_bound_finite);

  const ChannelVerdict& v3 = ChannelOf(result_, "v3");
  EXPECT_FALSE(v3.reachable);
  EXPECT_FALSE(v3.relevant);
  EXPECT_EQ(v3.frontier_depth, ChannelVerdict::kNoDepth);
  EXPECT_EQ(v3.certificate.kind, PruningCertificate::Kind::kUnreachability);
  EXPECT_EQ(v3.certificate.missing_domain, "domD");

  const ChannelVerdict& v4 = ChannelOf(result_, "v4");
  EXPECT_TRUE(v4.reachable);
  EXPECT_FALSE(v4.relevant);
  EXPECT_EQ(v4.frontier_depth, 1u);
  EXPECT_EQ(v4.certificate.kind, PruningCertificate::Kind::kIrrelevance);

  // The prune set is exactly the two bystanders.
  auto pruned = result_.PrunedChannels();
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_EQ(pruned[0].first, "v3");
  EXPECT_EQ(pruned[1].first, "v4");

  // Lattice values at the fixpoint.
  EXPECT_EQ(result_.predicate_values.at("domA"), AbstractBinding::kConstant);
  EXPECT_EQ(result_.predicate_values.at("domB"), AbstractBinding::kVariable);

  // Per-source bounds cover only views with a reachable channel.
  ASSERT_EQ(result_.sources.size(), 3u);
  EXPECT_EQ(result_.sources[0].view, "v1");
  EXPECT_TRUE(result_.sources[0].fetch_bound_finite);
  EXPECT_EQ(result_.sources[0].fetch_bound, 1u);
  EXPECT_EQ(result_.sources[1].view, "v2");
  EXPECT_FALSE(result_.sources[1].fetch_bound_finite);
}

TEST_F(BindingFlowChainTest, EveryCertificateVerifies) {
  for (const ChannelVerdict& verdict : result_.channels) {
    Status status = VerifyCertificate(program_, views_, domains_,
                                      BindingFlowOptions(), verdict);
    EXPECT_TRUE(status.ok())
        << verdict.view << "[" << verdict.template_index
        << "]: " << status.message();
  }
}

TEST_F(BindingFlowChainTest, TamperedCertificatesAreRejected) {
  const BindingFlowOptions options;

  // A witness whose chain starts at the wrong predicate.
  ChannelVerdict witness = ChannelOf(result_, "v1");
  witness.certificate.steps.front().predicate = "v2";
  EXPECT_FALSE(
      VerifyCertificate(program_, views_, domains_, options, witness).ok());

  // A witness that never reaches the goal.
  witness = ChannelOf(result_, "v1");
  witness.certificate.steps.pop_back();
  EXPECT_FALSE(
      VerifyCertificate(program_, views_, domains_, options, witness).ok());

  // An irrelevance set that smuggles the view in (no longer excludes it).
  ChannelVerdict irrelevant = ChannelOf(result_, "v4");
  irrelevant.certificate.closed_set.push_back("v4");
  EXPECT_FALSE(
      VerifyCertificate(program_, views_, domains_, options, irrelevant).ok());

  // An irrelevance set missing a goal is not a refutation.
  irrelevant = ChannelOf(result_, "v4");
  irrelevant.certificate.closed_set.clear();
  EXPECT_FALSE(
      VerifyCertificate(program_, views_, domains_, options, irrelevant).ok());

  // An unreachability claim about a domain that is actually populated.
  ChannelVerdict unreachable = ChannelOf(result_, "v3");
  unreachable.certificate.missing_domain = "domB";
  EXPECT_FALSE(
      VerifyCertificate(program_, views_, domains_, options, unreachable)
          .ok());

  // A missing certificate discharges nothing.
  ChannelVerdict none = ChannelOf(result_, "v1");
  none.certificate = analysis::PruningCertificate();
  EXPECT_FALSE(
      VerifyCertificate(program_, views_, domains_, options, none).ok());
}

TEST_F(BindingFlowChainTest, RenderersAreDeterministic) {
  const std::string text = analysis::RenderBindingFlowText(result_);
  EXPECT_EQ(text, analysis::RenderBindingFlowText(result_));
  EXPECT_NE(text.find("4 channel(s), 2 relevant, 1 irrelevant, "
                      "1 unreachable"),
            std::string::npos);
  EXPECT_NE(text.find("witness: v1 -(rule"), std::string::npos);
  EXPECT_NE(text.find("'v4' is outside it"), std::string::npos);

  const std::string json = analysis::RenderBindingFlowJson(result_);
  EXPECT_EQ(json, analysis::RenderBindingFlowJson(result_));
  EXPECT_NE(json.find("\"kind\":\"witness\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"irrelevance\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"unreachability\""), std::string::npos);
  EXPECT_NE(json.find("\"missing_domain\":\"domD\""), std::string::npos);
}

TEST_F(BindingFlowChainTest, DiagnosticsCarryTheNewCodes) {
  analysis::DiagnosticBag bag;
  analysis::AppendBindingFlowDiagnostics(program_, result_, nullptr, &bag);
  std::size_t lc030 = 0, lc031 = 0, lc032 = 0;
  for (const analysis::Diagnostic& d : bag.diagnostics()) {
    if (d.code == Code::kStaticallyIrrelevantChannel) ++lc030;
    if (d.code == Code::kUnreachableChannel) ++lc031;
    if (d.code == Code::kStaticBounds) ++lc032;
  }
  EXPECT_EQ(lc030, 1u);  // v4
  EXPECT_EQ(lc031, 1u);  // v3
  EXPECT_EQ(lc032, 3u);  // one bounds note per reachable source
  EXPECT_FALSE(bag.has_errors());
}

TEST(BindingFlowGoalTest, BareTaggedGoalIsAGoal) {
  // `ans$` carries the tagged-goal prefix with an empty tag; every other
  // goal test in the pipeline (LC006, the optimizer, dynamic relevance)
  // treats it as a goal, so binding flow must too.
  auto parsed = capability::ParseCatalog("source v(A, B) [ff] { (a1, b1) }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  auto program = datalog::ParseProgram("ans$(Y) :- v(X, Y).");
  ASSERT_TRUE(program.ok()) << program.status().message();
  const planner::DomainMap domains;
  const BindingFlowResult result =
      AnalyzeBindingFlow(*program, parsed->views, domains);

  ASSERT_EQ(result.channels.size(), 1u);
  const ChannelVerdict& v = result.channels[0];
  EXPECT_TRUE(v.reachable);
  EXPECT_TRUE(v.relevant);
  ASSERT_EQ(v.certificate.kind, PruningCertificate::Kind::kWitness);
  ASSERT_EQ(v.certificate.steps.size(), 2u);
  EXPECT_EQ(v.certificate.steps[0].predicate, "v");
  EXPECT_EQ(v.certificate.steps[0].link, WitnessStep::Link::kRule);
  EXPECT_EQ(v.certificate.steps[0].rule_index, 0u);
  EXPECT_EQ(v.certificate.steps[1].predicate, "ans$");
  EXPECT_EQ(v.certificate.steps[1].link, WitnessStep::Link::kGoal);
  EXPECT_NE(analysis::RenderBindingFlowText(result).find(
                "witness: v -(rule 0)-> ans$\n"),
            std::string::npos);
  EXPECT_TRUE(
      VerifyCertificate(*program, parsed->views, domains, {}, v).ok());
}

TEST(BindingFlowAnalyzerTest, DeepPassIsOptIn) {
  auto parsed = capability::ParseCatalog(kChainCatalog);
  ASSERT_TRUE(parsed.ok());
  auto program = datalog::ParseProgram(kChainProgram);
  ASSERT_TRUE(program.ok());

  analysis::AnalysisResult shallow =
      analysis::AnalyzeProgram(*program, parsed->views);
  EXPECT_FALSE(shallow.binding_flow_ran);

  analysis::AnalysisOptions options;
  options.check_binding_flow = true;
  analysis::AnalysisResult deep =
      analysis::AnalyzeProgram(*program, parsed->views, options);
  EXPECT_TRUE(deep.binding_flow_ran);
  EXPECT_EQ(deep.binding_flow.channels.size(), 4u);
}

TEST(BindingFlowPaperTest, Example21EveryChannelIsRelevant) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kWarn;
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_TRUE(report->analysis.binding_flow_ran);

  const BindingFlowResult& flow = report->analysis.binding_flow;
  ASSERT_FALSE(flow.channels.empty());
  for (const ChannelVerdict& verdict : flow.channels) {
    EXPECT_TRUE(verdict.reachable) << verdict.view;
    EXPECT_TRUE(verdict.relevant) << verdict.view;
    Status status =
        VerifyCertificate(report->plan->optimized_program, example.views,
                          example.domains, BindingFlowOptions(), verdict);
    EXPECT_TRUE(status.ok()) << verdict.view << ": " << status.message();
  }
  EXPECT_TRUE(flow.PrunedChannels().empty());
}

TEST(BindingFlowPaperTest, Example41FlagsTheIrrelevantView) {
  // v5 is mentioned by neither connection, so it never enters the
  // program; but the *unoptimized* program of the Isbn catalog carries a
  // channel no input can unlock (v6 needs Isbn bound).
  auto parsed = capability::ParseCatalog(R"(
source v1(Song, Cd) [bf] { (t1, c1) }
source v3(Cd, Artist, Price) [bff] { (c1, a1, "$15") }
source v6(Isbn, Price) [bf] { (i1, "$9") }
)");
  ASSERT_TRUE(parsed.ok());
  QueryAnswerer answerer(&parsed->catalog, planner::DomainMap());
  planner::Query query({{"Song", Value::String("t1")}}, {"Price"},
                       {planner::Connection({"v1", "v3"}),
                        planner::Connection({"v6"})});

  ExecOptions options;
  options.static_analysis = StaticAnalysisMode::kWarn;
  auto report = answerer.AnswerUnoptimized(query, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_TRUE(report->analysis.binding_flow_ran);

  const ChannelVerdict& v6 =
      ChannelOf(report->analysis.binding_flow, "v6");
  EXPECT_FALSE(v6.reachable);
  EXPECT_EQ(v6.certificate.kind, PruningCertificate::Kind::kUnreachability);

  bool saw_unreachable = false;
  for (const analysis::Diagnostic& d :
       report->analysis.diagnostics.diagnostics()) {
    if (d.code == Code::kUnreachableChannel) saw_unreachable = true;
  }
  EXPECT_TRUE(saw_unreachable);
}

}  // namespace
}  // namespace limcap
