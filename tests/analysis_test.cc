#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "analysis/executability.h"
#include "analysis/lint.h"
#include "capability/source_view.h"
#include "datalog/parser.h"
#include "datalog/safety.h"
#include "planner/domain_map.h"

namespace limcap::analysis {
namespace {

using capability::SourceView;

datalog::Program Parse(const std::string& text) {
  auto program = datalog::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().message();
  return std::move(program).value();
}

bool HasCode(const DiagnosticBag& bag, Code code) {
  for (const Diagnostic& d : bag.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

const Diagnostic* FindCode(const DiagnosticBag& bag, Code code) {
  for (const Diagnostic& d : bag.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Diagnostics engine.

TEST(DiagnosticsTest, CodeNamesAreStable) {
  EXPECT_EQ(CodeName(Code::kArityClash), "LC001");
  EXPECT_EQ(CodeName(Code::kViewArityMismatch), "LC010");
  EXPECT_EQ(CodeName(Code::kUnbindableViewAtom), "LC020");
  EXPECT_EQ(CodeName(Code::kUnfetchableView), "LC023");
}

TEST(DiagnosticsTest, DefaultSeverities) {
  EXPECT_EQ(DefaultSeverity(Code::kUnsafeHeadVariable), Severity::kError);
  EXPECT_EQ(DefaultSeverity(Code::kUnbindableViewAtom), Severity::kError);
  // Never-fire findings are warnings: a full Π(Q, V) legitimately
  // contains dead rules.
  EXPECT_EQ(DefaultSeverity(Code::kRuleNeverFires), Severity::kWarning);
  EXPECT_EQ(DefaultSeverity(Code::kSingletonVariable), Severity::kNote);
}

TEST(DiagnosticsTest, SortOrdersByRuleThenAtomThenCode) {
  DiagnosticBag bag;
  Location later;
  later.rule = 3;
  bag.Report(Code::kSingletonVariable, "later", later);
  Location earlier;
  earlier.rule = 1;
  earlier.atom = 0;
  bag.Report(Code::kUnsafeHeadVariable, "earlier", earlier);
  bag.Sort();
  EXPECT_EQ(bag.diagnostics()[0].message, "earlier");
  EXPECT_EQ(bag.diagnostics()[1].message, "later");
}

TEST(DiagnosticsTest, RenderTextCountsBySeverity) {
  DiagnosticBag bag;
  bag.Report(Code::kUnsafeHeadVariable, "bad head");
  bag.Report(Code::kGoalUnreachableRule, "dead rule");
  bag.Report(Code::kRecursiveProgram, "recursive");
  std::string text = bag.RenderText();
  EXPECT_NE(text.find("error[LC002] bad head"), std::string::npos);
  EXPECT_NE(text.find("1 error, 1 warning, 1 note"), std::string::npos);
  EXPECT_EQ(bag.errors(), 1u);
  EXPECT_EQ(bag.warnings(), 1u);
  EXPECT_EQ(bag.notes(), 1u);
  EXPECT_TRUE(bag.has_errors());
}

TEST(DiagnosticsTest, RenderJsonEscapes) {
  DiagnosticBag bag;
  Diagnostic& d = bag.Report(Code::kArityClash, "say \"hi\"\n");
  d.notes.push_back("tab\there");
  std::string json = bag.RenderJson();
  EXPECT_NE(json.find("\"code\":\"LC001\""), std::string::npos);
  EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

TEST(DiagnosticsTest, ToStatusCarriesFirstErrorAndCount) {
  DiagnosticBag bag;
  bag.Report(Code::kRecursiveProgram, "just a note");
  bag.Report(Code::kUnsafeHeadVariable, "first error");
  bag.Report(Code::kArityClash, "second error");
  Status status = bag.ToStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("LC002: first error"), std::string::npos);
  EXPECT_NE(status.message().find("and 1 more error"), std::string::npos);
  EXPECT_TRUE(DiagnosticBag().ToStatus().ok());
}

// ---------------------------------------------------------------------
// Safety migrated onto diagnostics (LC001-LC003).

TEST(SafetyDiagnosticsTest, UnsafeHeadNamesRuleAndVariable) {
  datalog::Program program = Parse("p(X, Y) :- q(X).");
  Status status = datalog::CheckSafety(program);
  ASSERT_FALSE(status.ok());
  // The message names the code, the offending variable, and the rule.
  EXPECT_NE(status.message().find("LC002"), std::string::npos);
  EXPECT_NE(status.message().find("'Y'"), std::string::npos);
  EXPECT_NE(status.message().find("p(X, Y) :- q(X)."), std::string::npos);
}

TEST(SafetyDiagnosticsTest, NonGroundFactIsItsOwnCode) {
  datalog::Program program = Parse("p(X).");
  DiagnosticBag bag;
  datalog::AppendSafetyDiagnostics(program, nullptr, &bag);
  const Diagnostic* d = FindCode(bag, Code::kNonGroundFact);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'X'"), std::string::npos);
  EXPECT_FALSE(HasCode(bag, Code::kUnsafeHeadVariable));
}

TEST(SafetyDiagnosticsTest, ArityClashNamesBothArities) {
  datalog::Program program = Parse("p(a).\nq(X) :- p(X, X).");
  DiagnosticBag bag;
  datalog::AppendSafetyDiagnostics(program, nullptr, &bag);
  const Diagnostic* d = FindCode(bag, Code::kArityClash);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("arity 2"), std::string::npos);
  EXPECT_NE(d->message.find("arity 1"), std::string::npos);
}

TEST(SafetyDiagnosticsTest, CleanProgramPasses) {
  datalog::Program program = Parse("p(a).\nq(X) :- p(X).");
  EXPECT_TRUE(datalog::CheckSafety(program).ok());
}

// The dialect has no negation and no arithmetic, so "bound only in a
// negated / built-in position" cannot arise: the parser rejects the
// syntax outright. These tests lock that door shut — if negation or
// comparisons are ever added, they fail and force the safety rule
// (negated and built-in atoms must NOT bind head variables) to be
// revisited.
TEST(SafetyDiagnosticsTest, NegationIsNotInTheDialect) {
  EXPECT_FALSE(datalog::ParseProgram("p(X) :- not q(X).").ok());
  EXPECT_FALSE(datalog::ParseProgram("p(X) :- !q(X).").ok());
  EXPECT_FALSE(datalog::ParseProgram("p(X) :- \\+ q(X).").ok());
}

TEST(SafetyDiagnosticsTest, ArithmeticIsNotInTheDialect) {
  EXPECT_FALSE(datalog::ParseProgram("p(X) :- q(X), X > 1.").ok());
  EXPECT_FALSE(datalog::ParseProgram("p(X) :- q(Y), X = Y + 1.").ok());
  EXPECT_FALSE(datalog::ParseProgram("p(X) :- q(X), X != a.").ok());
}

// ---------------------------------------------------------------------
// Parser source map.

TEST(SourceMapTest, RecordsRuleAndAtomPositions) {
  datalog::ProgramSourceMap map;
  auto program = datalog::ParseProgram(
      "p(a).\n"
      "q(X) :- p(X),\n"
      "        p(X).\n",
      &map);
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(map.rules.size(), 2u);
  EXPECT_EQ(map.rules[0].rule.line, 1);
  EXPECT_EQ(map.rules[1].rule.line, 2);
  ASSERT_EQ(map.rules[1].body.size(), 2u);
  EXPECT_EQ(map.rules[1].body[0].line, 2);
  EXPECT_EQ(map.rules[1].body[1].line, 3);
}

// ---------------------------------------------------------------------
// Structural analyzer passes.

TEST(AnalyzerTest, UndeclaredPredicateWarns) {
  datalog::Program program = Parse("ans(X) :- mystery(X).");
  AnalysisResult result = AnalyzeProgram(program, {});
  const Diagnostic* d = FindCode(result.diagnostics, Code::kUndeclaredPredicate);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'mystery'"), std::string::npos);
}

TEST(AnalyzerTest, ViewPredicatesCountAsDeclared) {
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "ff");
  datalog::Program program = Parse("ans(X) :- v(X, Y), v(Y, Z).");
  AnalysisResult result = AnalyzeProgram(program, {v});
  EXPECT_FALSE(HasCode(result.diagnostics, Code::kUndeclaredPredicate));
}

TEST(AnalyzerTest, SingletonVariableNoted) {
  datalog::Program program = Parse("ans(X) :- p(X, Lonely).\np(a, b).");
  AnalysisResult result = AnalyzeProgram(program, {});
  const Diagnostic* d = FindCode(result.diagnostics, Code::kSingletonVariable);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'Lonely'"), std::string::npos);
}

TEST(AnalyzerTest, GoalUnreachableRuleWarns) {
  datalog::Program program = Parse(
      "p(a).\n"
      "ans(X) :- p(X).\n"
      "orphan(X) :- p(X).");
  AnalysisResult result = AnalyzeProgram(program, {});
  const Diagnostic* d =
      FindCode(result.diagnostics, Code::kGoalUnreachableRule);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'orphan'"), std::string::npos);
}

TEST(AnalyzerTest, FetchDomainRulesExemptFromReachability) {
  // domA never appears in a rule body, but the evaluator consults it to
  // query v (whose template binds A) — it must not be called useless.
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "bf");
  datalog::Program program = Parse(
      "domA(a1).\n"
      "ans(Y) :- v(a1, Y).");
  AnalysisResult result = AnalyzeProgram(program, {v});
  EXPECT_FALSE(HasCode(result.diagnostics, Code::kGoalUnreachableRule));
}

TEST(AnalyzerTest, MissingGoalWarns) {
  datalog::Program program = Parse("p(a).");
  AnalysisOptions options;
  options.goal_predicate = "ans";
  AnalysisResult result = AnalyzeProgram(program, {}, options);
  const Diagnostic* d =
      FindCode(result.diagnostics, Code::kGoalUnreachableRule);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("not defined"), std::string::npos);
}

TEST(AnalyzerTest, TaggedPerConnectionGoalsCountAsGoals) {
  datalog::Program program = Parse(
      "p(a).\n"
      "ans$c0(X) :- p(X).");
  AnalysisResult result = AnalyzeProgram(program, {});
  EXPECT_FALSE(HasCode(result.diagnostics, Code::kGoalUnreachableRule));
}

TEST(AnalyzerTest, RecursionNoted) {
  datalog::Program program = Parse(
      "ans(X) :- p(X).\n"
      "p(X) :- q(X).\n"
      "q(X) :- p(X).\n"
      "p(a).");
  AnalysisResult result = AnalyzeProgram(program, {});
  EXPECT_TRUE(HasCode(result.diagnostics, Code::kRecursiveProgram));
}

TEST(AnalyzerTest, ViewArityMismatchIsError) {
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "ff");
  datalog::Program program = Parse("ans(X) :- v(X).");
  AnalysisResult result = AnalyzeProgram(program, {v});
  EXPECT_TRUE(HasCode(result.diagnostics, Code::kViewArityMismatch));
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------
// Adorned executability (the tentpole pass).

TEST(ExecutabilityTest, SipAndCanFireDisagreeOnGlobalFetch) {
  // p's body gives v no bindings of its own, so no SIP order exists —
  // but domA is populated elsewhere in the program, the evaluator *will*
  // fetch v globally, and p fires. The rule must be flagged (LC020) yet
  // never pruned.
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "bf");
  datalog::Program program = Parse(
      "domA(a1).\n"
      "p(X, Y) :- v(X, Y).");
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v}, planner::DomainMap());
  ASSERT_EQ(result.rules.size(), 2u);
  EXPECT_FALSE(result.rules[1].sip_executable);
  EXPECT_TRUE(result.rules[1].can_fire);
  EXPECT_EQ(result.rules[1].unbindable_atoms,
            std::vector<std::size_t>{0});
  EXPECT_TRUE(result.fetchable_views.count("v") > 0);

  // Flagged as LC020...
  DiagnosticBag bag;
  AppendExecutabilityDiagnostics(program, {v}, result, nullptr, &bag);
  EXPECT_TRUE(HasCode(bag, Code::kUnbindableViewAtom));
  EXPECT_FALSE(HasCode(bag, Code::kRuleNeverFires));

  // ...but never pruned: pruning it would lose p's facts.
  datalog::Program pruned = PruneNeverFiringRules(program, result);
  EXPECT_EQ(pruned.rules().size(), 2u);
}

TEST(ExecutabilityTest, UnfetchableViewKillsRule) {
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "bf");
  datalog::Program program = Parse("p(X, Y) :- v(X, Y).");
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v}, planner::DomainMap());
  ASSERT_EQ(result.rules.size(), 1u);
  EXPECT_FALSE(result.rules[0].can_fire);
  EXPECT_EQ(result.rules[0].dead_atoms, std::vector<std::size_t>{0});
  EXPECT_TRUE(result.fetchable_views.empty());

  DiagnosticBag bag;
  AppendExecutabilityDiagnostics(program, {v}, result, nullptr, &bag);
  EXPECT_TRUE(HasCode(bag, Code::kRuleNeverFires));
  EXPECT_TRUE(HasCode(bag, Code::kUnfetchableView));
  EXPECT_TRUE(HasCode(bag, Code::kUnproduciblePredicate));

  EXPECT_TRUE(PruneNeverFiringRules(program, result).rules().empty());
}

TEST(ExecutabilityTest, FixpointPropagatesThroughFeederChain) {
  // v1 feeds domB which unlocks v2 — rule-level verdicts must iterate
  // to the program-level fixpoint.
  SourceView v1 = SourceView::MakeUnsafe("v1", {"A", "B"}, "bf");
  SourceView v2 = SourceView::MakeUnsafe("v2", {"B", "C"}, "bf");
  datalog::Program program = Parse(
      "domA(a1).\n"
      "v1a(X, Y) :- domA(X), v1(X, Y).\n"
      "domB(Y) :- v1a(X, Y).\n"
      "v2a(X, Y) :- domB(X), v2(X, Y).\n"
      "ans(Z) :- v2a(Y, Z).");
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v1, v2}, planner::DomainMap());
  for (const RuleVerdict& verdict : result.rules) {
    EXPECT_TRUE(verdict.sip_executable);
    EXPECT_TRUE(verdict.can_fire);
  }
  EXPECT_TRUE(result.sip_producible.count("ans") > 0);
  EXPECT_EQ(result.fetchable_views.size(), 2u);
}

TEST(ExecutabilityTest, BrokenFeederPoisonsDownstreamRules) {
  // Nothing populates domA, so v1 is unfetchable and every rule
  // downstream of it — transitively — is dead.
  SourceView v1 = SourceView::MakeUnsafe("v1", {"A", "B"}, "bf");
  SourceView v2 = SourceView::MakeUnsafe("v2", {"B", "C"}, "bf");
  datalog::Program program = Parse(
      "v1a(X, Y) :- domA(X), v1(X, Y).\n"
      "domB(Y) :- v1a(X, Y).\n"
      "v2a(X, Y) :- domB(X), v2(X, Y).\n"
      "ans(Z) :- v2a(Y, Z).");
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v1, v2}, planner::DomainMap());
  for (const RuleVerdict& verdict : result.rules) {
    EXPECT_FALSE(verdict.can_fire);
    EXPECT_FALSE(verdict.sip_executable);
  }
  EXPECT_TRUE(PruneNeverFiringRules(program, result).rules().empty());
}

TEST(ExecutabilityTest, ConstantsBindViewPositions) {
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "bf");
  datalog::Program program = Parse(
      "domA(a1).\n"
      "ans(Y) :- v(a1, Y).");
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v}, planner::DomainMap());
  EXPECT_TRUE(result.rules[1].sip_executable);
  EXPECT_TRUE(result.rules[1].can_fire);
}

TEST(ExecutabilityTest, WitnessOrderReordersBody) {
  // The view atom comes first in the body but must be placed second:
  // the witness order proves a valid ordering exists.
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "bf");
  datalog::Program program = Parse(
      "domA(a1).\n"
      "ans(Y) :- v(X, Y), domA(X).");
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v}, planner::DomainMap());
  ASSERT_TRUE(result.rules[1].sip_executable);
  EXPECT_EQ(result.rules[1].sip_order,
            (std::vector<std::size_t>{1, 0}));
}

TEST(ExecutabilityTest, MultiTemplateViewUsesAnySatisfiedTemplate) {
  SourceView v = SourceView::MakeUnsafe(
      "v", {"A", "B"}, std::vector<std::string>{"bf", "fb"});
  datalog::Program program = Parse(
      "domB(b1).\n"
      "ans(X) :- v(X, Y), domB(Y).");
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v}, planner::DomainMap());
  EXPECT_TRUE(result.rules[1].sip_executable);
  EXPECT_TRUE(result.rules[1].can_fire);
}

TEST(ExecutabilityTest, InputAdornmentsSeedTheSipSearch) {
  // With p's first argument declared bound on entry (a top-down call
  // pattern), the SIP search succeeds; the evaluator-side can_fire
  // still fails because no domain feeds v's fetch.
  SourceView v = SourceView::MakeUnsafe("v", {"A", "B"}, "bf");
  datalog::Program program = Parse("p(X, Y) :- v(X, Y).");
  ExecutabilityOptions options;
  options.input_adornments["p"] = {true, false};
  ExecutabilityResult result =
      AnalyzeExecutability(program, {v}, planner::DomainMap(), options);
  EXPECT_TRUE(result.rules[0].sip_executable);
  EXPECT_FALSE(result.rules[0].can_fire);
}

TEST(ExecutabilityTest, ReachableViewsColdStartAndSeeded) {
  SourceView v1 = SourceView::MakeUnsafe("v1", {"A", "B"}, "ff");
  SourceView v2 = SourceView::MakeUnsafe("v2", {"B", "C"}, "bf");
  SourceView v3 = SourceView::MakeUnsafe("v3", {"D", "E"}, "bf");
  planner::DomainMap domains;
  std::set<std::string> cold = ReachableViews({v1, v2, v3}, domains);
  EXPECT_EQ(cold, (std::set<std::string>{"v1", "v2"}));
  std::set<std::string> seeded =
      ReachableViews({v1, v2, v3}, domains, {"D"});
  EXPECT_EQ(seeded, (std::set<std::string>{"v1", "v2", "v3"}));
}

// ---------------------------------------------------------------------
// Lint driver.

TEST(LintTest, RejectsProgramAndQueryTogether) {
  LintRequest request;
  request.catalog_text = "source v(A, B) [ff] {}\n";
  request.has_program = true;
  request.has_query = true;
  EXPECT_FALSE(Lint(request).ok());
}

TEST(LintTest, CatalogOnlyReportsColdStartReachability) {
  LintRequest request;
  request.catalog_text =
      "source v1(A, B) [ff] {}\n"
      "source v2(C, D) [bf] {}\n";
  auto report = Lint(request);
  ASSERT_TRUE(report.ok()) << report.status().message();
  const Diagnostic* d =
      FindCode(report->analysis.diagnostics, Code::kUnfetchableView);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'v2'"), std::string::npos);
  EXPECT_NE(report->rendered.find("LC023"), std::string::npos);
}

TEST(LintTest, QueryModeBuildsAndAnalyzesFullProgram) {
  LintRequest request;
  request.catalog_text =
      "source v1(A, B) [bf] { (a0, b0) }\n"
      "source v2(B, C) [bf] { (b0, c0) }\n";
  request.has_query = true;
  request.query_text = "<{A = a0}, {C}, {{v1, v2}}>";
  auto report = Lint(request);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->ok());
  EXPECT_FALSE(report->program.rules().empty());
  EXPECT_EQ(report->analysis.executability.rules.size(),
            report->program.rules().size());
}

TEST(LintTest, JsonRendering) {
  LintRequest request;
  request.catalog_text = "source v(A, B) [bf] {}\n";
  request.json = true;
  auto report = Lint(request);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rendered.front(), '{');
  EXPECT_NE(report->rendered.find("\"diagnostics\""), std::string::npos);
}

TEST(LintTest, UnparsableInputsAreStatusErrors) {
  LintRequest request;
  request.catalog_text = "this is not a catalog";
  EXPECT_FALSE(Lint(request).ok());

  request.catalog_text = "source v(A, B) [bf] {}\n";
  request.has_program = true;
  request.program_text = "p(X :- q(X).";
  EXPECT_FALSE(Lint(request).ok());
}

}  // namespace
}  // namespace limcap::analysis
