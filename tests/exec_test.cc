#include <gtest/gtest.h>

#include <set>

#include "capability/in_memory_source.h"
#include "exec/baseline_executor.h"
#include "exec/oracle.h"
#include "exec/query_answerer.h"
#include "exec/source_driven_evaluator.h"
#include "paperdata/paper_examples.h"
#include "planner/program_builder.h"

namespace limcap::exec {
namespace {

using paperdata::MakeExample21;
using paperdata::MakeExample41;
using paperdata::MakeExample51;
using paperdata::MakeExample52;
using paperdata::PaperExample;
using relational::Relation;
using relational::Row;

Value S(const char* text) { return Value::String(text); }

std::set<Row> Rows(const Relation& relation) {
  auto decoded = relation.DecodedRows();
  return std::set<Row>(decoded.begin(), decoded.end());
}

std::set<Row> PredicateRows(const datalog::FactStore& store,
                            const std::string& predicate) {
  std::set<Row> rows;
  for (datalog::RowView row : store.Facts(predicate)) {
    rows.insert(store.Decode(row));
  }
  return rows;
}

TEST(SourceDrivenEvaluatorTest, Example21ObtainableAnswer) {
  // The headline result: the obtainable answer is {$15, $13, $10} — two
  // tuples more than the per-join baseline's {$15}.
  PaperExample example = MakeExample21();
  auto program =
      planner::BuildProgram(example.query, example.views, example.domains);
  ASSERT_TRUE(program.ok());
  SourceDrivenEvaluator evaluator(&example.catalog, example.domains);
  auto result = evaluator.Execute(*program, example.query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Rows(result->answer),
            (std::set<Row>{{S("$15")}, {S("$13")}, {S("$10")}}));
  EXPECT_FALSE(result->budget_exhausted);
  // The interned-path invariant: after a tuple enters the session
  // dictionary at source ingest, it is never translated again.
  EXPECT_EQ(result->post_ingest_translations, 0u);
}

TEST(SourceDrivenEvaluatorTest, Example21Table3IdbContents) {
  // Table 3: every alpha-predicate and domain-predicate extent.
  PaperExample example = MakeExample21();
  auto program =
      planner::BuildProgram(example.query, example.views, example.domains);
  ASSERT_TRUE(program.ok());
  SourceDrivenEvaluator evaluator(&example.catalog, example.domains);
  auto result = evaluator.Execute(*program, example.query);
  ASSERT_TRUE(result.ok());
  const auto& store = result->store;

  EXPECT_EQ(PredicateRows(store, "v1^"),
            (std::set<Row>{{S("t1"), S("c1")}, {S("t2"), S("c3")}}));
  EXPECT_EQ(PredicateRows(store, "v2^"),
            (std::set<Row>{{S("t1"), S("c4")}, {S("t2"), S("c2")}}));
  EXPECT_EQ(PredicateRows(store, "v3^"),
            (std::set<Row>{{S("c1"), S("a1"), S("$15")},
                           {S("c3"), S("a3"), S("$14")}}));
  EXPECT_EQ(PredicateRows(store, "v4^"),
            (std::set<Row>{{S("c1"), S("a1"), S("$13")},
                           {S("c2"), S("a1"), S("$12")},
                           {S("c4"), S("a3"), S("$10")}}));
  EXPECT_EQ(PredicateRows(store, "song"),
            (std::set<Row>{{S("t1")}, {S("t2")}}));
  EXPECT_EQ(PredicateRows(store, "cd"),
            (std::set<Row>{{S("c1")}, {S("c2")}, {S("c3")}, {S("c4")}}));
  EXPECT_EQ(PredicateRows(store, "artist"),
            (std::set<Row>{{S("a1")}, {S("a3")}}));
  EXPECT_EQ(PredicateRows(store, "price"),
            (std::set<Row>{{S("$15")}, {S("$14")}, {S("$13")}, {S("$12")},
                           {S("$10")}}));
  // The unobtainable tuples stay unobtainable: a5 and c5 never appear.
  EXPECT_EQ(PredicateRows(store, "artist").count({S("a5")}), 0u);
  EXPECT_EQ(PredicateRows(store, "cd").count({S("c5")}), 0u);
}

TEST(SourceDrivenEvaluatorTest, Example21TraceIssuesProductiveQueries) {
  // Table 2's eight productive queries (our round-based order may differ,
  // and unproductive probes are also logged).
  PaperExample example = MakeExample21();
  auto program =
      planner::BuildProgram(example.query, example.views, example.domains);
  ASSERT_TRUE(program.ok());
  SourceDrivenEvaluator evaluator(&example.catalog, example.domains);
  auto result = evaluator.Execute(*program, example.query);
  ASSERT_TRUE(result.ok());

  std::set<std::string> productive;
  for (const auto& record : result->log.records()) {
    if (record.tuples_returned > 0) productive.insert(record.RenderedQuery());
  }
  EXPECT_EQ(productive, (std::set<std::string>{
                            "v1(t1, C)", "v1(t2, C)", "v2(S, c2)",
                            "v2(S, c4)", "v3(c1, A, P)", "v3(c3, A, P)",
                            "v4(C, a1, P)", "v4(C, a3, P)"}));
  // Every query is asked at most once.
  std::set<std::string> all;
  for (const auto& record : result->log.records()) {
    EXPECT_TRUE(all.insert(record.RenderedQuery()).second)
        << "duplicate query " << record.RenderedQuery();
  }
}

TEST(SourceDrivenEvaluatorTest, Example21TraceMatchesTable2Order) {
  // Strongest reproduction claim: the round-based scheduler's productive
  // queries come out in exactly the order the paper's Table 2 lists.
  PaperExample example = MakeExample21();
  auto program =
      planner::BuildProgram(example.query, example.views, example.domains);
  ASSERT_TRUE(program.ok());
  SourceDrivenEvaluator evaluator(&example.catalog, example.domains);
  auto result = evaluator.Execute(*program, example.query);
  ASSERT_TRUE(result.ok());
  std::vector<std::string> productive;
  for (const auto& record : result->log.records()) {
    if (record.tuples_returned > 0) productive.push_back(record.RenderedQuery());
  }
  EXPECT_EQ(productive,
            (std::vector<std::string>{"v1(t1, C)", "v3(c1, A, P)",
                                      "v4(C, a1, P)", "v2(S, c2)",
                                      "v1(t2, C)", "v3(c3, A, P)",
                                      "v4(C, a3, P)", "v2(S, c4)"}));
}

TEST(OracleTest, Example21CompleteAnswer) {
  PaperExample example = MakeExample21();
  auto complete = CompleteAnswer(example.query, example.catalog);
  ASSERT_TRUE(complete.ok()) << complete.status();
  EXPECT_EQ(Rows(*complete), (std::set<Row>{{S("$15")}, {S("$13")},
                                            {S("$11")}, {S("$10")}}));
}

TEST(BaselineTest, Example21BaselineGetsOnlyFifteen) {
  PaperExample example = MakeExample21();
  BaselineExecutor baseline(&example.catalog);
  auto result = baseline.Execute(example.query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Rows(result->answer), (std::set<Row>{{S("$15")}}));
  // Three of the four joins are skipped as inexecutable.
  EXPECT_EQ(result->skipped_connections.size(), 3u);
}

TEST(QueryAnswererTest, Example21EndToEnd) {
  PaperExample example = MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(Rows(report->exec.answer),
            (std::set<Row>{{S("$15")}, {S("$13")}, {S("$10")}}));
  // All four views are relevant in Example 2.1, so no trimming happens.
  EXPECT_EQ(report->plan->relevance.relevant_union.size(), 4u);
  // End-to-end interning: the answer relation shares the session
  // dictionary and no value was translated after source ingest.
  ASSERT_NE(report->exec.session_dict, nullptr);
  EXPECT_TRUE(report->exec.answer.dict_ptr() == report->exec.session_dict);
  EXPECT_EQ(report->exec.post_ingest_translations, 0u);
}

TEST(QueryAnswererTest, Example41OptimizedMatchesUnoptimized) {
  // Theorem 5.1 in action: executing Π(Q, V_r) (9 rules) and Π(Q, V)
  // (15 rules) produce the same answer, but the optimized plan touches
  // fewer sources (never v5).
  PaperExample example = MakeExample41();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto optimized = answerer.Answer(example.query);
  auto unoptimized = answerer.AnswerUnoptimized(example.query);
  ASSERT_TRUE(optimized.ok());
  ASSERT_TRUE(unoptimized.ok());
  EXPECT_EQ(Rows(optimized->exec.answer), Rows(unoptimized->exec.answer));
  EXPECT_EQ(Rows(optimized->exec.answer),
            (std::set<Row>{{S("d1")}, {S("d2")}}));
  EXPECT_EQ(optimized->exec.log.QueriesTo("v5"), 0u);
  EXPECT_GT(unoptimized->exec.log.QueriesTo("v5"), 0u);
  EXPECT_LT(optimized->exec.log.total_queries(),
            unoptimized->exec.log.total_queries());
}

TEST(QueryAnswererTest, Example41ObtainableIsStrictSubsetOfComplete) {
  PaperExample example = MakeExample41();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query);
  auto complete = CompleteAnswer(example.query, example.catalog);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(complete.ok());
  // d9 is in the complete answer but unobtainable (c9 never enters domC).
  EXPECT_EQ(Rows(*complete),
            (std::set<Row>{{S("d1")}, {S("d2")}, {S("d9")}}));
  for (const Row& row : report->exec.answer.DecodedRows()) {
    EXPECT_TRUE(complete->Contains(row));
  }
  EXPECT_FALSE(report->exec.answer.Contains({S("d9")}));
}

TEST(QueryAnswererTest, Example51AnswerNeedsV4NotV5) {
  PaperExample example = MakeExample51();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(Rows(report->exec.answer),
            (std::set<Row>{{S("f"), S("g")}}));
  EXPECT_EQ(report->exec.log.QueriesTo("v5"), 0u);
  EXPECT_GT(report->exec.log.QueriesTo("v4"), 0u);
}

TEST(QueryAnswererTest, Example52CycleResolvedThroughV4) {
  PaperExample example = MakeExample52();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(Rows(report->exec.answer),
            (std::set<Row>{{S("a1"), S("c1"), S("e1")}}));
}

TEST(QueryAnswererTest, IndependentQueryIssuesOnlyTheChainsQueries) {
  // Theorem 4.1: when the query's only connection is the independent
  // T1 = {v1, v3} of Example 4.1, the Datalog program sends exactly the
  // source queries of the baseline's bind-join chain, in chain order.
  PaperExample example = MakeExample41();
  planner::Query t1_only(example.query.inputs(), example.query.outputs(),
                         {example.query.connections()[0]});
  BaselineExecutor baseline(&example.catalog);
  auto chain = baseline.Execute(t1_only);
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(t1_only);
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(report.ok()) << report.status();
  auto issued = [](const capability::AccessLog& log) {
    std::vector<std::string> queries;
    for (const capability::AccessRecord& record : log.records()) {
      queries.push_back(record.RenderedQuery());
    }
    return queries;
  };
  EXPECT_EQ(issued(report->exec.log), issued(chain->log));
  EXPECT_EQ(issued(report->exec.log),
            (std::vector<std::string>{"v1(a0, C)", "v3(c1, D)"}));
}

TEST(BaselineTest, IndependentConnectionMatchesOracle) {
  // Theorem 4.1: for the independent T1 = {v1, v3} of Example 4.1, the
  // baseline's bind-join chain retrieves the complete answer for that
  // connection, and so does the Datalog program, with the chain's two
  // source queries v1(a0), v3(c1).
  PaperExample example = MakeExample41();
  planner::Query t1_only(example.query.inputs(), example.query.outputs(),
                         {example.query.connections()[0]});
  BaselineExecutor baseline(&example.catalog);
  auto result = baseline.Execute(t1_only);
  auto complete = CompleteAnswer(t1_only, example.catalog);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(complete.ok());
  EXPECT_TRUE(result->skipped_connections.empty());
  EXPECT_EQ(Rows(result->answer), Rows(*complete));

  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(t1_only);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(Rows(report->exec.answer), Rows(*complete));
  EXPECT_EQ(report->exec.log.total_queries(), 2u);
}

TEST(BudgetTest, PartialAnswerUnderBudget) {
  // Section 7.2: with a tiny source-access budget the evaluator returns a
  // partial answer; with a generous one it returns the maximal answer.
  PaperExample example = MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);

  ExecOptions tight;
  tight.max_source_queries = 2;
  auto partial = answerer.Answer(example.query, tight);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->exec.budget_exhausted);
  EXPECT_LE(partial->exec.log.total_queries(), 2u);
  EXPECT_LE(partial->exec.answer.size(), 3u);

  auto full = answerer.Answer(example.query);
  ASSERT_TRUE(full.ok());
  // Monotone: every budgeted answer is part of the maximal one.
  for (const Row& row : partial->exec.answer.DecodedRows()) {
    EXPECT_TRUE(full->exec.answer.Contains(row));
  }
  // Budgets grow monotonically toward the maximal answer.
  std::size_t previous = 0;
  for (std::size_t budget : {1u, 3u, 6u, 9u, 12u, 100u}) {
    ExecOptions options;
    options.max_source_queries = budget;
    auto result = answerer.Answer(example.query, options);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->exec.answer.size(), previous);
    previous = result->exec.answer.size();
  }
  EXPECT_EQ(previous, 3u);
}

TEST(BudgetTest, ZeroBudgetYieldsEmptyAnswer) {
  PaperExample example = MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  ExecOptions options;
  options.max_source_queries = 0;
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->exec.answer.empty());
  EXPECT_TRUE(report->exec.budget_exhausted);
  EXPECT_EQ(report->exec.log.total_queries(), 0u);
}

TEST(ExecModesTest, NaiveAndSemiNaiveAgreeOnExample21) {
  PaperExample example = MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  ExecOptions naive;
  naive.mode = datalog::Evaluator::Mode::kNaive;
  auto a = answerer.Answer(example.query, naive);
  auto b = answerer.Answer(example.query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Rows(a->exec.answer), Rows(b->exec.answer));
}

TEST(ExecTest, CachedTupleUnlocksMoreAnswers) {
  // Section 7.1: caching the v4 tuple <c5, a5, $11> (e.g. from an earlier
  // session) makes the $11 answer obtainable in Example 2.1.
  PaperExample example = MakeExample21();
  auto program =
      planner::BuildProgram(example.query, example.views, example.domains);
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(planner::AddCachedTupleRules(
                  example.views[3], {S("c5"), S("a5"), S("$11")},
                  example.domains, planner::BuilderOptions{}, &*program)
                  .ok());
  SourceDrivenEvaluator evaluator(&example.catalog, example.domains);
  auto result = evaluator.Execute(*program, example.query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Rows(result->answer),
            (std::set<Row>{{S("$15")}, {S("$13")}, {S("$11")}, {S("$10")}}));
}

TEST(ExecTest, DomainKnowledgeUnlocksSource) {
  // Section 7.1's student example: a bbf source is unusable without
  // bindings; supplying the known departments as domain facts unlocks it.
  capability::SourceCatalog catalog;
  capability::SourceView student = capability::SourceView::MakeUnsafe(
      "student", {"Name", "Dept", "GPA"}, "bbf");
  relational::Relation data(student.schema());
  data.InsertUnsafe({S("alice"), S("CS"), S("3.9")});
  data.InsertUnsafe({S("bob"), S("EE"), S("3.4")});
  catalog.RegisterUnsafe(
      std::make_unique<capability::InMemorySource>(
          capability::InMemorySource::MakeUnsafe(student, std::move(data))));

  planner::DomainMap domains;
  planner::Query query({{"Name", S("alice")}}, {"GPA"},
                       {planner::Connection({"student"})});
  auto program = planner::BuildProgram(query, {student}, domains);
  ASSERT_TRUE(program.ok());

  // Without the department knowledge: no way to bind Dept.
  SourceDrivenEvaluator evaluator(&catalog, domains);
  auto stuck = evaluator.Execute(*program, query);
  ASSERT_TRUE(stuck.ok());
  EXPECT_TRUE(stuck->answer.empty());

  for (const char* dept : {"CS", "EE", "Physics", "Chemistry"}) {
    planner::AddDomainKnowledgeRule("Dept", S(dept), domains, &*program);
  }
  auto unlocked = evaluator.Execute(*program, query);
  ASSERT_TRUE(unlocked.ok());
  EXPECT_EQ(Rows(unlocked->answer), (std::set<Row>{{S("3.9")}}));
}

TEST(ExecTest, NonQueryableQueryYieldsEmptyAnswer) {
  // Removing v4 from Example 5.2 leaves no queryable view; the planner
  // drops the connection and execution returns an empty answer with zero
  // source queries.
  PaperExample example = MakeExample52();
  capability::SourceCatalog catalog;
  std::map<std::string, relational::Relation> data;
  for (const auto& view : example.views) {
    if (view.name() == "v4") continue;
    auto* source = dynamic_cast<capability::InMemorySource*>(
        example.catalog.Find(view.name()).value());
    catalog.RegisterUnsafe(std::make_unique<capability::InMemorySource>(
        capability::InMemorySource::MakeUnsafe(view, source->data())));
  }
  QueryAnswerer answerer(&catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->exec.answer.empty());
  EXPECT_EQ(report->exec.log.total_queries(), 0u);
  EXPECT_EQ(report->plan->optimized_program.size(), 0u);
}

}  // namespace
}  // namespace limcap::exec
