#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "common/string_util.h"
#include "datalog/evaluator.h"
#include "datalog/fact_store.h"
#include "datalog/parser.h"

namespace limcap::datalog {
namespace {

Value S(const std::string& text) { return Value::String(text); }

Program P(const char* text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return program.value_or(Program{});
}

/// Runs `program` over a copy of the EDB facts and returns the facts of
/// `predicate` as a sorted set of decoded rows.
std::set<std::vector<Value>> Eval(
    const Program& program,
    const std::vector<std::pair<std::string, relational::Row>>& edb,
    const std::string& predicate, Evaluator::Mode mode) {
  FactStore store;
  for (const auto& [name, row] : edb) {
    EXPECT_TRUE(store.Insert(name, row).ok());
  }
  auto evaluator = Evaluator::Create(program, &store, mode);
  EXPECT_TRUE(evaluator.ok()) << evaluator.status();
  EXPECT_TRUE((*evaluator)->Run().ok());
  std::set<std::vector<Value>> out;
  for (RowView row : store.Facts(predicate)) {
    out.insert(store.Decode(row));
  }
  return out;
}

TEST(FactStoreTest, InsertAndCount) {
  FactStore store;
  EXPECT_TRUE(*store.Insert("p", {S("a"), S("b")}));
  EXPECT_FALSE(*store.Insert("p", {S("a"), S("b")}));
  EXPECT_TRUE(*store.Insert("p", {S("a"), S("c")}));
  EXPECT_EQ(store.Count("p"), 2u);
  EXPECT_EQ(store.Count("q"), 0u);
  EXPECT_EQ(store.TotalCount(), 2u);
}

TEST(FactStoreTest, ArityConflictRejected) {
  FactStore store;
  ASSERT_TRUE(store.Insert("p", {S("a")}).ok());
  EXPECT_FALSE(store.Insert("p", {S("a"), S("b")}).ok());
  EXPECT_FALSE(store.Declare("p", 3).ok());
  EXPECT_TRUE(store.Declare("p", 1).ok());
}

TEST(FactStoreTest, ProbeWithLimit) {
  FactStore store;
  ValueId a = store.dict().Intern(S("a"));
  ASSERT_TRUE(store.Insert("p", {S("a"), S("x")}).ok());
  ASSERT_TRUE(store.Insert("p", {S("a"), S("y")}).ok());
  ASSERT_TRUE(store.Insert("p", {S("b"), S("z")}).ok());
  EXPECT_EQ(store.Probe("p", {0}, {a}, 3).size(), 2u);
  EXPECT_EQ(store.Probe("p", {0}, {a}, 1).size(), 1u);
  EXPECT_EQ(store.Probe("p", {0}, {a}, 0).size(), 0u);
  // Index maintained across later inserts.
  ASSERT_TRUE(store.Insert("p", {S("a"), S("w")}).ok());
  EXPECT_EQ(store.Probe("p", {0}, {a}, 4).size(), 3u);
}

TEST(FactStoreTest, ToRelationDecodes) {
  FactStore store;
  ASSERT_TRUE(store.Insert("p", {S("a"), Value::Int64(1)}).ok());
  auto relation =
      store.ToRelation("p", relational::Schema::MakeUnsafe({"X", "Y"}));
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->Contains({S("a"), Value::Int64(1)}));
  EXPECT_FALSE(
      store.ToRelation("p", relational::Schema::MakeUnsafe({"X"})).ok());
  // Unknown predicate: empty relation of the given schema.
  auto empty =
      store.ToRelation("zzz", relational::Schema::MakeUnsafe({"X"}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

class EvaluatorModes : public ::testing::TestWithParam<Evaluator::Mode> {};

TEST_P(EvaluatorModes, SingleRuleJoin) {
  Program program = P("ans(X, Z) :- e(X, Y), e(Y, Z).");
  auto result = Eval(program,
                     {{"e", {S("a"), S("b")}}, {"e", {S("b"), S("c")}}},
                     "ans", GetParam());
  EXPECT_EQ(result,
            (std::set<std::vector<Value>>{{S("a"), S("c")}}));
}

TEST_P(EvaluatorModes, TransitiveClosure) {
  Program program = P(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), e(Y, Z).\n");
  std::vector<std::pair<std::string, relational::Row>> edb;
  const int n = 12;
  for (int i = 0; i < n - 1; ++i) {
    edb.push_back({"e", {S(StrCat({"n", std::to_string(i)})),
                         S(StrCat({"n", std::to_string(i + 1)}))}});
  }
  auto result = Eval(program, edb, "tc", GetParam());
  EXPECT_EQ(result.size(), static_cast<std::size_t>(n * (n - 1) / 2));
}

TEST_P(EvaluatorModes, GroundFactsSeeded) {
  Program program = P(
      "p(a).\n"
      "p(b).\n"
      "q(X) :- p(X).\n");
  auto result = Eval(program, {}, "q", GetParam());
  EXPECT_EQ(result.size(), 2u);
}

TEST_P(EvaluatorModes, ConstantsInBodyFilter) {
  Program program = P("ans(Y) :- e(a, Y).");
  auto result = Eval(program,
                     {{"e", {S("a"), S("x")}}, {"e", {S("b"), S("y")}}},
                     "ans", GetParam());
  EXPECT_EQ(result, (std::set<std::vector<Value>>{{S("x")}}));
}

TEST_P(EvaluatorModes, RepeatedVariableInAtom) {
  Program program = P("loop(X) :- e(X, X).");
  auto result = Eval(program,
                     {{"e", {S("a"), S("a")}}, {"e", {S("a"), S("b")}}},
                     "loop", GetParam());
  EXPECT_EQ(result, (std::set<std::vector<Value>>{{S("a")}}));
}

TEST_P(EvaluatorModes, ConstantInHead) {
  Program program = P("tagged(marker, X) :- e(X, Y).");
  auto result = Eval(program, {{"e", {S("a"), S("b")}}}, "tagged",
                     GetParam());
  EXPECT_EQ(result,
            (std::set<std::vector<Value>>{{S("marker"), S("a")}}));
}

TEST_P(EvaluatorModes, MutualRecursion) {
  Program program = P(
      "even(s0).\n"
      "odd(Y) :- succ(X, Y), even(X).\n"
      "even(Y) :- succ(X, Y), odd(X).\n");
  std::vector<std::pair<std::string, relational::Row>> edb;
  for (int i = 0; i < 6; ++i) {
    edb.push_back({"succ", {S(StrCat({"s", std::to_string(i)})),
                            S(StrCat({"s", std::to_string(i + 1)}))}});
  }
  auto even = Eval(program, edb, "even", GetParam());
  auto odd = Eval(program, edb, "odd", GetParam());
  EXPECT_EQ(even.size(), 4u);  // s0, s2, s4, s6
  EXPECT_EQ(odd.size(), 3u);   // s1, s3, s5
}

TEST_P(EvaluatorModes, UnsafeProgramRejected) {
  Program program = P("p(X) :- q(Y).");
  FactStore store;
  EXPECT_FALSE(Evaluator::Create(program, &store, GetParam()).ok());
}

TEST_P(EvaluatorModes, EmptyProgramRuns) {
  FactStore store;
  auto evaluator = Evaluator::Create(Program{}, &store, GetParam());
  ASSERT_TRUE(evaluator.ok());
  EXPECT_TRUE((*evaluator)->Run().ok());
}

TEST_P(EvaluatorModes, ResumableAcrossEdbInserts) {
  Program program = P(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), e(X, Y).\n");
  FactStore store;
  ASSERT_TRUE(store.Insert("start", {S("a")}).ok());
  ASSERT_TRUE(store.Insert("e", {S("a"), S("b")}).ok());
  // Declare the EDB arity so later inserts agree.
  auto evaluator = Evaluator::Create(program, &store, GetParam());
  ASSERT_TRUE(evaluator.ok());
  ASSERT_TRUE((*evaluator)->Run().ok());
  EXPECT_EQ(store.Count("reach"), 2u);

  // New extensional facts arrive (as source queries would deliver them);
  // a further Run picks them up incrementally.
  ASSERT_TRUE(store.Insert("e", {S("b"), S("c")}).ok());
  ASSERT_TRUE(store.Insert("e", {S("c"), S("d")}).ok());
  ASSERT_TRUE((*evaluator)->Run().ok());
  EXPECT_EQ(store.Count("reach"), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, EvaluatorModes,
    ::testing::Values(Evaluator::Mode::kNaive, Evaluator::Mode::kSemiNaive),
    [](const ::testing::TestParamInfo<Evaluator::Mode>& info) {
      return info.param == Evaluator::Mode::kNaive ? "Naive" : "SemiNaive";
    });

/// Semi-naive watermarks must make a resumed Run delta-driven: after the
/// fixpoint, extending a long chain by one edge may only reprocess the
/// new facts, not re-match the existing closure.
class SemiNaiveResumability
    : public ::testing::TestWithParam<Evaluator::Mode> {};

TEST_P(SemiNaiveResumability, WatermarksReprocessOnlyNewFacts) {
  Program program = P(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), e(X, Y).\n");
  FactStore store;
  ASSERT_TRUE(store.Insert("start", {S("a0")}).ok());
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store
                    .Insert("e", {S(StrCat({"a", std::to_string(i)})),
                                  S(StrCat({"a", std::to_string(i + 1)}))})
                    .ok());
  }
  auto evaluator = Evaluator::Create(program, &store, GetParam());
  ASSERT_TRUE(evaluator.ok());
  ASSERT_TRUE((*evaluator)->Run().ok());
  EXPECT_EQ(store.Count("reach"), static_cast<std::size_t>(n + 1));
  const EvalStats first = (*evaluator)->stats();
  EXPECT_GT(first.matches, static_cast<uint64_t>(n));

  // One new edge extends the chain; the resumed run derives exactly one
  // fact and its match work is O(delta), not O(closure).
  ASSERT_TRUE(store.Insert("e", {S(StrCat({"a", std::to_string(n)})),
                                 S(StrCat({"a", std::to_string(n + 1)}))})
                  .ok());
  ASSERT_TRUE((*evaluator)->Run().ok());
  const EvalStats second = (*evaluator)->stats();
  EXPECT_EQ(store.Count("reach"), static_cast<std::size_t>(n + 2));
  EXPECT_EQ(second.facts_derived - first.facts_derived, 1u);
  EXPECT_LE(second.matches - first.matches, 4u);

  // A no-op resume (nothing inserted) must derive nothing.
  ASSERT_TRUE((*evaluator)->Run().ok());
  EXPECT_EQ((*evaluator)->stats().facts_derived, second.facts_derived);
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndParallel, SemiNaiveResumability,
    ::testing::Values(Evaluator::Mode::kSemiNaive),
    [](const ::testing::TestParamInfo<Evaluator::Mode>&) { return "Serial"; });

TEST(EvaluatorStatsTest, StatsReportProbesScratchAndRounds) {
  Program program = P(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), e(Y, Z).\n");
  FactStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .Insert("e", {S(StrCat({"n", std::to_string(i)})),
                                  S(StrCat({"n", std::to_string(i + 1)}))})
                    .ok());
  }
  auto evaluator = Evaluator::Create(program, &store);
  ASSERT_TRUE(evaluator.ok());
  ASSERT_TRUE((*evaluator)->Run().ok());
  const EvalStats& stats = (*evaluator)->stats();
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.scratch_bytes, 0u);
  ASSERT_EQ(stats.round_activations.size(), stats.iterations);
  uint64_t total = 0;
  for (uint64_t a : stats.round_activations) total += a;
  EXPECT_EQ(total, stats.rule_activations);
}

TEST(EvaluatorStatsTest, SemiNaiveDoesLessWorkThanNaiveOnChains) {
  Program program = P(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), e(Y, Z).\n");
  const int n = 24;
  auto run = [&](Evaluator::Mode mode) {
    FactStore store;
    for (int i = 0; i < n - 1; ++i) {
      EXPECT_TRUE(store
                      .Insert("e", {S(StrCat({"n", std::to_string(i)})),
                                    S(StrCat({"n", std::to_string(i + 1)}))})
                      .ok());
    }
    auto evaluator = Evaluator::Create(program, &store, mode);
    EXPECT_TRUE(evaluator.ok());
    EXPECT_TRUE((*evaluator)->Run().ok());
    return (*evaluator)->stats();
  };
  EvalStats naive = run(Evaluator::Mode::kNaive);
  EvalStats semi = run(Evaluator::Mode::kSemiNaive);
  EXPECT_EQ(naive.facts_derived, semi.facts_derived);
  // Naive re-derives every old fact each round; semi-naive must not.
  EXPECT_GT(naive.matches, semi.matches);
}

/// Random-program property: naive and semi-naive evaluation agree.
class RandomProgramAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramAgreement, NaiveEqualsSemiNaive) {
  Rng rng(GetParam());
  // Random positive program over binary predicates p0..p3 (IDB) and
  // e0..e2 (EDB), rules with 1-3 body atoms, safe by construction: head
  // variables drawn from body variables.
  const int num_idb = 4;
  const int num_edb = 3;
  Program program;
  const int num_rules = 3 + static_cast<int>(rng.Below(5));
  for (int r = 0; r < num_rules; ++r) {
    Rule rule;
    int body_size = 1 + static_cast<int>(rng.Below(3));
    std::vector<std::string> vars;
    for (int b = 0; b < body_size; ++b) {
      Atom atom;
      bool edb = rng.Chance(0.5) || b == 0;
      atom.predicate = edb ? StrCat({"e", std::to_string(rng.Below(num_edb))})
                           : StrCat({"p", std::to_string(rng.Below(num_idb))});
      for (int t = 0; t < 2; ++t) {
        // Reuse a variable sometimes to create joins.
        if (!vars.empty() && rng.Chance(0.5)) {
          atom.terms.push_back(Term::Var(vars[rng.Below(vars.size())]));
        } else {
          std::string name = StrCat({"V", std::to_string(vars.size())});
          vars.push_back(name);
          atom.terms.push_back(Term::Var(name));
        }
      }
      rule.body.push_back(std::move(atom));
    }
    rule.head.predicate = StrCat({"p", std::to_string(rng.Below(num_idb))});
    for (int t = 0; t < 2; ++t) {
      rule.head.terms.push_back(Term::Var(vars[rng.Below(vars.size())]));
    }
    program.AddRule(std::move(rule));
  }
  // Random EDB over a small constant pool.
  std::vector<std::pair<std::string, relational::Row>> edb;
  for (int e = 0; e < num_edb; ++e) {
    int facts = 2 + static_cast<int>(rng.Below(6));
    for (int f = 0; f < facts; ++f) {
      edb.push_back({StrCat({"e", std::to_string(e)}),
                     {S(StrCat({"k", std::to_string(rng.Below(5))})),
                      S(StrCat({"k", std::to_string(rng.Below(5))}))}});
    }
  }
  for (int p = 0; p < num_idb; ++p) {
    std::string name = StrCat({"p", std::to_string(p)});
    auto naive = Eval(program, edb, name, Evaluator::Mode::kNaive);
    auto semi = Eval(program, edb, name, Evaluator::Mode::kSemiNaive);
    EXPECT_EQ(naive, semi) << "predicate " << name << " differs, seed "
                           << GetParam() << "\n"
                           << program.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramAgreement,
                         ::testing::Range(uint64_t{0}, uint64_t{30}));

}  // namespace
}  // namespace limcap::datalog
