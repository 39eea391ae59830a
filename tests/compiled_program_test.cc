// Compiled-program reuse at the evaluator level: a program compiled once
// by Evaluator::Compile and bound to several stores must evaluate exactly
// like the program compiled on each of those stores — the same facts in
// the same order, the same dictionary, the same EvalStats — in every
// evaluation mode. Stores that hand out other ids than the compiling one
// (a dictionary already holding unrelated values, EDB predicates
// declared first) drive the bind-time recompilation.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capability/in_memory_source.h"
#include "common/string_util.h"
#include "datalog/evaluator.h"
#include "datalog/fact_store.h"
#include "paperdata/paper_examples.h"
#include "planner/program_optimizer.h"
#include "query_redraw.h"
#include "workload/generator.h"

namespace limcap::datalog {
namespace {

using Edb = std::vector<std::pair<std::string, relational::Row>>;

/// A program with the extensional facts it is evaluated over.
struct Case {
  std::string name;
  Program program;
  Edb edb;
};

/// Every tuple of every in-memory source of `catalog`, view by view.
Edb SourceFacts(const capability::SourceCatalog& catalog) {
  Edb edb;
  for (const std::string& name : catalog.ViewNames()) {
    auto source = catalog.Find(name);
    EXPECT_TRUE(source.ok()) << source.status();
    if (!source.ok()) continue;
    const auto* memory =
        dynamic_cast<const capability::InMemorySource*>(*source);
    EXPECT_NE(memory, nullptr) << name;
    if (memory == nullptr) continue;
    for (const relational::Row& row : memory->data().DecodedRows()) {
      edb.emplace_back(name, row);
    }
  }
  return edb;
}

/// Π(Q, V) of `query`, over the sources' full extents.
Case PlannedCase(std::string name, const planner::Query& query,
                 const std::vector<capability::SourceView>& views,
                 const planner::DomainMap& domains,
                 const capability::SourceCatalog& catalog) {
  auto program = planner::BuildFullProgram(query, views, domains);
  EXPECT_TRUE(program.ok()) << name << ": " << program.status();
  return Case{std::move(name), program.ok() ? *program : Program{},
              SourceFacts(catalog)};
}

std::vector<Case> PaperCases() {
  std::vector<Case> cases;
  const std::pair<const char*, paperdata::PaperExample (*)()> examples[] = {
      {"example21", paperdata::MakeExample21},
      {"example41", paperdata::MakeExample41},
      {"example51", paperdata::MakeExample51},
      {"example52", paperdata::MakeExample52}};
  for (const auto& [name, make] : examples) {
    paperdata::PaperExample example = make();
    cases.push_back(PlannedCase(name, example.query, example.views,
                                example.domains, example.catalog));
  }
  return cases;
}

std::vector<Case> GeneratedCases() {
  std::vector<Case> cases;
  for (auto topology : {workload::CatalogSpec::Topology::kChain,
                        workload::CatalogSpec::Topology::kStar,
                        workload::CatalogSpec::Topology::kRandom}) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      workload::CatalogSpec spec;
      spec.topology = topology;
      spec.num_views = 7;
      spec.num_attributes = 6;
      spec.tuples_per_view = 6;
      spec.seed = seed * 31 + 5;
      workload::GeneratedInstance instance = workload::GenerateInstance(spec);
      workload::QuerySpec query_spec;
      query_spec.num_connections = 2;
      query_spec.views_per_connection = 2;
      query_spec.seed = seed * 13 + 1;
      auto query = testutil::RedrawAny(instance, query_spec);
      EXPECT_TRUE(query.has_value()) << "no query for seed " << seed;
      if (!query.has_value()) continue;
      cases.push_back(PlannedCase(
          StrCat({"generated/", std::to_string(int(topology)), "/", std::to_string(seed)}),
          *query, instance.views, instance.domains, instance.catalog));
    }
  }
  return cases;
}

void Load(FactStore& store, const Edb& edb) {
  for (const auto& [name, row] : edb) {
    EXPECT_TRUE(store.Insert(name, row).ok());
  }
}

enum class StoreKind {
  /// An empty store; the EDB is loaded after the evaluator is built.
  kFresh,
  /// A store whose dictionary already holds values no program mentions
  /// and whose EDB is loaded before the evaluator is built, so both its
  /// ValueIds and its PredicateIds differ from a fresh store's.
  kPopulated,
};

/// What one evaluation produced: every predicate's rows as ids, in
/// insertion order, the dictionary size, and the counters.
struct Evaluation {
  std::vector<std::pair<std::string, std::vector<IdRow>>> facts;
  std::vector<std::pair<std::string, std::vector<relational::Row>>> decoded;
  std::size_t dict_size = 0;
  EvalStats stats;
};

using MakeEvaluator =
    std::function<Result<std::unique_ptr<Evaluator>>(FactStore*)>;

Evaluation Evaluate(StoreKind kind, const Edb& edb, const MakeEvaluator& make) {
  FactStore store;
  if (kind == StoreKind::kPopulated) {
    for (int i = 0; i < 23; ++i) {
      store.dict().Intern(Value::String(StrCat({"unrelated", std::to_string(i)})));
    }
    Load(store, edb);
  }
  auto evaluator = make(&store);
  Evaluation out;
  EXPECT_TRUE(evaluator.ok()) << evaluator.status();
  if (!evaluator.ok()) return out;
  if (kind == StoreKind::kFresh) Load(store, edb);
  EXPECT_TRUE((*evaluator)->Run().ok());
  for (const std::string& name : store.Predicates()) {
    std::vector<IdRow> rows;
    std::vector<relational::Row> decoded;
    for (RowView row : store.Facts(name)) {
      rows.emplace_back(row.begin(), row.end());
      decoded.push_back(store.Decode(row));
    }
    out.facts.emplace_back(name, std::move(rows));
    out.decoded.emplace_back(name, std::move(decoded));
  }
  out.dict_size = store.dict().size();
  out.stats = (*evaluator)->stats();
  return out;
}

void ExpectSameEvaluation(const Evaluation& got, const Evaluation& want) {
  EXPECT_EQ(got.facts, want.facts);
  EXPECT_EQ(got.dict_size, want.dict_size);
  const EvalStats& a = got.stats;
  const EvalStats& b = want.stats;
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.rule_activations, b.rule_activations);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.facts_derived, b.facts_derived);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.probe_rows, b.probe_rows);
  EXPECT_EQ(a.scan_rows, b.scan_rows);
  EXPECT_EQ(a.scratch_bytes, b.scratch_bytes);
  EXPECT_EQ(a.round_activations, b.round_activations);
}

/// Compiles each case once, on a fresh store, then binds that one
/// compiled program to two fresh stores and to a populated one, in every
/// mode, against Create(program) on an equal store.
void CheckReuse(const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    FactStore compiling;
    auto compiled = Evaluator::Compile(c.program, &compiling);
    ASSERT_TRUE(compiled.ok()) << c.name << ": " << compiled.status();
    for (Evaluator::Mode mode :
         {Evaluator::Mode::kNaive, Evaluator::Mode::kSemiNaive}) {
      SCOPED_TRACE(c.name + " mode " + std::to_string(int(mode)));
      Evaluator::Options options;
      options.mode = mode;
      const MakeEvaluator from_program = [&](FactStore* store) {
        return Evaluator::Create(c.program, store, options);
      };
      const MakeEvaluator from_compiled = [&](FactStore* store) {
        return Evaluator::Create(*compiled, store, options);
      };

      const Evaluation fresh =
          Evaluate(StoreKind::kFresh, c.edb, from_program);
      ExpectSameEvaluation(Evaluate(StoreKind::kFresh, c.edb, from_compiled),
                           fresh);
      ExpectSameEvaluation(Evaluate(StoreKind::kFresh, c.edb, from_compiled),
                           fresh);

      const Evaluation populated =
          Evaluate(StoreKind::kPopulated, c.edb, from_program);
      ExpectSameEvaluation(
          Evaluate(StoreKind::kPopulated, c.edb, from_compiled), populated);
      // Other ids, same evaluation: the populated store derives the fresh
      // store's facts, in the same order, with the same work.
      EXPECT_NE(populated.dict_size, fresh.dict_size);
      EXPECT_EQ(populated.decoded, fresh.decoded);
      EXPECT_EQ(populated.stats.matches, fresh.stats.matches);
      EXPECT_EQ(populated.stats.round_activations,
                fresh.stats.round_activations);
    }
  }
}

TEST(CompiledProgramTest, ReuseMatchesPerStoreCompileOnPaperPrograms) {
  const std::vector<Case> cases = PaperCases();
  ASSERT_EQ(cases.size(), 4u);
  for (const Case& c : cases) {
    EXPECT_GT(c.program.size(), 0u) << c.name;
    EXPECT_FALSE(c.edb.empty()) << c.name;
  }
  CheckReuse(cases);
}

TEST(CompiledProgramTest, ReuseMatchesPerStoreCompileOnGeneratedPrograms) {
  const std::vector<Case> cases = GeneratedCases();
  ASSERT_EQ(cases.size(), 18u);
  CheckReuse(cases);
}

TEST(CompiledProgramTest, CompileRejectsWhatCreateRejects) {
  FactStore store;
  // Unsafe: the head variable Y is bound by no body atom.
  Program unsafe({Rule{Atom{"p", {Term::Var("X"), Term::Var("Y")}},
                       {Atom{"e", {Term::Var("X")}}}}});
  EXPECT_FALSE(Evaluator::Compile(unsafe, &store).ok());
  // One predicate, two arities.
  Program arities({Rule{Atom{"p", {Term::Var("X")}},
                        {Atom{"e", {Term::Var("X")}},
                         Atom{"e", {Term::Var("X"), Term::Var("X")}}}}});
  EXPECT_FALSE(Evaluator::Compile(arities, &store).ok());
}

}  // namespace
}  // namespace limcap::datalog
