// Robustness against misbehaving sources: wrappers in the wild return
// supersets, garbage arities, or nothing at all. The evaluator must stay
// sound (never exceed the complete answer) and fail cleanly where
// soundness cannot be preserved.

#include <gtest/gtest.h>

#include <memory>

#include "capability/in_memory_source.h"
#include "common/string_util.h"
#include "exec/oracle.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"

namespace limcap::exec {
namespace {

using capability::InMemorySource;
using capability::Source;
using capability::SourceCatalog;
using capability::SourceQuery;
using capability::SourceView;
using relational::Relation;

/// Ignores the query's bindings and returns its whole extent — a sloppy
/// wrapper that over-answers (still type-correct).
class SloppySource : public Source {
 public:
  SloppySource(SourceView view, Relation data)
      : view_(std::move(view)), data_(std::move(data)) {}
  const SourceView& view() const override { return view_; }
  Result<Relation> Execute(const SourceQuery& query) override {
    if (!query.SatisfiedTemplate(view_).has_value()) {
      return Status::CapabilityViolation("missing bindings");
    }
    // Also ignores the dictionary contract: the answer keeps this
    // source's private dictionary, forcing the caller to re-key it.
    return data_;
  }

 private:
  SourceView view_;
  Relation data_;
};

/// Returns rows of the wrong arity.
class GarbageSource : public Source {
 public:
  explicit GarbageSource(SourceView view) : view_(std::move(view)) {}
  const SourceView& view() const override { return view_; }
  Result<Relation> Execute(const SourceQuery&) override {
    Relation wrong(relational::Schema::MakeUnsafe({"Only"}));
    wrong.InsertUnsafe({Value::String("junk")});
    return wrong;
  }

 private:
  SourceView view_;
};

SourceCatalog RebuildWith(const paperdata::PaperExample& example,
                          const std::string& replace,
                          std::unique_ptr<Source> replacement) {
  SourceCatalog catalog;
  for (const auto& view : example.views) {
    if (view.name() == replace) {
      catalog.RegisterUnsafe(std::move(replacement));
      continue;
    }
    auto* source = dynamic_cast<InMemorySource*>(
        example.catalog.Find(view.name()).value());
    catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, source->data())));
  }
  return catalog;
}

TEST(RobustnessTest, SloppySourceCannotInflateTheAnswer) {
  // v3 returns its whole extent on every query. The evaluator absorbs
  // the extra tuples as genuine source tuples; the answer may grow
  // toward — but never beyond — the complete answer.
  auto example = paperdata::MakeExample21();
  auto* v3 = dynamic_cast<InMemorySource*>(
      example.catalog.Find("v3").value());
  SourceCatalog catalog = RebuildWith(
      example, "v3",
      std::make_unique<SloppySource>(v3->view(), v3->data()));
  QueryAnswerer answerer(&catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok()) << report.status();
  auto complete = CompleteAnswer(example.query, example.catalog);
  ASSERT_TRUE(complete.ok());
  for (const auto& row : report->exec.answer.DecodedRows()) {
    EXPECT_TRUE(complete->Contains(row));
  }
  // In Example 2.1 the extra v3 tuples add nothing: c3/c1 were reachable
  // anyway.
  EXPECT_EQ(report->exec.answer.size(), 3u);
}

TEST(RobustnessTest, GarbageAritySurfacesAsError) {
  auto example = paperdata::MakeExample21();
  SourceCatalog catalog = RebuildWith(
      example, "v3",
      std::make_unique<GarbageSource>(
          SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff")));
  QueryAnswerer answerer(&catalog, example.domains);
  auto report = answerer.Answer(example.query);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, EmptySourcesYieldEmptyAnswerQuickly) {
  // All sources empty: the evaluator terminates after probing what the
  // inputs allow, with no answers and no spinning.
  SourceCatalog catalog;
  std::vector<SourceView> views;
  for (const auto& view : paperdata::MakeExample21().views) {
    views.push_back(view);
    catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, Relation(view.schema()))));
  }
  auto example = paperdata::MakeExample21();
  QueryAnswerer answerer(&catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->exec.answer.empty());
  // Only v1 is queryable from the initial song binding.
  EXPECT_EQ(report->exec.log.total_queries(), 1u);
  EXPECT_LE(report->exec.rounds, 2u);
}

TEST(RobustnessTest, SelfFeedingSourceTerminates) {
  // A source whose outputs feed its own binding requirement (Cd -> Cd
  // successor chain): evaluation must reach the fixpoint and stop even
  // though every answer unlocks another query.
  SourceCatalog catalog;
  SourceView next = SourceView::MakeUnsafe("next", {"Cd", "NextCd"}, "bf");
  Relation data(next.schema());
  for (int i = 0; i < 30; ++i) {
    data.InsertUnsafe({Value::String(StrCat({"c", std::to_string(i)})),
                       Value::String(StrCat({"c", std::to_string(i + 1)}))});
  }
  catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
      InMemorySource::MakeUnsafe(next, std::move(data))));

  planner::DomainMap domains;
  domains.SetDomain("Cd", "cd");
  domains.SetDomain("NextCd", "cd");  // successor feeds the same domain
  planner::Query query({{"Cd", Value::String("c0")}}, {"NextCd"},
                       {planner::Connection({"next"})});
  QueryAnswerer answerer(&catalog, domains);
  auto report = answerer.Answer(query);
  ASSERT_TRUE(report.ok()) << report.status();
  // Only the c0 row satisfies the input constraint in the answer...
  EXPECT_EQ(report->exec.answer.size(), 1u);
  // ...but the whole chain was walked: 31 distinct queries (c0..c30).
  EXPECT_EQ(report->exec.log.total_queries(), 31u);
}

}  // namespace
}  // namespace limcap::exec
