#include <gtest/gtest.h>

#include <memory>

#include "capability/caching_source.h"
#include "capability/in_memory_source.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"

namespace limcap::exec {
namespace {

using capability::CachingSource;
using capability::InMemorySource;
using capability::SourceCatalog;
using relational::Relation;

Value S(const char* text) { return Value::String(text); }

TEST(CacheFacadeTest, CachedTupleUnlocksEleven) {
  // Example 2.1: caching v4's <c5, a5, $11> tuple recovers the one
  // complete-answer tuple the cold start cannot obtain.
  auto example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);

  Relation cached(example.views[3].schema());
  cached.InsertUnsafe({S("c5"), S("a5"), S("$11")});
  auto report =
      answerer.AnswerWithCache(example.query, {{"v4", cached}});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->exec.answer.size(), 4u);
  EXPECT_TRUE(report->exec.answer.Contains({S("$11")}));
}

TEST(CacheFacadeTest, EmptyCacheEqualsColdStart) {
  auto example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto cold = answerer.Answer(example.query);
  auto warm = answerer.AnswerWithCache(example.query, {});
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(cold->exec.answer == warm->exec.answer);
}

TEST(CacheFacadeTest, NeverConsultsThePlanCache) {
  // The compiled program contains the cached tuples, so it must neither
  // be served from nor published to the plan cache.
  auto example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  planner::PlanCache plan_cache;
  ExecOptions options;
  options.plan_cache = &plan_cache;
  Relation cached(example.views[3].schema());
  cached.InsertUnsafe({S("c5"), S("a5"), S("$11")});
  for (int i = 0; i < 2; ++i) {
    auto report =
        answerer.AnswerWithCache(example.query, {{"v4", cached}}, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->cache.attempted);
    EXPECT_FALSE(report->cache.hit);
    EXPECT_TRUE(report->exec.answer.Contains({S("$11")}));
  }
  const planner::PlanCache::Stats stats = plan_cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(plan_cache.size(), 0u);
}

TEST(CacheFacadeTest, UnknownCachedViewFails) {
  auto example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  Relation cached(relational::Schema::MakeUnsafe({"X"}));
  cached.InsertUnsafe({S("x")});
  EXPECT_FALSE(
      answerer.AnswerWithCache(example.query, {{"v9", cached}}).ok());
}

TEST(CacheFacadeTest, CacheUnlocksDroppedConnection) {
  // Example 5.2 without v4: no view is queryable cold, so the planner
  // drops the only connection and the answer is empty. A cached v3 tuple
  // seeds the E domain and revives the whole cycle.
  auto example = paperdata::MakeExample52();
  SourceCatalog catalog;
  std::vector<capability::SourceView> views;
  for (const auto& view : example.views) {
    if (view.name() == "v4") continue;
    auto* source = dynamic_cast<InMemorySource*>(
        example.catalog.Find(view.name()).value());
    views.push_back(view);
    catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, source->data())));
  }
  QueryAnswerer answerer(&catalog, example.domains);

  auto cold = answerer.Answer(example.query);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->exec.answer.empty());
  EXPECT_EQ(cold->plan->optimized_program.size(), 0u);

  Relation cached(views[2].schema());  // v3(E, F, A)
  cached.InsertUnsafe({S("e1"), S("f1"), S("a1")});
  auto warm = answerer.AnswerWithCache(example.query, {{"v3", cached}});
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->exec.answer.size(), 1u);
  EXPECT_TRUE(warm->exec.answer.Contains(
      {S("a1"), S("c1"), S("e1")}));
}

TEST(CacheFacadeTest, ObservedTuplesRoundTrip) {
  // A CachingSource from "yesterday's session" feeds AnswerWithCache.
  auto example = paperdata::MakeExample21();
  auto* v4 = dynamic_cast<InMemorySource*>(
      example.catalog.Find("v4").value());
  CachingSource session(std::make_unique<InMemorySource>(
      InMemorySource::MakeUnsafe(v4->view(), v4->data())));
  // Yesterday someone searched for artist a5 (in yesterday's session
  // dictionary, which is gone by the time the cache is reused).
  auto yesterday = std::make_shared<ValueDictionary>();
  ASSERT_TRUE(session
                  .Execute(capability::SourceQuery::MakeUnsafe(
                      session.view(), yesterday, {{"Artist", S("a5")}}))
                  .ok());
  Relation observed = session.ObservedTuples();
  ASSERT_EQ(observed.size(), 1u);

  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report =
      answerer.AnswerWithCache(example.query, {{"v4", observed}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->exec.answer.Contains({S("$11")}));
}

}  // namespace
}  // namespace limcap::exec
