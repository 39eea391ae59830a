// Heap allocations of the per-fetch path, counted by the replaced global
// operator new of bench/alloc_counter.cc (linked into this test only).
// Most source queries of a wide frontier return nothing, so what a miss
// costs between the frontier and the access log sets the answer time:
// copying a schema, building an empty answer relation, probing a warm
// in-memory source and dispatching a serial batch of misses must not
// allocate per query.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "capability/in_memory_source.h"
#include "capability/source.h"
#include "common/value.h"
#include "common/value_dictionary.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "runtime/fetch_scheduler.h"
#include "runtime/options.h"

namespace limcap {
namespace {

using capability::InMemorySource;
using capability::SourceQuery;
using capability::SourceView;
using relational::Relation;
using relational::Schema;

/// Heap allocations `fn` makes.
template <typename Fn>
std::size_t CountAllocations(Fn&& fn) {
  const std::size_t before =
      benchalloc::g_allocations.load(std::memory_order_relaxed);
  fn();
  return benchalloc::g_allocations.load(std::memory_order_relaxed) - before;
}

/// v(Key, Val) [bf] over `rows` rows (k<i>, w<i>), stored in the source's
/// own dictionary: a query binds Key, and every answer is translated
/// into the caller's dictionary, as in the random-topology catalogs.
InMemorySource MakeSource(std::size_t rows) {
  SourceView view = SourceView::MakeUnsafe("v", {"Key", "Val"}, "bf");
  Relation data(view.schema());
  for (std::size_t i = 0; i < rows; ++i) {
    data.InsertUnsafe({Value::String("k" + std::to_string(i)),
                       Value::String("w" + std::to_string(i))});
  }
  return InMemorySource::MakeUnsafe(std::move(view), std::move(data));
}

/// A query binding Key to `value`, interned into `dict`.
SourceQuery KeyQuery(const InMemorySource& source,
                     const ValueDictionaryPtr& dict, const std::string& value) {
  return SourceQuery::MakeUnsafe(source.view(), dict,
                                 {{"Key", Value::String(value)}});
}

TEST(FetchAllocTest, CounterSeesAnAllocation) {
  std::unique_ptr<int> kept;
  EXPECT_GE(CountAllocations([&] { kept = std::make_unique<int>(1); }), 1u);
}

TEST(FetchAllocTest, SchemaCopyAllocatesNothing) {
  const Schema schema = Schema::MakeUnsafe({"Author", "Title", "Price"});
  std::vector<Schema> copies;
  copies.reserve(2);
  EXPECT_EQ(CountAllocations([&] {
              copies.push_back(schema);
              copies.push_back(copies.front());
            }),
            0u);
  EXPECT_EQ(copies.back(), schema);
  EXPECT_EQ(copies.back().attribute(2), "Price");
  // Equal lists compare equal whether or not they are shared.
  EXPECT_EQ(Schema::MakeUnsafe({"Author", "Title", "Price"}), schema);
  EXPECT_FALSE(Schema::MakeUnsafe({"Author", "Title"}) == schema);
}

TEST(FetchAllocTest, EmptyRelationOverAnExistingDictionaryAllocatesNothing) {
  const Schema schema = Schema::MakeUnsafe({"A", "B", "C"});
  const ValueDictionaryPtr dict = std::make_shared<ValueDictionary>();
  std::optional<Relation> relation;
  EXPECT_EQ(CountAllocations([&] { relation.emplace(schema, dict); }), 0u);
  EXPECT_TRUE(relation->empty());
  EXPECT_TRUE(relation->ColumnIdsAt(1).empty());
  EXPECT_TRUE(relation->ColumnDistinctIds(2).empty());
  // The first row allocates the columns.
  relation->InsertUnsafe(
      {Value::String("a"), Value::String("b"), Value::String("c")});
  EXPECT_EQ(relation->ColumnIdsAt(1).size(), 1u);
}

TEST(FetchAllocTest, WarmInMemorySourceMissAllocatesNothing) {
  InMemorySource source = MakeSource(8);
  const ValueDictionaryPtr dict = std::make_shared<ValueDictionary>();
  const SourceQuery hit = KeyQuery(source, dict, "k3");
  // "w3" is in the source's dictionary but never a key: the probe runs
  // and finds nothing. "zz" is unknown to the source.
  const SourceQuery probe_miss = KeyQuery(source, dict, "w3");
  const SourceQuery lookup_miss = KeyQuery(source, dict, "zz");
  // The first call builds the Key index and sizes the probe scratch.
  ASSERT_EQ(source.Execute(hit)->size(), 1u);

  std::optional<Result<Relation>> answer;
  EXPECT_EQ(
      CountAllocations([&] { answer.emplace(source.Execute(probe_miss)); }),
      0u);
  ASSERT_TRUE(answer->ok());
  EXPECT_TRUE((*answer)->empty());
  EXPECT_EQ(
      CountAllocations([&] { answer.emplace(source.Execute(lookup_miss)); }),
      0u);
  ASSERT_TRUE(answer->ok());
  EXPECT_TRUE((*answer)->empty());

  // A hit allocates its rows, which shows the counter is live.
  EXPECT_GT(CountAllocations([&] { answer.emplace(source.Execute(hit)); }),
            0u);
  ASSERT_TRUE(answer->ok());
  EXPECT_EQ((*answer)->DecodedRows(),
            (std::vector<relational::Row>{
                {Value::String("k3"), Value::String("w3")}}));
}

TEST(FetchAllocTest, SerialBatchOfMissesAllocatesPerBatchNotPerQuery) {
  constexpr std::size_t kMisses = 64;
  InMemorySource source = MakeSource(2 * kMisses);
  const ValueDictionaryPtr dict = std::make_shared<ValueDictionary>();
  // Distinct values the source stores only as Val: no two requests
  // coalesce, and every probe misses.
  auto misses = [&](std::size_t count) {
    std::vector<runtime::FetchRequest> requests(count);
    for (std::size_t i = 0; i < count; ++i) {
      requests[i].source = &source;
      requests[i].query = KeyQuery(source, dict, "w" + std::to_string(i));
    }
    return requests;
  };
  const std::vector<runtime::FetchRequest> batch = misses(kMisses);
  const std::vector<runtime::FetchRequest> double_batch = misses(2 * kMisses);
  ASSERT_EQ(source.Execute(KeyQuery(source, dict, "k0"))->size(), 1u);

  // A fresh scheduler per batch: both pay the same first-sight state.
  auto batch_allocations = [&](const std::vector<runtime::FetchRequest>&
                                   requests) {
    runtime::FetchScheduler scheduler(runtime::RuntimeOptions{}, dict);
    std::vector<runtime::FetchResult> results;
    const std::size_t allocations = CountAllocations(
        [&] { results = scheduler.ExecuteBatch(requests); });
    EXPECT_EQ(results.size(), requests.size());
    for (const runtime::FetchResult& result : results) {
      EXPECT_TRUE(result.tuples.ok() && result.tuples->empty());
      EXPECT_EQ(result.attempts, 1u);
    }
    EXPECT_EQ(scheduler.report().total_attempts, requests.size());
    return allocations;
  };
  const std::size_t single = batch_allocations(batch);
  const std::size_t twice = batch_allocations(double_batch);
  EXPECT_EQ(twice, single) << "a miss allocates "
                           << (double(twice) - double(single)) / kMisses
                           << " times per query";
}

}  // namespace
}  // namespace limcap
