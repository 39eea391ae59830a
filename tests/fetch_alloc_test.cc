// Heap allocations of the per-fetch path, counted by the replaced global
// operator new of bench/alloc_counter.cc (linked into this test only).
// Most source queries of a wide frontier return nothing, so what a miss
// costs between the frontier and the access log sets the answer time:
// copying a schema, building an empty answer relation, probing a warm
// in-memory source and dispatching a serial round of misses through the
// scheduler into the access log must not allocate per query.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "capability/access_log.h"
#include "capability/in_memory_source.h"
#include "capability/source.h"
#include "common/string_util.h"
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
    data.InsertUnsafe({Value::String(StrCat({"k", std::to_string(i)})),
                       Value::String(StrCat({"w", std::to_string(i)}))});
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

TEST(FetchAllocTest, TranslationMemoGrowsLogarithmically) {
  constexpr std::size_t kIds = 4096;
  InMemorySource source = MakeSource(8);
  // Two caller dictionaries numbering the same values differently.
  const ValueDictionaryPtr first = std::make_shared<ValueDictionary>();
  const ValueDictionaryPtr second = std::make_shared<ValueDictionary>();
  std::vector<ValueId> first_ids;
  std::vector<ValueId> second_ids;
  for (std::size_t i = 0; i < kIds; ++i) {
    first_ids.push_back(
        first->Intern(Value::String(StrCat({"x", std::to_string(i)}))));
  }
  for (std::size_t i = kIds; i-- > 0;) {
    second_ids.push_back(
        second->Intern(Value::String(StrCat({"x", std::to_string(i)}))));
  }
  SourceQuery query;
  query.positions = {0};
  query.ids = {0};
  auto ask_each = [&](const ValueDictionaryPtr& dict,
                      const std::vector<ValueId>& ids) {
    query.dict = dict;
    std::size_t rows = 0;
    for (ValueId id : ids) {
      query.ids[0] = id;
      rows += source.Execute(query)->size();
    }
    return rows;
  };
  // The first call sizes the probe scratch.
  ASSERT_EQ(ask_each(first, {first_ids[0]}), 0u);
  // kIds ids the source has never seen: the memo's table doubles from 16
  // slots while it stays at most half full, about log2(2 kIds / 16)
  // times, never once per id.
  std::size_t rows = 0;
  const std::size_t cold = CountAllocations([&] {
    rows = ask_each(first, first_ids);
  });
  EXPECT_EQ(rows, 0u);
  EXPECT_LE(cold, 12u);
  // Another caller dictionary takes the memo over without allocating,
  // and so does the first one when it comes back, however many ids
  // either has handed out.
  EXPECT_EQ(CountAllocations([&] { rows = ask_each(second, second_ids); }),
            0u);
  EXPECT_EQ(CountAllocations([&] { rows = ask_each(first, first_ids); }),
            0u);
  EXPECT_EQ(rows, 0u);
}

TEST(FetchAllocTest, SerialBatchOfMissesAllocatesPerBatchNotPerQuery) {
  constexpr std::size_t kMisses = 64;
  InMemorySource source = MakeSource(2 * kMisses);
  const auto view = std::make_shared<const SourceView>(source.view());
  const ValueDictionaryPtr dict = std::make_shared<ValueDictionary>();
  // Distinct values the source stores only as Val: no two requests
  // coalesce, and every probe misses.
  auto misses = [&](std::size_t count) {
    runtime::FetchRound round;
    for (std::size_t i = 0; i < count; ++i) {
      const ValueId id =
          dict->Intern(Value::String(StrCat({"w", std::to_string(i)})));
      round.Add(/*channel=*/0, {&id, 1});
    }
    return round;
  };
  const runtime::FetchRound round = misses(kMisses);
  const runtime::FetchRound double_round = misses(2 * kMisses);
  ASSERT_EQ(source.Execute(KeyQuery(source, dict, "k0"))->size(), 1u);
  // The source's translation memo learns each id once per caller
  // dictionary, doubling its table as it fills (a logarithmic number of
  // allocations; see TranslationMemoGrowsLogarithmically). Teach it every
  // id first, so the rounds measure what a miss costs per query.
  for (std::size_t i = 0; i < double_round.size(); ++i) {
    SourceQuery query;
    query.positions = {0};
    const auto ids = double_round.IdsOf(i);
    query.ids.assign(ids.begin(), ids.end());
    query.dict = dict;
    ASSERT_TRUE(source.Execute(query).ok());
  }

  // A fresh scheduler and log per round: both pay the same first-sight
  // state. The round goes through the scheduler and into the log, as
  // the evaluator's commit loop writes a miss.
  auto round_allocations = [&](const runtime::FetchRound& requests) {
    runtime::FetchScheduler scheduler(runtime::RuntimeOptions{}, dict);
    scheduler.AddChannel(&source, {0});
    capability::AccessLog log;
    log.AddChannel(view, {0}, dict);
    runtime::FetchOutcomes out;
    const std::size_t allocations = CountAllocations([&] {
      scheduler.ExecuteRound(requests, &out);
      log.MakeRoomFor(requests.size(), requests.ids.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        log.Append(/*channel=*/0, /*round=*/0, requests.IdsOf(i),
                   out.RowsOf(i));
      }
    });
    EXPECT_EQ(out.size(), requests.size());
    for (const runtime::FetchOutcome& outcome : out.outcomes) {
      EXPECT_TRUE(outcome.ok());
      EXPECT_EQ(outcome.answer, runtime::FetchOutcome::kNone);
      EXPECT_EQ(outcome.attempts, 1u);
    }
    EXPECT_EQ(scheduler.report().total_attempts, requests.size());
    EXPECT_EQ(log.total_queries(), requests.size());
    EXPECT_EQ(log.productive_queries(), 0u);
    EXPECT_EQ(log.records().back().RenderedQuery(),
              StrCat({"v(w", std::to_string(requests.size() - 1), ", V)"}));
    return allocations;
  };
  const std::size_t single = round_allocations(round);
  const std::size_t twice = round_allocations(double_round);
  EXPECT_EQ(twice, single) << "a miss allocates "
                           << (double(twice) - double(single)) / kMisses
                           << " times per query";
}

}  // namespace
}  // namespace limcap
