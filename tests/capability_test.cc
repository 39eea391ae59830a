#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capability/access_log.h"
#include "capability/binding_pattern.h"
#include "capability/caching_source.h"
#include "capability/in_memory_source.h"
#include "capability/source_catalog.h"
#include "capability/source_view.h"
#include "common/string_util.h"

namespace limcap::capability {
namespace {

Value S(const char* text) { return Value::String(text); }

/// Builds a session-encoded query against `source`'s view; aborts on bad
/// attribute names (tests for rejection call SourceQuery::Make directly).
SourceQuery Q(const Source& source, const ValueDictionaryPtr& dict,
              std::vector<std::pair<std::string, Value>> bindings) {
  return SourceQuery::MakeUnsafe(source.view(), dict, std::move(bindings));
}

relational::Relation CdData() {
  relational::Relation data(
      relational::Schema::MakeUnsafe({"Cd", "Artist", "Price"}));
  data.InsertUnsafe({S("c1"), S("a1"), S("$15")});
  data.InsertUnsafe({S("c3"), S("a3"), S("$14")});
  return data;
}

TEST(BindingPatternTest, ParseAndPrint) {
  auto pattern = BindingPattern::Parse("bff");
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(pattern->arity(), 3u);
  EXPECT_TRUE(pattern->IsBound(0));
  EXPECT_TRUE(pattern->IsFree(1));
  EXPECT_EQ(pattern->ToString(), "bff");
  EXPECT_EQ(pattern->BoundPositions(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(pattern->FreePositions(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(pattern->bound_count(), 1u);
}

TEST(BindingPatternTest, ParseRejectsBadChars) {
  EXPECT_FALSE(BindingPattern::Parse("bxf").ok());
  EXPECT_TRUE(BindingPattern::Parse("").ok());
}

TEST(BindingPatternTest, AllFree) {
  BindingPattern pattern = BindingPattern::AllFree(3);
  EXPECT_EQ(pattern.ToString(), "fff");
  EXPECT_TRUE(pattern.BoundPositions().empty());
}

TEST(SourceViewTest, MakeChecksArity) {
  auto bad = SourceView::Make("v1", relational::Schema::MakeUnsafe({"A"}),
                              *BindingPattern::Parse("bf"));
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(SourceView::Make("", relational::Schema::MakeUnsafe({"A"}),
                                *BindingPattern::Parse("b"))
                   .ok());
}

TEST(SourceViewTest, AttributeSets) {
  SourceView view =
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff");
  EXPECT_EQ(view.BoundAttributes(), (AttributeSet{"Cd"}));
  EXPECT_EQ(view.FreeAttributes(), (AttributeSet{"Artist", "Price"}));
  EXPECT_EQ(view.Attributes(), (AttributeSet{"Artist", "Cd", "Price"}));
  EXPECT_EQ(view.ToString(), "v3(Cd, Artist, Price) [bff]");
}

TEST(SourceViewTest, RequirementsSatisfiedBy) {
  SourceView view = SourceView::MakeUnsafe("v4", {"Cd", "Artist"}, "fb");
  EXPECT_TRUE(view.RequirementsSatisfiedBy({"Artist"}));
  EXPECT_TRUE(view.RequirementsSatisfiedBy({"Artist", "Cd", "X"}));
  EXPECT_FALSE(view.RequirementsSatisfiedBy({"Cd"}));
  EXPECT_FALSE(view.RequirementsSatisfiedBy({}));
}

TEST(SourceViewTest, FormatQuery) {
  SourceView view =
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff");
  EXPECT_EQ(view.FormatQuery({{"Cd", S("c1")}}), "v3(c1, A, P)");
  EXPECT_EQ(view.FormatQuery({}), "v3(C, A, P)");
}

TEST(SourceQueryTest, MakeCanonicalizesAndValidates) {
  SourceView view =
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff");
  auto dict = std::make_shared<ValueDictionary>();
  // Supply order does not matter: positions come out ascending.
  auto a = SourceQuery::MakeUnsafe(view, dict,
                                   {{"Artist", S("a1")}, {"Cd", S("c1")}});
  auto b = SourceQuery::MakeUnsafe(view, dict,
                                   {{"Cd", S("c1")}, {"Artist", S("a1")}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.positions, (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(a.BindsPosition(0));
  EXPECT_FALSE(a.BindsPosition(2));
  EXPECT_EQ(a.Render(view), "v3(c1, a1, P)");
  // Unknown and duplicate attributes are rejected at construction.
  EXPECT_EQ(SourceQuery::Make(view, dict, {{"Xyz", S("a")}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SourceQuery::Make(view, dict, {{"Cd", S("c1")}, {"Cd", S("c2")}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(InMemorySourceTest, EnforcesBindingPattern) {
  InMemorySource source = InMemorySource::MakeUnsafe(
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"),
      CdData());
  auto dict = std::make_shared<ValueDictionary>();
  // Missing the must-bind attribute.
  auto denied = source.Execute(Q(source, dict, {{"Artist", S("a1")}}));
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kCapabilityViolation);
  // Satisfying query returns matching tuples, encoded against the
  // caller's dictionary.
  auto ok = source.Execute(Q(source, dict, {{"Cd", S("c1")}}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 1u);
  EXPECT_EQ(ok->dict_ptr(), dict);
  EXPECT_TRUE(ok->Contains({S("c1"), S("a1"), S("$15")}));
}

TEST(InMemorySourceTest, OverBindingIsAllowed) {
  InMemorySource source = InMemorySource::MakeUnsafe(
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"),
      CdData());
  auto dict = std::make_shared<ValueDictionary>();
  auto result = source.Execute(
      Q(source, dict, {{"Cd", S("c1")}, {"Artist", S("a9")}}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(InMemorySourceTest, AllFreeSourceReturnsEverything) {
  InMemorySource source = InMemorySource::MakeUnsafe(
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "fff"),
      CdData());
  auto result = source.Execute(Q(source, std::make_shared<ValueDictionary>(), {}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(InMemorySourceTest, SharedDictionaryAnswersWithoutTranslation) {
  auto dict = std::make_shared<ValueDictionary>();
  relational::Relation data(
      relational::Schema::MakeUnsafe({"Cd", "Artist", "Price"}), dict);
  data.InsertUnsafe({S("c1"), S("a1"), S("$15")});
  InMemorySource source = InMemorySource::MakeUnsafe(
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"),
      std::move(data));
  SourceQuery query = Q(source, dict, {{"Cd", S("c1")}});
  const uint64_t before = dict->translation_count();
  auto result = source.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
  // Catalog data already on the session dictionary: pure id flow.
  EXPECT_EQ(dict->translation_count(), before);
}

TEST(InMemorySourceTest, MakeRejectsSchemaMismatch) {
  auto bad = InMemorySource::Make(
      SourceView::MakeUnsafe("v1", {"A", "B"}, "bf"),
      relational::Relation(relational::Schema::MakeUnsafe({"A"})));
  EXPECT_FALSE(bad.ok());
}

TEST(SourceCatalogTest, RegisterAndFind) {
  SourceCatalog catalog;
  catalog.RegisterUnsafe(
      std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
          SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"),
          CdData())));
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog.Contains("v3"));
  EXPECT_FALSE(catalog.Contains("v9"));
  ASSERT_TRUE(catalog.Find("v3").ok());
  EXPECT_FALSE(catalog.Find("v9").ok());
  EXPECT_EQ(catalog.ViewNames(), (std::vector<std::string>{"v3"}));
  EXPECT_EQ(catalog.AllAttributes(),
            (AttributeSet{"Artist", "Cd", "Price"}));
  EXPECT_TRUE(catalog.HasAttribute("Artist"));
  EXPECT_FALSE(catalog.HasAttribute("Song"));
}

TEST(SourceCatalogTest, RejectsDuplicateNames) {
  SourceCatalog catalog;
  auto make = [] {
    return std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
        SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"),
        CdData()));
  };
  ASSERT_TRUE(catalog.Register(make()).ok());
  EXPECT_EQ(catalog.Register(make()).code(), StatusCode::kAlreadyExists);
}

TEST(CachingSourceTest, MemoizesByBindings) {
  CachingSource source(
      std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
          SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"),
          CdData())));
  auto dict = std::make_shared<ValueDictionary>();
  ASSERT_TRUE(source.Execute(Q(source, dict, {{"Cd", S("c1")}})).ok());
  ASSERT_TRUE(source.Execute(Q(source, dict, {{"Cd", S("c1")}})).ok());
  ASSERT_TRUE(source.Execute(Q(source, dict, {{"Cd", S("c3")}})).ok());
  EXPECT_EQ(source.hits(), 1u);
  EXPECT_EQ(source.misses(), 2u);
  EXPECT_EQ(source.ObservedTuples().size(), 2u);
}

// Regression: the cache key must canonicalize away both the order the
// bindings were supplied in and the session dictionary the query was
// encoded with — the same logical query always hits.
TEST(CachingSourceTest, HitInvariantToBindingOrderAndSession) {
  CachingSource source(
      std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
          SourceView::MakeUnsafe("v5", {"Cd", "Artist", "Price"}, "bbf"),
          CdData())));
  auto session1 = std::make_shared<ValueDictionary>();
  // Prime ids in an adversarial order so the two sessions assign
  // different ids to the same values.
  auto session2 = std::make_shared<ValueDictionary>();
  session2->Intern(S("zzz"));
  session2->Intern(S("a1"));

  ASSERT_TRUE(source
                  .Execute(Q(source, session1,
                             {{"Cd", S("c1")}, {"Artist", S("a1")}}))
                  .ok());
  EXPECT_EQ(source.misses(), 1u);
  // Same query, reversed supply order, same session: hit.
  ASSERT_TRUE(source
                  .Execute(Q(source, session1,
                             {{"Artist", S("a1")}, {"Cd", S("c1")}}))
                  .ok());
  EXPECT_EQ(source.hits(), 1u);
  // Same query from a different session (different ids): still a hit,
  // and the answer is re-keyed to the requesting session's dictionary.
  auto cross = source.Execute(
      Q(source, session2, {{"Artist", S("a1")}, {"Cd", S("c1")}}));
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(source.hits(), 2u);
  EXPECT_EQ(source.misses(), 1u);
  EXPECT_EQ(cross->dict_ptr(), session2);
  EXPECT_TRUE(cross->Contains({S("c1"), S("a1"), S("$15")}));
}

TEST(CachingSourceTest, DoesNotCacheErrors) {
  CachingSource source(
      std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
          SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"),
          CdData())));
  EXPECT_FALSE(
      source.Execute(Q(source, std::make_shared<ValueDictionary>(), {}))
          .ok());
  EXPECT_EQ(source.misses(), 0u);
}

TEST(AccessLogTest, CountersAndTrace) {
  auto dict = std::make_shared<ValueDictionary>();
  auto v1 = std::make_shared<const SourceView>(
      SourceView::MakeUnsafe("v1", {"Song", "Cd"}, "bf"));
  auto v3 = std::make_shared<const SourceView>(
      SourceView::MakeUnsafe("v3", {"Cd", "Artist", "Price"}, "bff"));
  AccessLog log;
  const SourceQuery q1 = SourceQuery::MakeUnsafe(*v1, dict, {{"Song", S("t1")}});
  const SourceQuery q3 = SourceQuery::MakeUnsafe(*v3, dict, {{"Cd", S("c9")}});
  const uint32_t c1 = log.AddChannel(v1, q1.positions, dict);
  const uint32_t c3 = log.AddChannel(v3, q3.positions, dict);
  const relational::IdRow t1c1 = {dict->Intern(S("t1")), dict->Intern(S("c1"))};
  log.Append(c1, /*round=*/0, q1.ids, /*tuples_returned=*/1);
  log.AddReturned(t1c1);
  log.AddNewBinding(/*position=*/1, dict->Intern(S("c1")));
  log.Append(c3, /*round=*/0, q3.ids, /*tuples_returned=*/0);
  log.Append(c1, /*round=*/0, q1.ids, /*tuples_returned=*/1);
  log.AddReturned(t1c1);
  log.AddNewBinding(/*position=*/1, dict->Intern(S("c1")));

  EXPECT_EQ(log.total_queries(), 3u);
  EXPECT_EQ(log.QueriesTo("v1"), 2u);
  EXPECT_EQ(log.QueriesTo("v3"), 1u);
  EXPECT_EQ(log.productive_queries(), 2u);
  EXPECT_EQ(log.total_tuples_returned(), 2u);
  auto counts = log.PerSourceCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "v1");
  EXPECT_EQ(counts[0].second, 2u);

  std::string full = log.ToTable(/*productive_only=*/false);
  std::string productive = log.ToTable(/*productive_only=*/true);
  EXPECT_NE(full.find("v3(c9, A, P)"), std::string::npos);
  EXPECT_EQ(productive.find("v3(c9, A, P)"), std::string::npos);
  EXPECT_NE(productive.find("<t1, c1>"), std::string::npos);
  EXPECT_NE(productive.find("Cd = c1"), std::string::npos);

  log.Clear();
  EXPECT_EQ(log.total_queries(), 0u);
}

TEST(AccessLogTest, LazyRecordsRenderOnDemand) {
  auto view = std::make_shared<const SourceView>(
      SourceView::MakeUnsafe("v1", {"Song", "Cd"}, "bf"));
  auto dict = std::make_shared<ValueDictionary>();
  const SourceQuery query =
      SourceQuery::MakeUnsafe(*view, dict, {{"Song", S("t1")}});
  const relational::IdRow returned = {dict->Intern(S("t1")),
                                      dict->Intern(S("c1"))};
  const ValueId c1 = dict->Intern(S("c1"));

  AccessLog lazy;
  const uint64_t before = dict->translation_count();
  const uint32_t channel = lazy.AddChannel(view, query.positions, dict);
  lazy.Append(channel, /*round=*/0, query.ids, /*tuples_returned=*/1);
  lazy.AddReturned(returned);
  lazy.AddNewBinding(/*position=*/1, c1);
  // Lazy recording touches the dictionary not at all...
  EXPECT_EQ(dict->translation_count(), before);
  // ...and the strings render on demand.
  const AccessRecord stored = lazy.records().front();
  EXPECT_EQ(stored.source(), "v1");
  EXPECT_EQ(stored.new_tuples(), 1u);
  EXPECT_EQ(stored.RenderedQuery(), "v1(t1, C)");
  EXPECT_EQ(stored.ReturnedRendered(),
            (std::vector<std::string>{"<t1, c1>"}));
  EXPECT_EQ(stored.NewBindings(), (std::vector<std::string>{"Cd = c1"}));
  std::string table = lazy.ToTable(/*productive_only=*/false);
  EXPECT_NE(table.find("v1(t1, C)"), std::string::npos);
  EXPECT_NE(table.find("Cd = c1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// InMemorySource's translation memo: a source with its own dictionary
// remembers, per caller dictionary, which local id each caller id maps to.
// Its answers must equal the un-memoized lookup's: a fresh source per
// query, whose memo has never seen the dictionary.
// ---------------------------------------------------------------------------

/// v(Key, Val) [bf] over (k<i>, w<i>) for i < 8, in the source's own
/// dictionary.
InMemorySource MakeKeyedSource() {
  relational::Relation data(relational::Schema::MakeUnsafe({"Key", "Val"}));
  for (int i = 0; i < 8; ++i) {
    data.InsertUnsafe({Value::String(StrCat({"k", std::to_string(i)})),
                       Value::String(StrCat({"w", std::to_string(i)}))});
  }
  return InMemorySource::MakeUnsafe(
      SourceView::MakeUnsafe("v", {"Key", "Val"}, "bf"), std::move(data));
}

/// The rows `source` answers for Key = `key` in `dict`, and what a fresh
/// source (nothing memoized) answers for the same query.
std::pair<std::vector<relational::Row>, std::vector<relational::Row>>
AnswerAndReference(InMemorySource& source, const ValueDictionaryPtr& dict,
                   const std::string& key) {
  const SourceQuery query = Q(source, dict, {{"Key", Value::String(key)}});
  auto answer = source.Execute(query);
  InMemorySource fresh = MakeKeyedSource();
  auto reference = fresh.Execute(query);
  EXPECT_TRUE(answer.ok() && reference.ok());
  return {answer->DecodedRows(), reference->DecodedRows()};
}

TEST(TranslationMemoTest, AlternatingSessionDictionariesAnswerAsUnmemoized) {
  InMemorySource source = MakeKeyedSource();
  // The same ids name different values in the two dictionaries, so a memo
  // answered for the wrong dictionary would return the wrong rows.
  auto first = std::make_shared<ValueDictionary>();
  auto second = std::make_shared<ValueDictionary>();
  // Enough keys that the memo's table grows and its probe chains cross
  // each other's slots as the two dictionaries take it over in turn.
  std::vector<std::string> keys = {"k1", "zz", "k5", "w2", "k0", "k7"};
  for (int i = 0; i < 40; ++i) {
    keys.push_back(StrCat({"f", std::to_string(i)}));
    if (i % 8 == 3) keys.push_back(StrCat({"k", std::to_string(i / 8 + 2)}));
  }
  for (const std::string& key : keys) first->Intern(Value::String(key));
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    second->Intern(Value::String(*it));
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& key : keys) {
      for (const ValueDictionaryPtr& dict : {first, second}) {
        auto [answer, reference] = AnswerAndReference(source, dict, key);
        EXPECT_EQ(answer, reference) << key << " pass " << pass;
      }
    }
  }
  EXPECT_EQ(AnswerAndReference(source, first, "k5").first,
            (std::vector<relational::Row>{{S("k5"), S("w5")}}));
  // In bursts, as serve workers interleave their calls to one source: a
  // dictionary that comes back finds the slots of its old entries partly
  // overwritten, and must neither read them nor miscount its load.
  std::size_t next_first = 0;
  std::size_t next_second = 0;
  for (int burst = 0; burst < 120; ++burst) {
    const bool on_first = burst % 2 == 0;
    for (int call = 0; call < (on_first ? 1 + burst % 9 : 1); ++call) {
      std::size_t& next = on_first ? next_first : next_second;
      const std::string& key = keys[next++ % keys.size()];
      auto [answer, reference] =
          AnswerAndReference(source, on_first ? first : second, key);
      EXPECT_EQ(answer, reference) << key << " burst " << burst;
    }
  }

  // Serve workers answer through one source from several threads, each
  // on its own session dictionary (Execute serializes them).
  std::vector<std::thread> workers;
  std::vector<int> mismatches(4, 0);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      auto dict = std::make_shared<ValueDictionary>();
      for (int round = 0; round < 50; ++round) {
        const std::string key = StrCat({"k", std::to_string((round + w) % 10)});
        const SourceQuery query =
            Q(source, dict, {{"Key", Value::String(key)}});
        auto answer = source.Execute(query);
        const bool expect_row = (round + w) % 10 < 8;
        if (!answer.ok() || answer->size() != (expect_row ? 1u : 0u) ||
            (expect_row &&
             answer->DecodedRows()[0][0] != Value::String(key))) {
          ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(TranslationMemoTest, FreedDictionaryAtTheSameAddressIsNotAHit) {
  InMemorySource source = MakeKeyedSource();
  // Dictionaries built in one slot, so a new one has the freed one's
  // address; the shared pointers do not own it.
  std::optional<ValueDictionary> slot;
  auto in_slot = [&] {
    return ValueDictionaryPtr(&*slot, [](ValueDictionary*) {});
  };
  slot.emplace();
  slot->Intern(S("k3"));  // id 0
  slot->Intern(S("k4"));  // id 1
  {
    auto [answer, reference] = AnswerAndReference(source, in_slot(), "k4");
    EXPECT_EQ(answer, reference);
    EXPECT_EQ(answer, (std::vector<relational::Row>{{S("k4"), S("w4")}}));
  }
  const uint64_t freed_identity = slot->identity();
  slot.reset();
  slot.emplace();
  EXPECT_NE(slot->identity(), freed_identity);
  slot->Intern(S("zz"));  // id 0: unknown to the source
  slot->Intern(S("k6"));  // id 1
  for (const char* key : {"zz", "k6", "k3"}) {
    auto [answer, reference] = AnswerAndReference(source, in_slot(), key);
    EXPECT_EQ(answer, reference) << key;
  }
  EXPECT_EQ(AnswerAndReference(source, in_slot(), "k6").first,
            (std::vector<relational::Row>{{S("k6"), S("w6")}}));

  // A move replaces the contents under one address, too.
  const uint64_t before_move = slot->identity();
  ValueDictionary replacement;
  replacement.Intern(S("k2"));  // id 0
  replacement.Intern(S("k1"));  // id 1
  *slot = std::move(replacement);
  EXPECT_NE(slot->identity(), before_move);
  for (const char* key : {"k1", "k2"}) {
    auto [answer, reference] = AnswerAndReference(source, in_slot(), key);
    EXPECT_EQ(answer, reference) << key;
    EXPECT_EQ(answer.size(), 1u) << key;
  }
}

}  // namespace
}  // namespace limcap::capability
