#include <gtest/gtest.h>

#include <memory>

#include "capability/access_log.h"
#include "capability/binding_pattern.h"
#include "capability/caching_source.h"
#include "capability/in_memory_source.h"
#include "capability/source_catalog.h"
#include "capability/source_view.h"

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
  AccessRecord r1;
  r1.source = "v1";
  r1.view = v1;
  r1.query = SourceQuery::MakeUnsafe(*v1, dict, {{"Song", S("t1")}});
  r1.tuples_returned = 1;
  r1.new_tuples = 1;
  r1.returned_ids = {{dict->Intern(S("t1")), dict->Intern(S("c1"))}};
  r1.new_binding_ids = {{"Cd", dict->Intern(S("c1"))}};
  log.Record(r1);
  AccessRecord r2;
  r2.source = "v3";
  r2.view = v3;
  r2.query = SourceQuery::MakeUnsafe(*v3, dict, {{"Cd", S("c9")}});
  r2.tuples_returned = 0;
  log.Record(r2);
  AccessRecord r3 = r1;
  log.Record(r3);

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
  AccessRecord record;
  record.source = "v1";
  record.query = SourceQuery::MakeUnsafe(*view, dict, {{"Song", S("t1")}});
  record.view = view;
  record.tuples_returned = 1;
  record.new_tuples = 1;
  record.returned_ids = {{dict->Intern(S("t1")), dict->Intern(S("c1"))}};
  record.new_binding_ids = {{"Cd", dict->Intern(S("c1"))}};

  AccessLog lazy;
  const uint64_t before = dict->translation_count();
  lazy.Record(record);
  // Lazy recording touches the dictionary not at all...
  EXPECT_EQ(dict->translation_count(), before);
  // ...and the strings render on demand.
  const AccessRecord& stored = lazy.records().front();
  EXPECT_EQ(stored.RenderedQuery(), "v1(t1, C)");
  EXPECT_EQ(stored.ReturnedRendered(),
            (std::vector<std::string>{"<t1, c1>"}));
  EXPECT_EQ(stored.NewBindings(), (std::vector<std::string>{"Cd = c1"}));
  std::string table = lazy.ToTable(/*productive_only=*/false);
  EXPECT_NE(table.find("v1(t1, C)"), std::string::npos);
  EXPECT_NE(table.find("Cd = c1"), std::string::npos);
}

}  // namespace
}  // namespace limcap::capability
