#include <gtest/gtest.h>

#include <memory>

#include "capability/in_memory_source.h"
#include "capability/renaming_source.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"

namespace limcap {
namespace {

using capability::InMemorySource;
using capability::RenamingSource;
using capability::SourceCatalog;
using capability::SourceQuery;
using capability::SourceView;
using relational::Relation;

Value S(const char* text) { return Value::String(text); }

TEST(PerConnectionAnswersTest, Example21Provenance) {
  // Which of the four joins produced each price?
  auto example = paperdata::MakeExample21();
  exec::ExecOptions options;
  options.builder.per_connection_goals = true;
  exec::QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->exec.answer.size(), 3u);  // provenance adds no answers

  auto per_connection = exec::PerConnectionAnswers(
      report->exec, report->plan->relevance.queryable_connections,
      example.query, options.builder);
  ASSERT_TRUE(per_connection.ok()) << per_connection.status();
  ASSERT_EQ(per_connection->size(), 4u);
  // $15 from v1⋈v3, $13 from v1⋈v4, $10 from v2⋈v4, nothing from v2⋈v3.
  EXPECT_TRUE(per_connection->at("{v1, v3}").Contains({S("$15")}));
  EXPECT_EQ(per_connection->at("{v1, v3}").size(), 1u);
  EXPECT_TRUE(per_connection->at("{v1, v4}").Contains({S("$13")}));
  EXPECT_TRUE(per_connection->at("{v2, v4}").Contains({S("$10")}));
  EXPECT_TRUE(per_connection->at("{v2, v3}").empty());
  // The union of the per-connection answers is the answer.
  std::size_t total = 0;
  relational::Relation united(report->exec.answer.schema());
  for (const auto& [name, relation] : *per_connection) {
    total += relation.size();
    for (const auto& row : relation.DecodedRows()) united.InsertUnsafe(row);
  }
  EXPECT_GE(total, report->exec.answer.size());
  EXPECT_TRUE(united == report->exec.answer);
}

TEST(PerConnectionAnswersTest, DisabledByDefault) {
  auto example = paperdata::MakeExample21();
  exec::QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok());
  auto per_connection = exec::PerConnectionAnswers(
      report->exec, report->plan->relevance.queryable_connections,
      example.query);
  // Without the option the tagged predicates never exist: all empty.
  ASSERT_TRUE(per_connection.ok());
  for (const auto& [name, relation] : *per_connection) {
    EXPECT_TRUE(relation.empty());
  }
}

TEST(RenamingSourceTest, TranslatesQueriesAndSchemas) {
  // A source speaking its own vocabulary: werk(Titel, Preis) [bf].
  SourceView local = SourceView::MakeUnsafe("werk", {"Titel", "Preis"}, "bf");
  Relation data(local.schema());
  data.InsertUnsafe({S("faust"), S("12")});
  data.InsertUnsafe({S("woyzeck"), S("9")});
  auto renamed = RenamingSource::Make(
      std::make_unique<InMemorySource>(
          InMemorySource::MakeUnsafe(local, std::move(data))),
      {{"Titel", "Title"}, {"Preis", "Price"}}, "books_de");
  ASSERT_TRUE(renamed.ok()) << renamed.status();
  EXPECT_EQ(renamed->view().ToString(), "books_de(Title, Price) [bf]");

  auto dict = std::make_shared<ValueDictionary>();
  auto result = renamed->Execute(SourceQuery::MakeUnsafe(
      renamed->view(), dict, {{"Title", S("faust")}}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({S("faust"), S("12")}));
  EXPECT_EQ(result->schema().attributes(),
            (std::vector<std::string>{"Title", "Price"}));
  // Capability enforcement passes through.
  EXPECT_FALSE(
      renamed->Execute(SourceQuery::MakeUnsafe(renamed->view(), dict, {}))
          .ok());
  // Unknown (old) attribute names are rejected when the query is built
  // against the wrapper's exported (global) schema.
  EXPECT_FALSE(
      SourceQuery::Make(renamed->view(), dict, {{"Titel", S("faust")}}).ok());
}

TEST(RenamingSourceTest, RejectsCollidingRenames) {
  SourceView local = SourceView::MakeUnsafe("w", {"A", "B"}, "bf");
  Relation data(local.schema());
  auto bad = RenamingSource::Make(
      std::make_unique<InMemorySource>(
          InMemorySource::MakeUnsafe(local, std::move(data))),
      {{"A", "X"}, {"B", "X"}});
  EXPECT_FALSE(bad.ok());
}

TEST(RenamingSourceTest, IntegratesIntoCatalog) {
  // Two bookstores with different vocabularies, unified by wrappers and
  // joined through the shared global attribute Title.
  SourceCatalog catalog;
  SourceView en = SourceView::MakeUnsafe("en", {"Title", "PriceUS"}, "bf");
  Relation en_data(en.schema());
  en_data.InsertUnsafe({S("faust"), S("14")});
  catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
      InMemorySource::MakeUnsafe(en, std::move(en_data))));

  SourceView de = SourceView::MakeUnsafe("werk", {"Titel", "Preis"}, "bf");
  Relation de_data(de.schema());
  de_data.InsertUnsafe({S("faust"), S("12")});
  auto wrapped = RenamingSource::Make(
      std::make_unique<InMemorySource>(
          InMemorySource::MakeUnsafe(de, std::move(de_data))),
      {{"Titel", "Title"}, {"Preis", "PriceDE"}}, "de");
  ASSERT_TRUE(wrapped.ok());
  catalog.RegisterUnsafe(
      std::make_unique<RenamingSource>(std::move(wrapped).value()));

  planner::Query query({{"Title", S("faust")}}, {"PriceUS", "PriceDE"},
                       {planner::Connection({"en", "de"})});
  exec::QueryAnswerer answerer(&catalog, planner::DomainMap());
  auto report = answerer.Answer(query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->exec.answer.size(), 1u);
  EXPECT_TRUE(report->exec.answer.Contains({S("14"), S("12")}));
}

}  // namespace
}  // namespace limcap
