// Example 1.1 from the paper: comparing two Web bookstores that cannot be
// scanned.
//
// amazon and bn only answer queries that bind an author (amazon) or a
// title (bn); neither accepts "return all your books". prenhall exports
// the authors of one publisher. Starting from the single binding
// Publisher = prentice_hall, the planner discovers that prenhall's
// authors unlock amazon, amazon's titles unlock bn, and bn's co-authors
// unlock amazon again — the repeated-access iteration the paper's
// footnote describes — and the Datalog evaluation drives it to fixpoint.

#include <cstdio>
#include <memory>

#include "capability/in_memory_source.h"
#include "exec/query_answerer.h"
#include "planner/query.h"

namespace {

using limcap::Value;
using limcap::capability::InMemorySource;
using limcap::capability::SourceCatalog;
using limcap::capability::SourceView;
using limcap::planner::Connection;
using limcap::planner::Query;
using limcap::relational::Relation;
using limcap::relational::Row;

Value S(const char* text) { return Value::String(text); }
Value I(int64_t v) { return Value::Int64(v); }

void AddSource(SourceCatalog* catalog, const char* name,
               std::vector<std::string> attributes, const char* pattern,
               std::vector<Row> rows) {
  SourceView view = SourceView::MakeUnsafe(name, std::move(attributes),
                                           pattern);
  Relation data(view.schema());
  for (auto& row : rows) data.InsertUnsafe(std::move(row));
  catalog->RegisterUnsafe(std::make_unique<InMemorySource>(
      InMemorySource::MakeUnsafe(view, std::move(data))));
}

double Average(const Relation& prices) {
  if (prices.empty()) return 0;
  double sum = 0;
  for (const Row& row : prices.DecodedRows()) sum += double(row[0].int64());
  return sum / double(prices.size());
}

}  // namespace

int main() {
  SourceCatalog catalog;
  // prenhall.com: authors by publisher; a query must name the publisher.
  AddSource(&catalog, "prenhall", {"Publisher", "Author"}, "bf",
            {{S("prentice_hall"), S("ullman")},
             {S("prentice_hall"), S("widom")}});
  // amazon: must bind the author.
  AddSource(&catalog, "amazon", {"Author", "Title", "PriceA"}, "bff",
            {{S("ullman"), S("database_systems"), I(95)},
             {S("ullman"), S("automata_theory"), I(88)},
             {S("widom"), S("first_course_db"), I(70)},
             // Only reachable after bn reveals garcia as a co-author:
             {S("garcia"), S("distributed_dbs"), I(110)},
             // Never reachable: no chain of bindings leads to this author.
             {S("hidden_author"), S("secret_book"), I(9999)}});
  // bn: must bind the title; exposes (possibly different) authors.
  AddSource(&catalog, "bn", {"Title", "Author", "PriceB"}, "bff",
            {{S("database_systems"), S("garcia"), I(89)},
             {S("first_course_db"), S("widom"), I(72)},
             {S("distributed_dbs"), S("garcia"), I(99)}});

  limcap::planner::DomainMap domains;
  limcap::exec::QueryAnswerer answerer(&catalog, domains);

  // Average price at amazon for books reachable from the publisher.
  Query amazon_query({{"Publisher", S("prentice_hall")}}, {"PriceA"},
                     {Connection({"prenhall", "amazon"})});
  // Average price at bn. The connection {prenhall, bn} is NOT independent
  // (nothing in it binds Title); FIND_REL pulls amazon in as a relevant
  // off-connection view.
  Query bn_query({{"Publisher", S("prentice_hall")}}, {"PriceB"},
                 {Connection({"prenhall", "bn"})});

  auto amazon_report = answerer.Answer(amazon_query);
  auto bn_report = answerer.Answer(bn_query);
  if (!amazon_report.ok() || !bn_report.ok()) {
    std::fprintf(stderr, "error: %s %s\n",
                 amazon_report.status().ToString().c_str(),
                 bn_report.status().ToString().c_str());
    return 1;
  }

  std::printf("== relevant-view analysis for the bn connection ==\n%s\n",
              bn_report->plan->relevance.ToString().c_str());
  std::printf("== source-access trace for the bn query ==\n%s\n",
              bn_report->exec.log.ToTable(/*productive_only=*/false).c_str());

  std::printf("amazon prices: %s  (avg %.2f over %zu books)\n",
              amazon_report->exec.answer.ToString().c_str(),
              Average(amazon_report->exec.answer),
              amazon_report->exec.answer.size());
  std::printf("bn prices:     %s  (avg %.2f over %zu books)\n",
              bn_report->exec.answer.ToString().c_str(),
              Average(bn_report->exec.answer), bn_report->exec.answer.size());
  std::printf(
      "\nnote: hidden_author's $9999 book is priced at neither store's "
      "answer —\nno chain of bindings reaches it, exactly as the binding "
      "assumptions require.\n");
  return 0;
}
