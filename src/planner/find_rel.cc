#include "planner/find_rel.h"

#include <algorithm>

#include "common/string_util.h"

namespace limcap::planner {

namespace {

std::string SetToString(const std::set<std::string>& items) {
  return "{" + JoinMapped(items, ", ", [](const std::string& s) { return s; }) +
         "}";
}

/// FIND_REL's per-query state, shared by every connection: the closure
/// index over all views (attributes folded to domain representatives, so
/// the analysis follows binding flow through shared domains — with
/// distinct domains this is the paper's attribute-level algorithm), and
/// V_q = f-closure(I(Q) ∪ seeded, V).
struct RelevanceContext {
  ClosureIndex index;
  ClosureIndex::Forward queryable;
  std::vector<std::string> queryable_names;
};

RelevanceContext MakeRelevanceContext(const Query& query,
                                      const std::vector<SourceView>& views,
                                      const DomainMap& domains,
                                      const AttributeSet& seeded_attributes) {
  RelevanceContext context{
      ClosureIndex(views, domains, query.InputAttributes()), {}, {}};
  ClosureIndex& index = context.index;
  std::vector<AttributeId> initial;
  for (const std::string& input : query.InputAttributes()) {
    initial.push_back(index.Representative(index.FindAttribute(input)));
  }
  // A seeded attribute outside the views and the query is its own domain.
  for (const std::string& seeded : seeded_attributes) {
    initial.push_back(index.Representative(index.AddAttribute(seeded)));
  }
  context.queryable = index.ForwardClosure(initial);
  for (ViewId v : context.queryable.order) {
    context.queryable_names.push_back(index.ViewName(v));
  }
  return context;
}

/// FIND_REL's steps 2-4 for one connection, over the shared context.
Result<FindRelReport> RunFindRel(const RelevanceContext& context,
                                 const Query& query,
                                 const Connection& connection) {
  const ClosureIndex& index = context.index;
  FindRelReport report;
  report.queryable_views = context.queryable_names;

  // Step 1 (V_q) is shared: the connection is queryable when V_q holds
  // each of its views.
  std::vector<ViewId> views;
  for (const std::string& name : connection.view_names()) {
    const ViewId v = index.FindView(name);
    if (v == ClosureIndex::kNone) {
      return Status::InvalidArgument("connection " + connection.ToString() +
                                     " references unknown view: " + name);
    }
    views.push_back(v);
  }
  report.connection_queryable =
      std::all_of(views.begin(), views.end(),
                  [&](ViewId v) { return context.queryable.contains[v]; });
  if (!report.connection_queryable) return report;

  // Step 2: a kernel of the connection.
  //
  // The kernel's input set is subtler than queryability's: an input
  // assignment a = c pins attribute a in the complete answer, so a's
  // domain needs no further external values — *unless* the domain also
  // occurs in the connection as a different attribute b. Then b is not
  // pinned by the selection, extra domain values retrieve extra answer
  // tuples, and the domain must stay kernel-eligible (its feeders are
  // relevant). Under Section 5's distinct-domain assumption this reduces
  // to I(Q) exactly.
  std::vector<AttributeId> kernel_inputs;
  for (const std::string& name : query.InputAttributes()) {
    const AttributeId input = index.FindAttribute(name);
    const AttributeId domain = index.Representative(input);
    const bool constrains =
        std::none_of(views.begin(), views.end(), [&](ViewId v) {
          std::span<const AttributeId> attributes = index.ViewAttributes(v);
          return std::any_of(attributes.begin(), attributes.end(),
                             [&](AttributeId b) {
                               return b != input &&
                                      index.Representative(b) == domain;
                             });
        });
    if (constrains) kernel_inputs.push_back(domain);
  }
  std::vector<AttributeId> kernel = index.Kernel(kernel_inputs, views);
  for (AttributeId a : kernel) report.kernel.insert(index.AttributeName(a));
  report.independent = kernel.empty();

  // Step 3: its backward-closure over the queryable views.
  std::vector<bool> bclosure =
      index.BackwardClosure(kernel, context.queryable.contains);
  for (ViewId v = 0; v < bclosure.size(); ++v) {
    if (bclosure[v]) report.kernel_bclosure.insert(index.ViewName(v));
  }

  // Step 4: relevant = b-closure(kernel) ∪ T.
  report.relevant_views = report.kernel_bclosure;
  for (const std::string& name : connection.view_names()) {
    report.relevant_views.insert(name);
  }
  return report;
}

}  // namespace

std::string FindRelReport::ToString() const {
  std::string out;
  out += "queryable views (V_q): {" + Join(queryable_views, ", ") + "}\n";
  if (!connection_queryable) {
    out += "connection is NOT queryable: no answers obtainable\n";
    return out;
  }
  out += std::string("independent: ") + (independent ? "yes" : "no") + "\n";
  out += "kernel: " + SetToString(kernel) + "\n";
  out += "b-closure(kernel): " + SetToString(kernel_bclosure) + "\n";
  out += "relevant views: " + SetToString(relevant_views) + "\n";
  return out;
}

Result<FindRelReport> FindRelevantViews(const Query& query,
                                        const Connection& connection,
                                        const std::vector<SourceView>& views,
                                        const DomainMap& domains,
                                        const AttributeSet& seeded_attributes) {
  return RunFindRel(
      MakeRelevanceContext(query, views, domains, seeded_attributes), query,
      connection);
}

std::string QueryRelevance::ToString() const {
  std::string out;
  out += "queryable views: {" + Join(queryable_views, ", ") + "}\n";
  for (const Connection& connection : dropped_connections) {
    out += "dropped (nonqueryable): " + connection.ToString() + "\n";
  }
  for (const Connection& connection : queryable_connections) {
    const FindRelReport& report = reports.at(connection.ToString());
    out += "connection " + connection.ToString() +
           (report.independent ? " [independent]" : "") + ": relevant = " +
           SetToString(report.relevant_views) + "\n";
  }
  out += "V_r = " + SetToString(relevant_union) + "\n";
  return out;
}

Result<QueryRelevance> AnalyzeQueryRelevance(const Query& query,
                                             const std::vector<SourceView>& views,
                                             const DomainMap& domains,
                                             const AttributeSet& seeded_attributes,
                                             obs::Tracer* tracer) {
  obs::ScopedSpan relevance_span(tracer, "plan.relevance");
  QueryRelevance relevance;
  const RelevanceContext context =
      MakeRelevanceContext(query, views, domains, seeded_attributes);
  relevance.queryable_views = context.queryable_names;

  for (const Connection& connection : query.connections()) {
    obs::ScopedSpan find_rel_span(tracer, "plan.find_rel",
                                  connection.ToString());
    LIMCAP_ASSIGN_OR_RETURN(FindRelReport report,
                            RunFindRel(context, query, connection));
    find_rel_span.Counter("kernel_size",
                          static_cast<double>(report.kernel.size()));
    find_rel_span.Counter("relevant_views",
                          static_cast<double>(report.relevant_views.size()));
    find_rel_span.Counter("queryable",
                          report.connection_queryable ? 1 : 0);
    if (!report.connection_queryable) {
      relevance.dropped_connections.push_back(connection);
      continue;
    }
    relevance.queryable_connections.push_back(connection);
    relevance.relevant_union.insert(report.relevant_views.begin(),
                                    report.relevant_views.end());
    relevance.reports.emplace(connection.ToString(), std::move(report));
  }
  return relevance;
}

}  // namespace limcap::planner
