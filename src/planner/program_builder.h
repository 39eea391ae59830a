#ifndef LIMCAP_PLANNER_PROGRAM_BUILDER_H_
#define LIMCAP_PLANNER_PROGRAM_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "capability/source_view.h"
#include "common/result.h"
#include "datalog/ast.h"
#include "planner/domain_map.h"
#include "planner/query.h"
#include "relational/relation.h"

namespace limcap::planner {

using capability::SourceView;

/// Naming knobs for the generated program.
struct BuilderOptions {
  /// Name of the goal predicate holding the query answer.
  std::string goal_predicate = "ans";
  /// The alpha-predicate of view v is named v.name() + alpha_suffix; the
  /// default renders as the paper's v̂ ("v1^").
  std::string alpha_suffix = "^";
  /// When set, each connection additionally gets a tagged goal
  /// `ans$c<k>` (k = the connection's position in the query) fed by the
  /// same bodies as the main goal — per-connection provenance for the
  /// answers, read back with exec::PerConnectionAnswers.
  bool per_connection_goals = false;
  /// PlanQuery decomposes rules with more body atoms than this into
  /// chains of binary joins over deduplicated auxiliary predicates
  /// (supplementary relations). Without this, a k-view connection rule
  /// enumerates every join path — exponential in k on chain catalogs.
  /// The threshold leaves the paper's figures (bodies of ≤ 2 atoms)
  /// untouched. 0 disables decomposition.
  std::size_t max_rule_body_atoms = 3;
};

/// True when `name` is the goal predicate `goal` or a tagged goal
/// `goal$...` (the per-connection goals `goal$c<k>` are output predicates
/// in their own right). The one goal test every pass shares.
bool IsGoalPredicate(std::string_view name, std::string_view goal);

/// Builds the Datalog program Π(Q, V) of Section 3.1 from query `query`
/// and the adorned views `views`:
///
///  1. a connection rule per connection in Q (input attributes replaced by
///     their initial values; one rule per combination when an attribute
///     has several input values),
///  2. the alpha-rule and the domain rules of every view in `views`,
///  3. a fact rule per input assignment.
///
/// The returned program is safe (Proposition 3.1); its only EDB predicates
/// are the view predicates. Fails when a connection references a view not
/// present in `views` — when building the optimized Π(Q, V_r), pass a
/// query whose non-queryable connections were already dropped.
Result<datalog::Program> BuildProgram(const Query& query,
                                      const std::vector<SourceView>& views,
                                      const DomainMap& domains,
                                      const BuilderOptions& options = {});

/// Section 7.1, cached data: appends the fact rules for a cached tuple of
/// `view` — one alpha-predicate fact plus a domain fact per attribute.
Status AddCachedTupleRules(const SourceView& view, const relational::Row& row,
                           const DomainMap& domains,
                           const BuilderOptions& options,
                           datalog::Program* program);

/// Section 7.1, domain knowledge: appends the fact rule dom(value) for a
/// known member of `attribute`'s domain (e.g. the four known departments).
void AddDomainKnowledgeRule(const std::string& attribute, const Value& value,
                            const DomainMap& domains,
                            datalog::Program* program);

/// The alpha-predicate name of a view under `options`.
std::string AlphaPredicate(const SourceView& view,
                           const BuilderOptions& options);

/// The rule variable used for an attribute (the attribute name, prefixed
/// when it would not parse as a variable).
std::string AttributeVariable(const std::string& attribute);

}  // namespace limcap::planner

#endif  // LIMCAP_PLANNER_PROGRAM_BUILDER_H_
