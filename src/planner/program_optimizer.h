#ifndef LIMCAP_PLANNER_PROGRAM_OPTIMIZER_H_
#define LIMCAP_PLANNER_PROGRAM_OPTIMIZER_H_

#include <string>
#include <vector>

#include "capability/source_view.h"
#include "common/result.h"
#include "datalog/ast.h"
#include "planner/domain_map.h"
#include "planner/find_rel.h"
#include "planner/program_builder.h"
#include "planner/query.h"

namespace limcap::planner {

/// The outcome of useless-rule elimination (Section 6).
struct OptimizedProgram {
  datalog::Program program;
  std::vector<datalog::Rule> removed_rules;
};

/// Removes the useless rules of `program` (Section 6): repeatedly drops
/// any non-connection rule whose head predicate is used by no other rule
/// of the program, which converges to keeping exactly the rules whose head
/// is the goal or is reachable from the goal in the predicate dependency
/// graph. The answer of the program is unchanged.
OptimizedProgram RemoveUselessRules(const datalog::Program& program,
                                    const std::string& goal_predicate);

/// Decomposes every rule whose body exceeds `max_body_atoms` into a
/// left-deep chain of binary-join rules through auxiliary predicates
/// ("supplementary relations"): each auxiliary keeps exactly the
/// variables still needed by later atoms or the head, so set-semantics
/// deduplication collapses the join's path multiplicity. Semantics are
/// preserved; evaluation of long connection rules drops from exponential
/// path enumeration to polynomial frontier sizes. `max_body_atoms` < 2 is
/// treated as "disabled".
datalog::Program DecomposeWideRules(datalog::Program program,
                                    std::size_t max_body_atoms,
                                    const std::string& aux_prefix = "aux");

/// The full Section 6 pipeline, with each stage's output exposed (the
/// ablation bench measures the stages separately):
///   1. AnalyzeQueryRelevance: V_q, dropped connections, FIND_REL per
///      connection, V_r;
///   2. BuildProgram over only the relevant views V_r and the queryable
///      connections;
///   3. RemoveUselessRules, then DecomposeWideRules.
/// The brute-force Π(Q, V) over every view is not part of a plan: the
/// one answer path that executes it, and the readers that print it, ask
/// BuildFullProgram for it.
struct PlanResult {
  QueryRelevance relevance;
  /// Π(Q, V_r) before dead-rule elimination.
  datalog::Program relevant_program;
  /// The final optimized program.
  datalog::Program optimized_program;
  std::vector<datalog::Rule> removed_rules;
};

/// `seeded_attributes`: see FindRelevantViews — attributes whose domains
/// hold out-of-band values (cached tuples, domain knowledge); they widen
/// queryability without shrinking kernels.
///
/// `tracer` (optional): emits a "plan" span covering the pipeline with
/// child spans for each stage — "plan.relevance" (with per-connection
/// "plan.find_rel" children), "plan.build_relevant", and "plan.optimize"
/// (counter: rules_removed). Null costs two branches.
Result<PlanResult> PlanQuery(
    const Query& query, const std::vector<SourceView>& views,
    const DomainMap& domains, const BuilderOptions& options = {},
    const capability::AttributeSet& seeded_attributes = {},
    obs::Tracer* tracer = nullptr);

/// Π(Q, V): the unoptimized program of Section 3.1 over every view in
/// `views` — BuildProgram followed by DecomposeWideRules at
/// `options.max_rule_body_atoms`, with no relevance trimming and no
/// useless-rule removal (the paper's Figures 2 and 4). What
/// QueryAnswerer::AnswerUnoptimized executes. Fails as BuildProgram does.
///
/// `tracer` (optional): emits one "plan.build" span (counter: rules).
Result<datalog::Program> BuildFullProgram(const Query& query,
                                          const std::vector<SourceView>& views,
                                          const DomainMap& domains,
                                          const BuilderOptions& options = {},
                                          obs::Tracer* tracer = nullptr);

}  // namespace limcap::planner

#endif  // LIMCAP_PLANNER_PROGRAM_OPTIMIZER_H_
