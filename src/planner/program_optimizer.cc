#include "planner/program_optimizer.h"

#include <set>
#include <unordered_set>

#include "datalog/dependency_graph.h"

namespace limcap::planner {

datalog::Program DecomposeWideRules(datalog::Program program,
                                    std::size_t max_body_atoms,
                                    const std::string& aux_prefix) {
  if (max_body_atoms < 2) return program;
  datalog::Program out;
  std::size_t rule_counter = 0;
  for (const datalog::Rule& rule : program.rules()) {
    if (rule.body.size() <= max_body_atoms) {
      out.AddRule(rule);
      continue;
    }
    const std::size_t rule_id = rule_counter++;
    // Variables of atoms i..end, precomputed suffix-wise.
    std::vector<std::unordered_set<std::string>> needed_after(
        rule.body.size() + 1);
    for (std::size_t i = rule.body.size(); i-- > 0;) {
      needed_after[i] = needed_after[i + 1];
      for (const datalog::Term& term : rule.body[i].terms) {
        if (term.is_variable()) needed_after[i].insert(term.var());
      }
    }
    std::unordered_set<std::string> head_vars;
    for (const datalog::Term& term : rule.head.terms) {
      if (term.is_variable()) head_vars.insert(term.var());
    }

    datalog::Atom current = rule.body[0];
    for (std::size_t i = 1; i < rule.body.size(); ++i) {
      datalog::Rule step;
      step.body = {current, rule.body[i]};
      if (i + 1 == rule.body.size()) {
        step.head = rule.head;
      } else {
        // Keep the variables bound so far that the head or a later atom
        // still needs, in first-occurrence order for determinism.
        datalog::Atom aux;
        aux.predicate = aux_prefix + "_" + std::to_string(rule_id) + "_" +
                        std::to_string(i);
        std::unordered_set<std::string> emitted;
        for (const datalog::Atom& atom : step.body) {
          for (const datalog::Term& term : atom.terms) {
            if (!term.is_variable()) continue;
            const std::string& var = term.var();
            if (emitted.count(var) > 0) continue;
            if (head_vars.count(var) > 0 ||
                needed_after[i + 1].count(var) > 0) {
              emitted.insert(var);
              aux.terms.push_back(datalog::Term::Var(var));
            }
          }
        }
        step.head = aux;
      }
      current = step.head;
      out.AddRule(std::move(step));
    }
  }
  return out;
}

OptimizedProgram RemoveUselessRules(const datalog::Program& program,
                                    const std::string& goal_predicate) {
  // Iterating the paper's removal step to fixpoint keeps exactly the
  // rules whose head predicate is reachable from the goal — or from a
  // tagged per-connection goal ("ans$c0", ...), which are output
  // predicates in their own right. The dependency graph interns
  // predicates, so reachability is a bitmask union over dense ids rather
  // than string-set merges.
  datalog::DependencyGraph graph(program);
  std::vector<bool> reachable(graph.predicates().size(), false);
  auto absorb = [&](datalog::PredicateId start) {
    if (start == datalog::kNoPredicate) return;
    std::vector<bool> mask = graph.ReachableMask(start);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) reachable[i] = true;
    }
  };
  absorb(graph.Find(goal_predicate));
  for (const datalog::Rule& rule : program.rules()) {
    if (IsGoalPredicate(rule.head.predicate, goal_predicate)) {
      absorb(graph.Find(rule.head.predicate));
    }
  }

  OptimizedProgram out;
  for (const datalog::Rule& rule : program.rules()) {
    datalog::PredicateId head = graph.Find(rule.head.predicate);
    if (head != datalog::kNoPredicate && reachable[head]) {
      out.program.AddRule(rule);
    } else {
      out.removed_rules.push_back(rule);
    }
  }
  return out;
}

Result<PlanResult> PlanQuery(const Query& query,
                             const std::vector<SourceView>& views,
                             const DomainMap& domains,
                             const BuilderOptions& options,
                             const capability::AttributeSet& seeded_attributes,
                             obs::Tracer* tracer) {
  obs::ScopedSpan plan_span(tracer, "plan");
  PlanResult result;
  LIMCAP_ASSIGN_OR_RETURN(
      result.relevance,
      AnalyzeQueryRelevance(query, views, domains, seeded_attributes,
                            tracer));

  // Π(Q, V_r): only the queryable connections, only the relevant views.
  Query trimmed(query.inputs(), query.outputs(),
                result.relevance.queryable_connections);
  std::vector<SourceView> relevant_views;
  for (const SourceView& view : views) {
    if (result.relevance.relevant_union.count(view.name()) > 0) {
      relevant_views.push_back(view);
    }
  }
  if (trimmed.connections().empty()) {
    // No queryable connection: the obtainable answer is empty and the
    // optimized program is empty.
    result.relevant_program = datalog::Program();
    result.optimized_program = datalog::Program();
    return result;
  }
  {
    obs::ScopedSpan build_span(tracer, "plan.build_relevant");
    LIMCAP_ASSIGN_OR_RETURN(
        result.relevant_program,
        BuildProgram(trimmed, relevant_views, domains, options));
  }

  obs::ScopedSpan optimize_span(tracer, "plan.optimize");
  OptimizedProgram optimized =
      RemoveUselessRules(result.relevant_program, options.goal_predicate);
  result.optimized_program = DecomposeWideRules(
      std::move(optimized.program), options.max_rule_body_atoms);
  result.removed_rules = std::move(optimized.removed_rules);
  optimize_span.Counter("rules_removed",
                        static_cast<double>(result.removed_rules.size()));
  return result;
}

Result<datalog::Program> BuildFullProgram(const Query& query,
                                          const std::vector<SourceView>& views,
                                          const DomainMap& domains,
                                          const BuilderOptions& options,
                                          obs::Tracer* tracer) {
  obs::ScopedSpan build_span(tracer, "plan.build");
  LIMCAP_ASSIGN_OR_RETURN(datalog::Program program,
                          BuildProgram(query, views, domains, options));
  program = DecomposeWideRules(std::move(program), options.max_rule_body_atoms);
  build_span.Counter("rules", static_cast<double>(program.rules().size()));
  return program;
}

}  // namespace limcap::planner
