#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/relevance_fixpoint.h"
#include "common/string_util.h"
#include "datalog/dependency_graph.h"
#include "datalog/safety.h"
#include "planner/program_builder.h"

namespace limcap::analysis {

Location RuleLocation(const datalog::Program& program,
                      const datalog::ProgramSourceMap* map,
                      std::size_t rule_index, int atom_index) {
  Location location;
  location.rule = static_cast<int>(rule_index);
  location.atom = atom_index;
  if (map != nullptr && rule_index < map->rules.size()) {
    const datalog::RuleSpan& span = map->rules[rule_index];
    const datalog::SourceSpan& pos =
        atom_index != Location::kNone &&
                static_cast<std::size_t>(atom_index) < span.body.size()
            ? span.body[atom_index]
            : span.rule;
    location.line = pos.line;
    location.column = pos.column;
  }
  location.context = program.rules()[rule_index].ToString();
  return location;
}

namespace {

using capability::SourceView;
using datalog::Atom;
using datalog::DependencyGraph;
using datalog::Program;
using datalog::ProgramSourceMap;
using datalog::Rule;
using datalog::Term;

/// LC004 — body predicates that nothing can ever populate structurally:
/// no rule derives them and no catalog view backs them.
void CheckUndeclaredPredicates(const Program& program,
                               const RelevanceFixpoint& fixpoint,
                               const ProgramSourceMap* map,
                               DiagnosticBag* bag) {
  const std::set<std::string> idb = program.IdbPredicates();
  std::set<std::string> reported;
  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const std::string& predicate = rule.body[i].predicate;
      if (idb.count(predicate) > 0 || fixpoint.FindView(predicate) != nullptr) {
        continue;
      }
      if (!reported.insert(predicate).second) continue;
      bag->Report(Code::kUndeclaredPredicate,
                  "predicate '" + predicate +
                      "' has no rules, no facts, and no source view: its "
                      "relation is always empty",
                  RuleLocation(program, map, r, static_cast<int>(i)));
    }
  }
}

/// LC005 — variables occurring exactly once in their rule.
void CheckSingletonVariables(const Program& program,
                             const ProgramSourceMap* map, DiagnosticBag* bag) {
  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    std::map<std::string, std::size_t> counts;
    auto count_atom = [&](const Atom& atom) {
      for (const Term& term : atom.terms) {
        if (term.is_variable()) ++counts[term.var()];
      }
    };
    count_atom(rule.head);
    for (const Atom& atom : rule.body) count_atom(atom);
    std::vector<std::string> singles;
    for (const auto& [var, count] : counts) {
      if (count == 1) singles.push_back(var);
    }
    if (singles.empty()) continue;
    bag->Report(Code::kSingletonVariable,
                (singles.size() == 1
                     ? "variable '" + singles.front() + "' occurs"
                     : "variables {" + Join(singles, ", ") + "} occur") +
                    " only once in this rule (projected away on arrival; in "
                    "hand-written rules, a possible typo)",
                RuleLocation(program, map, r, Location::kNone));
  }
}

/// LC006/LC007 — goal reachability and recursion, on the dependency
/// graph that Section 6's RemoveUselessRules walks.
///
/// One evaluator-semantics exception: a rule deriving the domain
/// predicate of a *bound* attribute of a view the program mentions is
/// never reported, even when graph-unreachable — the source-driven
/// evaluator forms source queries from those domain facts, a channel
/// the dependency graph cannot see (builder programs route it through
/// the alpha rules; hand-written ones often do not).
void CheckReachability(const Program& program,
                       const RelevanceFixpoint& fixpoint,
                       const AnalysisOptions& options,
                       const ProgramSourceMap* map, DiagnosticBag* bag) {
  DependencyGraph graph(program);

  if (graph.IsRecursive()) {
    std::size_t cyclic = 0;
    for (const std::string& predicate : program.AllPredicates()) {
      if (graph.IsRecursivePredicate(predicate)) ++cyclic;
    }
    bag->Report(Code::kRecursiveProgram,
                "program is recursive: " + std::to_string(cyclic) +
                    " predicate(s) participate in dependency cycles (Π(Q, V) "
                    "is recursive by construction)");
  }

  // The goal, plus the builder's tagged per-connection goals `<goal>$cK`.
  std::vector<std::string> goals;
  for (const std::string& predicate : program.AllPredicates()) {
    if (planner::IsGoalPredicate(predicate, options.goal_predicate)) {
      goals.push_back(predicate);
    }
  }
  if (goals.empty()) {
    bag->Report(Code::kGoalUnreachableRule,
                "goal predicate '" + options.goal_predicate +
                    "' is not defined anywhere in the program: the answer is "
                    "always empty");
    return;
  }
  std::set<std::string> reachable;
  for (const std::string& goal : goals) {
    std::set<std::string> from_goal = graph.ReachableFrom(goal);
    reachable.insert(from_goal.begin(), from_goal.end());
  }
  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    const std::string& head = program.rules()[r].head.predicate;
    if (reachable.count(head) > 0) continue;
    if (fixpoint.bound_domain(fixpoint.head(r))) continue;
    bag->Report(Code::kGoalUnreachableRule,
                "rule for '" + head + "' is unreachable from goal '" +
                    options.goal_predicate +
                    "': it cannot contribute to any answer (Section 6's "
                    "RemoveUselessRules drops it)",
                RuleLocation(program, map, r, Location::kNone));
  }
}

/// LC010 — atoms over catalog views must match the view's schema arity.
void CheckViewArities(const Program& program,
                      const RelevanceFixpoint& fixpoint,
                      const ProgramSourceMap* map, DiagnosticBag* bag) {
  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    auto check = [&](const Atom& atom, int atom_index) {
      const SourceView* view = fixpoint.FindView(atom.predicate);
      if (view == nullptr || view->schema().arity() == atom.arity()) return;
      bag->Report(Code::kViewArityMismatch,
                  "atom '" + atom.ToString() + "' has arity " +
                      std::to_string(atom.arity()) + " but source view '" +
                      atom.predicate + "' has arity " +
                      std::to_string(view->schema().arity()),
                  RuleLocation(program, map, r, atom_index));
    };
    check(rule.head, Location::kNone);
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      check(rule.body[i], static_cast<int>(i));
    }
  }
}

/// Attaches the Section 7 context to non-ground facts over domain
/// predicates: those are domain-knowledge facts and would poison source
/// query formation if a variable slipped in.
void AnnotateDomainFacts(const Program& program, const AnalysisOptions& options,
                         const std::vector<SourceView>& views,
                         DiagnosticBag* bag) {
  if (std::none_of(bag->diagnostics().begin(), bag->diagnostics().end(),
                   [](const Diagnostic& d) {
                     return d.code == Code::kNonGroundFact;
                   })) {
    return;
  }
  std::set<std::string> domain_predicates;
  for (const SourceView& view : views) {
    for (const std::string& attribute : view.schema().attributes()) {
      domain_predicates.insert(options.domains.DomainOf(attribute));
    }
  }
  for (Diagnostic& d : bag->mutable_diagnostics()) {
    if (d.code != Code::kNonGroundFact || d.location.rule == Location::kNone) {
      continue;
    }
    const std::string& head =
        program.rules()[d.location.rule].head.predicate;
    if (domain_predicates.count(head) == 0) continue;
    d.notes.push_back(
        "'" + head +
        "' is a domain predicate: this is a Section 7 domain-knowledge / "
        "cached-tuple fact, and the evaluator forms source queries from its "
        "values — it must be ground");
  }
}

}  // namespace

AnalysisResult AnalyzeProgram(const Program& program,
                              const std::vector<SourceView>& views,
                              const AnalysisOptions& options,
                              const ProgramSourceMap* source_map) {
  AnalysisResult result;
  DiagnosticBag& bag = result.diagnostics;
  const RelevanceFixpoint fixpoint(program, views, options.domains);

  datalog::AppendSafetyDiagnostics(program, source_map, &bag);
  AnnotateDomainFacts(program, options, views, &bag);
  CheckUndeclaredPredicates(program, fixpoint, source_map, &bag);
  CheckSingletonVariables(program, source_map, &bag);
  CheckReachability(program, fixpoint, options, source_map, &bag);
  CheckViewArities(program, fixpoint, source_map, &bag);

  result.executability =
      AnalyzeExecutability(fixpoint, program, options.executability);
  AppendExecutabilityDiagnostics(program, fixpoint, result.executability,
                                 source_map, &bag);

  if (options.check_binding_flow) {
    result.binding_flow = AnalyzeBindingFlow(fixpoint, options.goal_predicate);
    result.binding_flow_ran = true;
    AppendBindingFlowDiagnostics(program, result.binding_flow, source_map,
                                 &bag);
  }

  bag.Sort();
  return result;
}

}  // namespace limcap::analysis
