#include "analysis/executability.h"

#include <unordered_set>

#include "analysis/relevance_fixpoint.h"
#include "common/string_util.h"

namespace limcap::analysis {

namespace {

using capability::BindingPattern;
using capability::SourceView;
using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

/// The variables a head's input adornment binds on rule entry.
std::unordered_set<std::string> AdornedHeadVars(
    const Rule& rule, const ExecutabilityOptions& options) {
  std::unordered_set<std::string> bound;
  auto it = options.input_adornments.find(rule.head.predicate);
  if (it == options.input_adornments.end()) return bound;
  const std::vector<bool>& adornment = it->second;
  for (std::size_t i = 0;
       i < rule.head.terms.size() && i < adornment.size(); ++i) {
    if (adornment[i] && rule.head.terms[i].is_variable()) {
      bound.insert(rule.head.terms[i].var());
    }
  }
  return bound;
}

/// True when some template of `view` has all its bound positions covered
/// by constants of `atom` or variables in `bound`.
bool AtomBindable(const Atom& atom, const SourceView& view,
                  const std::unordered_set<std::string>& bound) {
  for (const BindingPattern& pattern : view.templates()) {
    bool ok = true;
    for (std::size_t i : pattern.BoundPositions()) {
      if (i >= atom.terms.size()) {  // arity mismatch; flagged by LC010
        ok = false;
        break;
      }
      const Term& term = atom.terms[i];
      if (term.is_constant()) continue;
      if (bound.count(term.var()) == 0) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

/// Greedy sideways-information-passing search for one rule: repeatedly
/// places any placeable body atom (placing only grows the bound-variable
/// set, so placeability is monotone and greedy placement finds an
/// executable ordering iff one exists). Returns true when every atom was
/// placed; `order` receives the witness ordering and `bound` the final
/// bound-variable set either way.
bool GreedySipSearch(const RelevanceFixpoint& fixpoint, const Rule& rule,
                     const ExecutabilityOptions& options,
                     const std::set<std::string>& sip_producible,
                     std::vector<std::size_t>* order,
                     std::unordered_set<std::string>* bound) {
  order->clear();
  *bound = AdornedHeadVars(rule, options);
  std::vector<bool> placed(rule.body.size(), false);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (placed[i]) continue;
      const Atom& atom = rule.body[i];
      const SourceView* view = fixpoint.FindView(atom.predicate);
      if (sip_producible.count(atom.predicate) == 0 &&
          (view == nullptr || !AtomBindable(atom, *view, *bound))) {
        continue;
      }
      placed[i] = true;
      order->push_back(i);
      for (const Term& term : atom.terms) {
        if (term.is_variable()) bound->insert(term.var());
      }
      progressed = true;
    }
  }
  return order->size() == rule.body.size();
}

}  // namespace

ExecutabilityResult AnalyzeExecutability(const Program& program,
                                         const std::vector<SourceView>& views,
                                         const planner::DomainMap& domains,
                                         const ExecutabilityOptions& options) {
  return AnalyzeExecutability(RelevanceFixpoint(program, views, domains),
                              program, options);
}

ExecutabilityResult AnalyzeExecutability(const RelevanceFixpoint& fixpoint,
                                         const Program& program,
                                         const ExecutabilityOptions& options) {
  ExecutabilityResult result;
  for (const SourceView* view : fixpoint.views()) {
    result.mentioned_views.push_back(view->name());
  }
  result.fetchable_views = fixpoint.OpenViews();

  // can_fire / producible / dead atoms, read off the forward fixpoint (the
  // evaluator-sound semantics pruning uses).
  const std::vector<Rule>& rules = program.rules();
  result.rules.resize(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    RuleVerdict& verdict = result.rules[r];
    verdict.can_fire = fixpoint.fires(r);
    if (verdict.can_fire) {
      result.producible.insert(rules[r].head.predicate);
      continue;
    }
    for (std::size_t i = 0; i < rules[r].body.size(); ++i) {
      if (!fixpoint.populated(fixpoint.body(r)[i])) {
        verdict.dead_atoms.push_back(i);
      }
    }
  }

  // sip_executable / sip_producible (the adorned sideways-information-
  // passing semantics of Sections 2-3: each rule must carry its own
  // bindings), a monotone fixpoint of its own.
  {
    std::vector<bool> executable(rules.size(), false);
    std::vector<std::size_t> order;
    std::unordered_set<std::string> bound;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t r = 0; r < rules.size(); ++r) {
        if (executable[r]) continue;
        if (!GreedySipSearch(fixpoint, rules[r], options,
                             result.sip_producible, &order, &bound)) {
          continue;
        }
        executable[r] = true;
        result.sip_producible.insert(rules[r].head.predicate);
        changed = true;
      }
    }
    for (std::size_t r = 0; r < rules.size(); ++r) {
      RuleVerdict& verdict = result.rules[r];
      verdict.sip_executable = executable[r];
      // Re-run at the final fixpoint for the witness ordering (or, on
      // failure, the stuck atoms at the maximal bound set).
      GreedySipSearch(fixpoint, rules[r], options, result.sip_producible,
                      &verdict.sip_order, &bound);
      verdict.sip_bound_variables.insert(bound.begin(), bound.end());
      if (executable[r]) continue;
      std::vector<bool> placed(rules[r].body.size(), false);
      for (std::size_t i : verdict.sip_order) placed[i] = true;
      for (std::size_t i = 0; i < rules[r].body.size(); ++i) {
        if (placed[i]) continue;
        const Atom& atom = rules[r].body[i];
        const SourceView* view = fixpoint.FindView(atom.predicate);
        if (view != nullptr && !AtomBindable(atom, *view, bound)) {
          verdict.unbindable_atoms.push_back(i);
        }
      }
    }
  }

  return result;
}

namespace {

/// The LC020-LC023 findings; `find_view` maps a mentioned view's name to
/// its SourceView.
template <typename FindView>
void AppendDiagnostics(const Program& program, const FindView& find_view,
                       const ExecutabilityResult& result,
                       const datalog::ProgramSourceMap* source_map,
                       DiagnosticBag* bag) {
  // LC023 — views the program mentions that can never be queried.
  for (const std::string& name : result.mentioned_views) {
    if (result.fetchable_views.count(name) > 0) continue;
    const SourceView& view = *find_view(name);
    Diagnostic& d = bag->Report(
        Code::kUnfetchableView,
        "source view '" + view.ToString() +
            "' can never be queried: every template has a required-bound "
            "attribute whose domain predicate is never populated");
    d.location.context = view.ToString();
  }

  // LC022 — IDB predicates none of whose rules can fire.
  {
    std::map<std::string, std::size_t> rule_counts;
    for (const datalog::Rule& rule : program.rules()) {
      ++rule_counts[rule.head.predicate];
    }
    for (const auto& [predicate, count] : rule_counts) {
      if (result.producible.count(predicate) > 0) continue;
      bag->Report(Code::kUnproduciblePredicate,
                  "predicate '" + predicate + "' is never derivable: none of " +
                      "its " + std::to_string(count) + " rule(s) can fire");
    }
  }

  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    const RuleVerdict& verdict = result.rules[r];
    const datalog::Rule& rule = program.rules()[r];

    // LC020 — view atoms no ordering can bind.
    for (std::size_t i : verdict.unbindable_atoms) {
      const Atom& atom = rule.body[i];
      const SourceView* view = find_view(atom.predicate);
      Diagnostic& d = bag->Report(
          Code::kUnbindableViewAtom,
          "no body ordering binds the required attributes of source-view "
          "atom '" +
              atom.ToString() + "'",
          RuleLocation(program, source_map, r, static_cast<int>(i)));
      if (view != nullptr) {
        for (const BindingPattern& pattern : view->templates()) {
          std::vector<std::string> missing;
          for (std::size_t pos : pattern.BoundPositions()) {
            if (pos < atom.terms.size()) {
              const Term& term = atom.terms[pos];
              if (term.is_constant()) continue;
              if (verdict.sip_bound_variables.count(term.var()) > 0) continue;
            }
            missing.push_back(view->schema().attribute(pos));
          }
          d.notes.push_back(
              "template '" + pattern.ToString() + "' requires {" +
              Join(missing, ", ") +
              "} bound, and no ordering of the other body atoms binds them");
        }
      }
    }

    // LC021 — rules that can never fire.
    if (!verdict.can_fire) {
      Diagnostic& d =
          bag->Report(Code::kRuleNeverFires,
                      "rule for '" + rule.head.predicate +
                          "' can never fire; pruning it cannot change any "
                          "answer",
                      RuleLocation(program, source_map, r, Location::kNone));
      for (std::size_t i : verdict.dead_atoms) {
        const Atom& atom = rule.body[i];
        d.notes.push_back(
            "body atom '" + atom.ToString() + "' is always empty (" +
            (result.fetchable_views.count(atom.predicate) == 0 &&
                     find_view(atom.predicate) != nullptr
                 ? "the view can never be queried"
                 : "the predicate is never derivable") +
            ")");
      }
    }
  }
}

}  // namespace

void AppendExecutabilityDiagnostics(const Program& program,
                                    const std::vector<SourceView>& views,
                                    const ExecutabilityResult& result,
                                    const datalog::ProgramSourceMap* source_map,
                                    DiagnosticBag* bag) {
  auto find_view = [&](const std::string& name) -> const SourceView* {
    for (const SourceView& view : views) {
      if (view.name() == name) return &view;
    }
    return nullptr;
  };
  AppendDiagnostics(program, find_view, result, source_map, bag);
}

void AppendExecutabilityDiagnostics(const Program& program,
                                    const RelevanceFixpoint& fixpoint,
                                    const ExecutabilityResult& result,
                                    const datalog::ProgramSourceMap* source_map,
                                    DiagnosticBag* bag) {
  auto find_view = [&](const std::string& name) {
    return fixpoint.FindView(name);
  };
  AppendDiagnostics(program, find_view, result, source_map, bag);
}

datalog::Program PruneNeverFiringRules(const Program& program,
                                       const ExecutabilityResult& result) {
  Program pruned;
  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    if (r < result.rules.size() && !result.rules[r].can_fire) continue;
    pruned.AddRule(program.rules()[r]);
  }
  return pruned;
}

std::set<std::string> ReachableViews(const std::vector<SourceView>& views,
                                     const planner::DomainMap& domains,
                                     const capability::AttributeSet& seeded) {
  return RelevanceFixpoint::ColdStart(views, domains, seeded).OpenViews();
}

}  // namespace limcap::analysis
