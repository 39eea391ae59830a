#ifndef LIMCAP_ANALYSIS_EXECUTABILITY_H_
#define LIMCAP_ANALYSIS_EXECUTABILITY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "capability/source_view.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "planner/domain_map.h"

namespace limcap::analysis {

/// Options for the executability analysis.
struct ExecutabilityOptions {
  /// Input adornments for head predicates, top-down seeds for the
  /// ordering search: for a listed predicate, the argument positions
  /// mapped `true` are considered bound on rule entry (the caller
  /// supplies the binding, like a goal invoked with its inputs). Unlisted
  /// predicates have all-free heads — the bottom-up default, where every
  /// binding must come from constants or earlier body atoms.
  std::map<std::string, std::vector<bool>> input_adornments;
};

/// Verdict for one rule.
struct RuleVerdict {
  /// A sideways-information-passing order exists: some body ordering
  /// binds every source-view atom's required-bound attributes (under at
  /// least one template) using only the head's input adornment, the
  /// rule's constants, and earlier atoms — and every non-view body
  /// predicate is producible. This is the paper's Sections 2-3 notion of
  /// an executable adorned rule.
  bool sip_executable = false;
  /// The rule can derive at least one fact in *some* source-driven
  /// evaluation: every body atom's relation can be non-empty (IDB
  /// predicates producible, view predicates fetchable). A rule with
  /// `can_fire == false` is evaluation-inert: pruning it never changes
  /// any answer (the analyzer's soundness property, asserted by the
  /// property tests).
  bool can_fire = false;
  /// A witness body ordering (body indices) when sip_executable.
  std::vector<std::size_t> sip_order;
  /// Variables bound at the ordering search's fixpoint (all rule
  /// variables when sip_executable; the maximal achievable bound set
  /// otherwise — the unbindable atoms' requirements fall outside it).
  std::set<std::string> sip_bound_variables;
  /// Body indices of source-view atoms whose binding requirements no
  /// ordering can satisfy (the LC020 findings).
  std::vector<std::size_t> unbindable_atoms;
  /// Body indices of atoms whose relation is provably always empty (the
  /// reason can_fire is false).
  std::vector<std::size_t> dead_atoms;
};

/// The program-level fixpoint result.
struct ExecutabilityResult {
  /// One verdict per program rule, in program order.
  std::vector<RuleVerdict> rules;
  /// IDB predicates with at least one sip-executable rule.
  std::set<std::string> sip_producible;
  /// Predicates that can hold at least one fact in some evaluation
  /// (IDB with a firing rule, or ground facts).
  std::set<std::string> producible;
  /// Catalog views (mentioned by the program) with at least one
  /// fetchable template — the source-driven evaluator can form at least
  /// one query for them.
  std::set<std::string> fetchable_views;
  /// Views mentioned by the program, in catalog order (the universe
  /// `fetchable_views` is judged against).
  std::vector<std::string> mentioned_views;
};

/// The adorned executability analysis: decides, for every rule of
/// `program`, whether it admits an executable sideways-information-
/// passing order (a fixpoint of its own) and whether it can ever fire
/// under the source-driven evaluation of Section 3.3 (read off the static
/// relevance fixpoint, analysis/relevance_fixpoint.h: a rule fires iff
/// every body predicate is populated, where a mentioned view is populated
/// once some template's bound domains are).
///
/// Soundness: `can_fire == false` implies the rule derives nothing in
/// any evaluation of the program (its facts, its queries, its answers
/// are unaffected by pruning the rule). The sip_executable verdict is
/// stricter than can_fire for rules that ride on fetches driven by
/// *other* rules' domain atoms; it is the right notion for bind-join
/// style execution and holds for every builder-generated Π(Q, V).
ExecutabilityResult AnalyzeExecutability(
    const datalog::Program& program,
    const std::vector<capability::SourceView>& views,
    const planner::DomainMap& domains,
    const ExecutabilityOptions& options = {});

/// Appends LC020/LC021/LC022/LC023 diagnostics for `result` to `bag`.
/// `source_map` (optional) supplies line numbers.
void AppendExecutabilityDiagnostics(
    const datalog::Program& program,
    const std::vector<capability::SourceView>& views,
    const ExecutabilityResult& result,
    const datalog::ProgramSourceMap* source_map, DiagnosticBag* bag);

/// The program with every rule whose verdict is `can_fire == false`
/// removed. By the soundness property this transformation preserves the
/// program's answer under source-driven evaluation; it subsumes and
/// cross-checks Section 6's RemoveUselessRules from the capability side.
datalog::Program PruneNeverFiringRules(const datalog::Program& program,
                                       const ExecutabilityResult& result);

/// Catalog-level cold-start reachability: which views could ever be
/// queried when evaluation starts with the attributes in `seeded` bound
/// (pass the query's input attributes; empty = nothing known). The static
/// relevance fixpoint over the catalog's implied domain rules: a view
/// becomes reachable when some template's bound domains are populated,
/// and then populates the domains of all its attributes. Views outside
/// the returned set can never be accessed by any query whose inputs are
/// limited to `seeded`.
std::set<std::string> ReachableViews(
    const std::vector<capability::SourceView>& views,
    const planner::DomainMap& domains,
    const capability::AttributeSet& seeded = {});

}  // namespace limcap::analysis

#endif  // LIMCAP_ANALYSIS_EXECUTABILITY_H_
