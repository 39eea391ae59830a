#ifndef LIMCAP_ANALYSIS_BINDING_FLOW_H_
#define LIMCAP_ANALYSIS_BINDING_FLOW_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "capability/source_view.h"
#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "planner/domain_map.h"

namespace limcap::analysis {

/// The abstract adornment lattice, per predicate (and, through a
/// template's domain predicates, per fetch-channel position):
///
///   kBottom ⊑ kConstant ⊑ kVariable
///
/// kBottom — the predicate can never hold a fact; kConstant — every
/// fact it can hold is one of finitely many ground tuples traceable to
/// the query's input constants; kVariable — facts may carry values only
/// known at runtime (source-returned). The forward pass joins upward
/// only, so the fixpoint is a sound over-approximation of every
/// source-driven evaluation (serial or concurrent fetch — both derive
/// the same fact set).
enum class AbstractBinding { kBottom = 0, kConstant = 1, kVariable = 2 };

/// "bottom" / "constant" / "variable".
const char* AbstractBindingToString(AbstractBinding binding);

struct BindingFlowOptions {
  /// The goal predicate; `<goal>$...` tagged heads count as goals too.
  std::string goal_predicate = "ans";
};

/// One link of a relevance witness: how `predicate` feeds the next
/// step's predicate on the way to the goal.
struct WitnessStep {
  enum class Link {
    /// `predicate` occurs in the body of rule `rule_index`, whose head
    /// is the next step's predicate (and the rule abstractly fires).
    kRule,
    /// `predicate` is the domain predicate of a bound position of the
    /// reachable channel `via_view`[`via_template`]; the next step is
    /// `via_view` (the fetch the domain drives).
    kChannel,
    /// `predicate` is the goal (terminal step).
    kGoal,
  };
  std::string predicate;
  Link link = Link::kGoal;
  std::size_t rule_index = 0;
  std::string via_view;
  std::size_t via_template = 0;
};

/// A machine-checkable certificate for a channel verdict; see
/// VerifyCertificate for the exact obligations each kind discharges.
struct PruningCertificate {
  enum class Kind {
    kNone,
    /// Relevance witness: a feed chain channel-view → ... → goal.
    kWitness,
    /// Irrelevance refutation: `closed_set` is backward-closed from the
    /// goals under firing rules and reachable channels, yet excludes
    /// the channel's view — nothing the channel returns can feed the
    /// goal.
    kIrrelevance,
    /// Unreachability refutation: `closed_set` is forward-closed from
    /// the ground facts, yet `missing_domain` (a bound domain of the
    /// channel) is outside it — no query can ever be formed.
    kUnreachability,
  };
  Kind kind = Kind::kNone;
  /// kWitness: the chain, channel view first, goal last.
  std::vector<WitnessStep> steps;
  /// kIrrelevance: the closed needed set; kUnreachability: the closed
  /// populated set. Sorted.
  std::vector<std::string> closed_set;
  /// kUnreachability: the never-populated bound domain predicate.
  std::string missing_domain;
};

/// The verdict for one fetch channel — a (view, template) pair, the
/// unit the source-driven evaluator schedules queries by.
struct ChannelVerdict {
  /// frontier_depth when the channel is unreachable.
  static constexpr std::size_t kNoDepth = static_cast<std::size_t>(-1);

  std::string view;
  std::size_t template_index = 0;
  /// The template's adornment text, e.g. "bf".
  std::string adornment;
  /// The evaluator can form at least one query for this channel.
  bool reachable = false;
  /// Reachable AND the view's tuples can feed the goal. `!relevant`
  /// channels are the statically prunable accesses.
  bool relevant = false;
  /// Reachable binding pattern, one char per schema position: 'c' the
  /// position's feeding domain is constant-only, 'v' runtime values
  /// reach it, 'f' free. Empty when unreachable.
  std::string reachable_pattern;
  /// First fetch wave (0-based) in which a query can be formed.
  std::size_t frontier_depth = kNoDepth;
  /// Upper bound on distinct source queries through this channel, when
  /// every bound domain is constant-only.
  bool fetch_bound_finite = false;
  std::uint64_t fetch_bound = 0;
  PruningCertificate certificate;
};

/// Static per-source bounds (the LC032 note), aggregated over a view's
/// reachable channels.
struct SourceBounds {
  std::string view;
  std::size_t frontier_depth = 0;
  bool fetch_bound_finite = false;
  std::uint64_t fetch_bound = 0;
};

/// The binding-flow fixpoint result.
struct BindingFlowResult {
  /// One verdict per channel of every mentioned catalog view, in
  /// catalog × template order.
  std::vector<ChannelVerdict> channels;
  /// The backward-closed needed set: predicates whose facts can feed
  /// the goal (goals included).
  std::set<std::string> needed_predicates;
  /// The forward fixpoint per predicate (populated predicates only).
  std::map<std::string, AbstractBinding> predicate_values;
  /// Per-source bounds for views with at least one reachable channel.
  std::vector<SourceBounds> sources;

  /// The (view, template_index) channels safe to drop before
  /// scheduling: every channel with `relevant == false`. The shape
  /// matches ExecOptions::pruned_channels.
  std::vector<std::pair<std::string, std::size_t>> PrunedChannels() const;
};

/// The binding-flow abstract interpretation over the adorned program and
/// the catalog's fetch channels, read off the one static relevance
/// fixpoint (analysis/relevance_fixpoint.h).
///
/// Forward (reachability): from the program's ground facts (the query's
/// input bindings), rule closure alternates with channel activation, as
/// in the evaluator's fetch/eval rounds, joining each predicate up the
/// AbstractBinding lattice. Yields per-channel reachable patterns,
/// frontier depths and fetch-count bounds.
///
/// Backward (relevance): close the goal predicates backward under firing
/// rules (head needed ⇒ body needed) and reachable channels (view needed
/// ⇒ its open channels' bound domains needed). A reachable channel of a
/// view outside the needed set can never feed the goal: dropping it is
/// answer-preserving, since any fact chain from the channel to the goal
/// would have put its view inside the closure.
///
/// Every verdict carries a certificate; VerifyCertificate re-checks it
/// independently of this function's internals.
BindingFlowResult AnalyzeBindingFlow(
    const datalog::Program& program,
    const std::vector<capability::SourceView>& views,
    const planner::DomainMap& domains, const BindingFlowOptions& options = {});

/// Appends LC030 (statically irrelevant channel), LC031 (unreachable
/// channel) and LC032 (per-source static bounds) diagnostics to `bag`.
void AppendBindingFlowDiagnostics(const datalog::Program& program,
                                  const BindingFlowResult& result,
                                  const datalog::ProgramSourceMap* source_map,
                                  DiagnosticBag* bag);

/// Independently checks `verdict.certificate` against the program and
/// catalog: witness chains must link existing firing rules / reachable
/// channels and terminate at a goal; refutation sets must actually be
/// closed and exclude what they claim to exclude. Returns OK when the
/// certificate discharges its obligation, an error describing the
/// first violated condition otherwise.
Status VerifyCertificate(const datalog::Program& program,
                         const std::vector<capability::SourceView>& views,
                         const planner::DomainMap& domains,
                         const BindingFlowOptions& options,
                         const ChannelVerdict& verdict);

/// Deterministic human-readable dump (the `limcap_lint --deep` text
/// section): one line per channel with its certificate, then the
/// per-source bounds.
std::string RenderBindingFlowText(const BindingFlowResult& result);

/// Machine-readable dump:
/// {"channels":[{"view":...,"template":...,"certificate":{...}},...],
///  "sources":[...],"needed":[...]}
std::string RenderBindingFlowJson(const BindingFlowResult& result);

}  // namespace limcap::analysis

#endif  // LIMCAP_ANALYSIS_BINDING_FLOW_H_
