#ifndef LIMCAP_ANALYSIS_DYNAMIC_RELEVANCE_H_
#define LIMCAP_ANALYSIS_DYNAMIC_RELEVANCE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "datalog/ast.h"
#include "datalog/fact_store.h"

namespace limcap::analysis {

/// One fetch channel — a (view, template) pair — as the dynamic
/// relevance checker sees it. The evaluator builds one per catalog
/// channel the program mentions (statically pruned channels included,
/// flagged unfetchable: their alpha rules still exist in the program, so
/// the taint analysis must know their binding shape).
struct DynamicChannelInfo {
  std::string view;
  std::size_t template_index = 0;
  /// The view's full schema attribute names, in schema order.
  std::vector<std::string> attributes;
  /// The template's bound positions (indexes into `attributes`).
  std::vector<uint32_t> bound_positions;
  /// DomainOf(attributes[i]) for EVERY schema position, bound or free.
  std::vector<std::string> domains;
  /// False for statically pruned channels: the evaluator never fetches
  /// through them, so new domain values cannot reach sources this way.
  bool fetchable = true;
  /// This round, the channel still has formable not-yet-asked queries
  /// (computed from the full pre-truncation frontier). Set per round via
  /// DynamicRelevanceChecker::BeginRound.
  bool has_pending = false;
};

/// A machine-checkable certificate that skipping one pending source
/// query — channel (view, template) at the given bound-value combination
/// — cannot change the goal predicate's final extent. Two obligations:
///
///   * level-one blocking: for EVERY occurrence of the view's
///     alpha-predicate in a rule body, the facts the skipped fetch would
///     have contributed can never satisfy that body — either the
///     occurrence's own constants contradict the combination, or a
///     frozen co-atom (a predicate no pending fetch can ever grow, whose
///     extent is therefore final) holds no fact matching the values the
///     combination forces on it;
///   * goal isolation: closing the withheld domain values forward
///     through fetch channels and rules (the guarded taint fixpoint)
///     never reaches the goal.
///
/// VerifySkipCertificate re-checks both against the program and the
/// store, independently of the checker's internals.
struct SkipCertificate {
  std::string view;
  std::size_t template_index = 0;
  /// The skipped query's bound values, decoded, in bound-position order.
  std::vector<Value> combo;

  /// Why one alpha-predicate occurrence cannot consume the withheld
  /// facts.
  struct BlockingEvidence {
    /// Rule and body-atom position of the occurrence.
    std::size_t rule_index = 0;
    std::size_t atom_index = 0;
    /// The occurrence itself contradicts the combination (a constant at
    /// a bound position differs, or one variable is forced to two
    /// values); no blocking atom is needed.
    bool vacuous = false;
    /// !vacuous: the frozen co-atom with no matching fact.
    std::size_t blocking_atom_index = 0;
    std::string blocking_predicate;
  };
  /// One entry per occurrence of the alpha predicate in any rule body.
  std::vector<BlockingEvidence> evidence;
  /// Frozen predicates the evidence relies on, sorted.
  std::vector<std::string> frozen;
  /// Domain predicates whose future growth the skip withholds (the taint
  /// fixpoint's final domain set), sorted.
  std::vector<std::string> tainted_domains;

  /// "skip v[0](a=1, b=2): 3 occurrences blocked; tainted: dom_c".
  std::string ToString() const;
};

struct DynamicRelevanceOptions {
  /// The goal predicate; `<goal>$...` tagged heads count as goals too.
  std::string goal_predicate = "ans";
  /// The alpha-predicate of view v is named v + alpha_suffix.
  std::string alpha_suffix = "^";
};

/// Decides, at fetch-dispatch time, whether a pending source query is
/// still relevant given the bindings actually materialized so far — the
/// runtime companion of the static binding-flow analysis. Construct once
/// per execution over the program the evaluator runs and the store it
/// fills; call BeginRound with each round's pending flags (which refresh
/// the frozen-predicate fixpoint), then TrySkip per frontier entry.
///
/// Soundness rests on the builder's attribute-global variable naming
/// (one variable name ⇔ one attribute across the whole program, which
/// DecomposeWideRules preserves): a value appearing in an untainted
/// atom's column implies the same value was cleanly derived into that
/// attribute's domain. The checker REFUSES (returns nullopt) on any rule
/// shape outside that family, so on arbitrary programs it degrades to
/// never skipping — in line with relevance of accesses being undecidable
/// in general. The adaptive property suite is the wall: skips must never
/// change answers on the paper examples, random topologies, or
/// fault-injected runs.
class DynamicRelevanceChecker {
 public:
  /// `program` and `store` are borrowed and must outlive the checker.
  DynamicRelevanceChecker(const datalog::Program* program,
                          std::vector<DynamicChannelInfo> channels,
                          const datalog::FactStore* store,
                          DynamicRelevanceOptions options = {});

  /// Starts a round: `has_pending[i]` says channel i still has formable
  /// not-yet-asked queries in the FULL frontier (before any truncation).
  /// Recomputes the frozen fixpoint; must be called before TrySkip.
  void BeginRound(const std::vector<bool>& has_pending);

  /// Tries to certify that the query (channels[channel_index], combo) is
  /// skippable. nullopt = cannot certify, the fetch must go out.
  std::optional<SkipCertificate> TrySkip(std::size_t channel_index,
                                         std::span<const ValueId> combo);

  /// Predicates no pending fetch can grow this round (extents final).
  const std::set<std::string>& frozen() const { return frozen_; }

  const std::vector<DynamicChannelInfo>& channels() const {
    return channels_;
  }

 private:
  /// True when no rule/channel path can ever grow `predicate` again.
  bool IsFrozen(const std::string& predicate) const {
    return frozen_.count(predicate) > 0;
  }
  /// Does the frozen `predicate` hold a fact with `value_at[i]` at
  /// column `columns[i]` for all i?
  bool HasMatchingFact(const std::string& predicate,
                       const std::vector<uint32_t>& columns,
                       const std::vector<ValueId>& values) const;

  const datalog::Program* program_;
  std::vector<DynamicChannelInfo> channels_;
  const datalog::FactStore* store_;
  DynamicRelevanceOptions options_;
  std::set<std::string> frozen_;
  bool round_begun_ = false;

  friend Status VerifySkipCertificate(const DynamicRelevanceChecker& checker,
                                      const SkipCertificate& certificate);
};

/// Independently re-checks `certificate` against the checker's program,
/// channels, store and CURRENT round state: the evidence must cover
/// every alpha-occurrence, cite only genuinely frozen predicates with
/// genuinely empty matching extents, and the recomputed taint fixpoint
/// must leave the goal untouched. OK when the certificate discharges its
/// obligation. (Frozen-ness and frozen extents are monotone across
/// rounds, so a certificate issued in an earlier round still verifies
/// later.)
Status VerifySkipCertificate(const DynamicRelevanceChecker& checker,
                             const SkipCertificate& certificate);

/// Deterministic one-line-per-certificate dump for explain output.
std::string RenderSkipCertificates(
    const std::vector<SkipCertificate>& certificates);

}  // namespace limcap::analysis

#endif  // LIMCAP_ANALYSIS_DYNAMIC_RELEVANCE_H_
