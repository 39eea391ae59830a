#ifndef LIMCAP_ANALYSIS_RELEVANCE_FIXPOINT_H_
#define LIMCAP_ANALYSIS_RELEVANCE_FIXPOINT_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/binding_flow.h"
#include "analysis/executability.h"
#include "capability/source_view.h"
#include "common/interner.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "planner/domain_map.h"

namespace limcap::analysis {

/// The static relevance fixpoint of the Section 3.3 evaluation, computed
/// once per analysis and read by every static consumer: executability's
/// can_fire (LC021-LC023, PruneNeverFiringRules), binding flow's channel
/// verdicts and certificates, and cold-start ReachableViews.
///
/// The index interns the program's predicates and the bound domains of
/// the catalog views the program mentions to dense ids. A rule keeps its
/// head and body ids; a fetch channel (mentioned view × template, in
/// catalog × template order) keeps its bound-domain ids. Semantics are
/// the evaluator's: a view with an open channel populates its predicate,
/// a bound domain counts as populated whatever populates it, and a rule
/// fires iff every body predicate is populated. The forward pass is a
/// counter worklist in waves — close the rules, then open every channel
/// whose bound domains are all populated, so the wave is the channel's
/// frontier depth — and touches each rule and channel once per distinct
/// body predicate or bound domain: linear in the size of the index.
class RelevanceFixpoint {
 public:
  using Id = uint32_t;

  struct Channel {
    const capability::SourceView* view = nullptr;
    std::size_t template_index = 0;
    Id view_id = 0;
    /// One domain id per bound position, in position order.
    std::vector<Id> bound;
  };

  /// How a needed predicate feeds its consumer on the way to a goal.
  struct Link {
    WitnessStep::Link kind = WitnessStep::Link::kGoal;
    /// The rule (kRule) or channel (kChannel) index.
    std::size_t index = 0;
    Id consumer = 0;
  };

  /// Per id: needed, and (needed non-goals) the first link it was
  /// needed through.
  struct Needed {
    std::vector<bool> needed;
    std::vector<Link> parent;
  };

  /// Indexes `program` and the views of `views` it mentions, and runs the
  /// forward pass.
  RelevanceFixpoint(const datalog::Program& program,
                    const std::vector<capability::SourceView>& views,
                    const planner::DomainMap& domains);

  /// Cold start over the catalog alone: every view is mentioned and
  /// populates the domains of all its attributes (the builder's domain
  /// rules); the domains of the `seeded` attributes start populated.
  static RelevanceFixpoint ColdStart(
      const std::vector<capability::SourceView>& views,
      const planner::DomainMap& domains,
      const capability::AttributeSet& seeded);

  std::size_t size() const { return names_.size(); }
  const std::string& name(Id id) const { return names_.Name(id); }
  /// The mentioned catalog views, in catalog order.
  const std::vector<const capability::SourceView*>& views() const {
    return views_;
  }
  const std::vector<Channel>& channels() const { return channels_; }
  /// The mentioned view named `name`, or null.
  const capability::SourceView* FindView(std::string_view name) const;
  /// The index of channel `view`[`template_index`], or npos.
  std::size_t FindChannel(std::string_view view,
                          std::size_t template_index) const;

  /// Program rule `rule`'s head id and body ids (one per atom).
  Id head(std::size_t rule) const { return rules_[rule].head; }
  const std::vector<Id>& body(std::size_t rule) const {
    return rules_[rule].body;
  }
  /// True when `id` is a bound domain of some channel.
  bool bound_domain(Id id) const { return !channels_on_[id].empty(); }

  bool fires(std::size_t rule) const { return fires_[rule]; }
  bool populated(Id id) const { return populated_[id]; }
  bool open(std::size_t channel) const {
    return depth_[channel] != ChannelVerdict::kNoDepth;
  }
  /// The views with at least one open channel.
  std::set<std::string> OpenViews() const;
  /// The wave in which `channel` opened; kNoDepth when it never does.
  std::size_t depth(std::size_t channel) const { return depth_[channel]; }
  /// kVariable once a firing rule with a variable head or an open channel
  /// populates `id`; kConstant while only ground heads do.
  AbstractBinding value(Id id) const;
  /// Distinct ground tuples the firing rules derive for `id`.
  std::uint64_t constants(Id id) const { return constants_[id]; }

  /// The backward closure from the program's goal predicates (`goal` and
  /// `goal$...`): breadth-first from the goals in name order; a needed
  /// predicate needs the bodies of its firing rules (program order), then
  /// the bound domains of its open channels (template order).
  Needed Backward(const std::string& goal) const;

 private:
  static constexpr uint32_t kNotGround = static_cast<uint32_t>(-1);

  struct RuleEntry {
    Id head = 0;
    std::vector<Id> body;
    /// Distinct (predicate, tuple) id of a ground head, or kNotGround.
    uint32_t ground = kNotGround;
  };

  RelevanceFixpoint() = default;
  void AddView(const capability::SourceView& view, Id id,
               const planner::DomainMap& domains);
  /// Builds the reverse lists and runs the forward pass.
  void Run(std::size_t ground_tuples);

  Interner<Id> names_;
  /// Ids below this are the program's own predicates.
  Id program_predicates_ = 0;
  std::vector<RuleEntry> rules_;
  std::vector<const capability::SourceView*> views_;
  std::vector<Channel> channels_;
  /// Per id: the rules using it, the channels bound on it, the rules
  /// deriving it, and its channels' [first, end) range as a view.
  std::vector<std::vector<uint32_t>> rules_using_;
  std::vector<std::vector<uint32_t>> channels_on_;
  std::vector<std::vector<uint32_t>> rules_deriving_;
  std::vector<std::pair<uint32_t, uint32_t>> view_channels_;

  std::vector<bool> fires_, populated_, variable_;
  std::vector<std::uint64_t> constants_;
  std::vector<std::size_t> depth_;
};

/// The location of rule `rule` (and body atom `atom`, or Location::kNone)
/// with its source line when `map` is given; shared by the passes.
Location RuleLocation(const datalog::Program& program,
                      const datalog::ProgramSourceMap* map, std::size_t rule,
                      int atom);

/// The consumers; the public entry points of executability.h and
/// binding_flow.h build a fixpoint and call these.
ExecutabilityResult AnalyzeExecutability(const RelevanceFixpoint& fixpoint,
                                         const datalog::Program& program,
                                         const ExecutabilityOptions& options);
void AppendExecutabilityDiagnostics(const datalog::Program& program,
                                    const RelevanceFixpoint& fixpoint,
                                    const ExecutabilityResult& result,
                                    const datalog::ProgramSourceMap* source_map,
                                    DiagnosticBag* bag);
BindingFlowResult AnalyzeBindingFlow(const RelevanceFixpoint& fixpoint,
                                     const std::string& goal);

}  // namespace limcap::analysis

#endif  // LIMCAP_ANALYSIS_RELEVANCE_FIXPOINT_H_
