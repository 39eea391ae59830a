#include "analysis/dynamic_relevance.h"

#include <algorithm>
#include <map>
#include <utility>

#include "planner/program_builder.h"

namespace limcap::analysis {

namespace {

using datalog::Atom;
using datalog::Rule;
using datalog::Term;

/// The values the skipped combination forces on one body atom's
/// variables. `vacuous` means the atom itself contradicts the
/// combination (constant mismatch, or one variable forced two ways), so
/// no withheld fact can ever match it.
struct ComboBinding {
  bool vacuous = false;
  std::map<std::string, ValueId> vars;
};

ComboBinding BindCombo(const Atom& atom, const DynamicChannelInfo& channel,
                       std::span<const ValueId> combo,
                       const ValueDictionary& dict) {
  ComboBinding binding;
  for (std::size_t i = 0; i < channel.bound_positions.size(); ++i) {
    const std::size_t pos = channel.bound_positions[i];
    if (pos >= atom.terms.size()) {
      binding.vacuous = true;  // arity mismatch: nothing can match
      return binding;
    }
    const Term& term = atom.terms[pos];
    if (term.is_constant()) {
      ValueId id;
      if (!dict.Lookup(term.constant(), &id) || id != combo[i]) {
        binding.vacuous = true;
        return binding;
      }
      continue;  // constant equals the combo value: no constraint
    }
    auto [it, inserted] = binding.vars.emplace(term.var(), combo[i]);
    if (!inserted && it->second != combo[i]) {
      binding.vacuous = true;
      return binding;
    }
  }
  return binding;
}

}  // namespace

std::string SkipCertificate::ToString() const {
  std::string out = "skip " + view + "[" + std::to_string(template_index) +
                    "](";
  for (std::size_t i = 0; i < combo.size(); ++i) {
    if (i > 0) out += ", ";
    out += combo[i].ToString();
  }
  out += "): " + std::to_string(evidence.size()) + " occurrence";
  if (evidence.size() != 1) out += "s";
  out += " blocked";
  std::size_t vacuous = 0;
  for (const BlockingEvidence& e : evidence) {
    if (e.vacuous) ++vacuous;
  }
  if (vacuous > 0) out += " (" + std::to_string(vacuous) + " vacuous)";
  if (!frozen.empty()) {
    out += "; frozen:";
    for (const std::string& name : frozen) out += " " + name;
  }
  if (!tainted_domains.empty()) {
    out += "; withheld domains:";
    for (const std::string& name : tainted_domains) out += " " + name;
  }
  return out;
}

DynamicRelevanceChecker::DynamicRelevanceChecker(
    const datalog::Program* program, std::vector<DynamicChannelInfo> channels,
    const datalog::FactStore* store, DynamicRelevanceOptions options)
    : program_(program),
      channels_(std::move(channels)),
      store_(store),
      options_(std::move(options)) {}

void DynamicRelevanceChecker::BeginRound(
    const std::vector<bool>& has_pending) {
  round_begun_ = true;
  std::set<std::string> unfrozen;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      const DynamicChannelInfo& channel = channels_[i];
      if (!channel.fetchable || unfrozen.count(channel.view) > 0) continue;
      bool live = i < has_pending.size() && has_pending[i];
      for (std::size_t j = 0; !live && j < channel.bound_positions.size();
           ++j) {
        live = unfrozen.count(channel.domains[channel.bound_positions[j]]) > 0;
      }
      if (live) {
        unfrozen.insert(channel.view);
        changed = true;
      }
    }
    for (const Rule& rule : program_->rules()) {
      if (rule.is_fact() || unfrozen.count(rule.head.predicate) > 0) continue;
      for (const Atom& atom : rule.body) {
        if (unfrozen.count(atom.predicate) > 0) {
          unfrozen.insert(rule.head.predicate);
          changed = true;
          break;
        }
      }
    }
  }
  frozen_.clear();
  std::set<std::string> mentioned = program_->AllPredicates();
  for (const DynamicChannelInfo& channel : channels_) {
    mentioned.insert(channel.view);
    mentioned.insert(channel.domains.begin(), channel.domains.end());
  }
  for (const std::string& name : mentioned) {
    if (unfrozen.count(name) == 0) frozen_.insert(name);
  }
}

bool DynamicRelevanceChecker::HasMatchingFact(
    const std::string& predicate, const std::vector<uint32_t>& columns,
    const std::vector<ValueId>& values) const {
  const datalog::PredicateId pred = store_->FindPredicate(predicate);
  if (pred == datalog::kNoPredicate) return false;
  for (datalog::RowView row : store_->Facts(pred)) {
    bool match = true;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] >= row.size() || row[columns[i]] != values[i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

namespace {

/// Internals shared by TrySkip and VerifySkipCertificate, operating on
/// the checker's public surface so the verifier stays independent of how
/// TrySkip found its evidence.
struct TaintAnalysis {
  const DynamicRelevanceChecker& checker;
  const datalog::Program& program;
  const DynamicRelevanceOptions& options;

  bool IsDomainPred(const std::string& predicate) const {
    for (const DynamicChannelInfo& channel : checker.channels()) {
      for (const std::string& domain : channel.domains) {
        if (domain == predicate) return true;
      }
    }
    return false;
  }

  const DynamicChannelInfo* ChannelOf(const std::string& view,
                                      std::size_t template_index) const {
    for (const DynamicChannelInfo& channel : checker.channels()) {
      if (channel.view == view && channel.template_index == template_index) {
        return &channel;
      }
    }
    return nullptr;
  }

  /// Schema positions of `alpha`'s view that can carry withheld values:
  /// bound in some template with a currently-tainted domain.
  std::vector<std::size_t> JunkPositions(
      const std::string& view, const std::set<std::string>& tainted) const {
    std::vector<std::size_t> positions;
    for (const DynamicChannelInfo& channel : checker.channels()) {
      if (channel.view != view) continue;
      for (uint32_t pos : channel.bound_positions) {
        if (tainted.count(channel.domains[pos]) > 0 &&
            std::find(positions.begin(), positions.end(), pos) ==
                positions.end()) {
          positions.push_back(pos);
        }
      }
    }
    return positions;
  }

  /// Is `view + alpha_suffix` the name of some channel's alpha?
  const std::string* ViewOfAlpha(const std::string& predicate) const {
    const std::string& suffix = options.alpha_suffix;
    if (predicate.size() <= suffix.size() ||
        predicate.compare(predicate.size() - suffix.size(), suffix.size(),
                          suffix) != 0) {
      return nullptr;
    }
    const std::string view =
        predicate.substr(0, predicate.size() - suffix.size());
    for (const DynamicChannelInfo& channel : checker.channels()) {
      if (channel.view == view) return &channel.view;
    }
    return nullptr;
  }

  /// Can the occurrence `atom` fire on values the skip withheld? Junk
  /// variables: an alpha occurrence can carry withheld values only at
  /// positions bound from tainted domains (a withheld fact is new
  /// because its query used a withheld binding); any other tainted
  /// predicate is taken to be junk-feedable everywhere. A junk variable
  /// shared with an untainted co-atom is pinned: by attribute-global
  /// naming, the clean atom only holds cleanly derived values, so a
  /// withheld value at that position can never satisfy the join. The
  /// withheld value may sit at ANY junk position, so the firing is
  /// blocked only when EVERY junk variable is pinned; with no junk
  /// variables at all, no withheld value can enter through this
  /// occurrence.
  bool Unguarded(const Atom& atom, const std::vector<Atom>& body,
                 std::size_t atom_index,
                 const std::set<std::string>& tainted) const {
    std::vector<std::string> junk_vars;
    const std::string* alpha_view = ViewOfAlpha(atom.predicate);
    if (alpha_view != nullptr) {
      for (std::size_t pos : JunkPositions(*alpha_view, tainted)) {
        if (pos < atom.terms.size() && atom.terms[pos].is_variable()) {
          junk_vars.push_back(atom.terms[pos].var());
        }
      }
    } else {
      for (const Term& term : atom.terms) {
        if (term.is_variable()) junk_vars.push_back(term.var());
      }
    }
    for (const std::string& var : junk_vars) {
      bool guarded = false;
      for (std::size_t b = 0; b < body.size() && !guarded; ++b) {
        if (b == atom_index || tainted.count(body[b].predicate) > 0) continue;
        for (const Term& term : body[b].terms) {
          if (term.is_variable() && term.var() == var) {
            guarded = true;
            break;
          }
        }
      }
      if (!guarded) return true;
    }
    return false;
  }

  /// Seeds the taint set from the rules that consume the skipped view's
  /// raw EDB predicate, then closes it forward through fetchable
  /// channels and guarded rule firings. False = structural refusal (the
  /// EDB feeds a rule shape outside the built-program family).
  bool Compute(const DynamicChannelInfo& channel,
               std::span<const ValueId> combo,
               std::set<std::string>* tainted) const {
    const std::string alpha = channel.view + options.alpha_suffix;
    const ValueDictionary& dict = store_dict;
    for (const Rule& rule : program.rules()) {
      if (rule.is_fact()) continue;
      for (const Atom& atom : rule.body) {
        if (atom.predicate != channel.view) continue;
        if (rule.head.predicate == alpha) continue;
        if (rule.head.arity() != 1) return false;
        if (BindCombo(atom, channel, combo, dict).vacuous) continue;
        bool clean = false;
        const Term& head_term = rule.head.terms[0];
        if (head_term.is_variable()) {
          for (std::size_t i = 0; i < channel.bound_positions.size(); ++i) {
            const std::size_t pos = channel.bound_positions[i];
            const Term& term = atom.terms[pos];
            if (term.is_variable() && term.var() == head_term.var() &&
                channel.domains[pos] == rule.head.predicate) {
              // The head value is the queried binding itself, which the
              // evaluator drew from this very domain: nothing new.
              clean = true;
              break;
            }
          }
        }
        if (!clean) tainted->insert(rule.head.predicate);
      }
    }

    bool changed = true;
    while (changed) {
      changed = false;
      for (const DynamicChannelInfo& other : checker.channels()) {
        if (!other.fetchable) continue;
        bool reached = false;
        for (uint32_t pos : other.bound_positions) {
          if (tainted->count(other.domains[pos]) > 0) {
            reached = true;
            break;
          }
        }
        if (!reached) continue;
        if (tainted->insert(other.view).second) changed = true;
        for (std::size_t pos = 0; pos < other.domains.size(); ++pos) {
          const bool clean_bound =
              std::find(other.bound_positions.begin(),
                        other.bound_positions.end(),
                        pos) != other.bound_positions.end() &&
              tainted->count(other.domains[pos]) == 0;
          if (!clean_bound && tainted->insert(other.domains[pos]).second) {
            changed = true;
          }
        }
      }
      for (const Rule& rule : program.rules()) {
        if (rule.is_fact() || tainted->count(rule.head.predicate) > 0) {
          continue;
        }
        for (std::size_t a = 0; a < rule.body.size(); ++a) {
          if (tainted->count(rule.body[a].predicate) == 0) continue;
          if (Unguarded(rule.body[a], rule.body, a, *tainted)) {
            tainted->insert(rule.head.predicate);
            changed = true;
            break;
          }
        }
      }
    }
    for (const std::string& name : *tainted) {
      if (planner::IsGoalPredicate(name, options.goal_predicate)) return false;
    }
    return true;
  }

  const ValueDictionary& store_dict;
};

}  // namespace

std::optional<SkipCertificate> DynamicRelevanceChecker::TrySkip(
    std::size_t channel_index, std::span<const ValueId> combo) {
  if (!round_begun_ || channel_index >= channels_.size()) return std::nullopt;
  const DynamicChannelInfo& channel = channels_[channel_index];
  if (combo.size() != channel.bound_positions.size()) return std::nullopt;
  const std::string alpha = channel.view + options_.alpha_suffix;
  const ValueDictionary& dict = store_->dict();

  SkipCertificate certificate;
  certificate.view = channel.view;
  certificate.template_index = channel.template_index;
  for (ValueId id : combo) certificate.combo.push_back(dict.Get(id));
  std::set<std::string> frozen_used;

  // Level-one blocking: every body occurrence of the alpha predicate
  // must be unable to consume the withheld facts.
  const std::vector<Rule>& rules = program_->rules();
  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules[ri];
    for (std::size_t ai = 0; ai < rule.body.size(); ++ai) {
      const Atom& atom = rule.body[ai];
      if (atom.predicate != alpha) continue;
      if (atom.terms.size() != channel.attributes.size()) return std::nullopt;
      SkipCertificate::BlockingEvidence evidence;
      evidence.rule_index = ri;
      evidence.atom_index = ai;
      const ComboBinding binding = BindCombo(atom, channel, combo, dict);
      if (binding.vacuous) {
        evidence.vacuous = true;
        certificate.evidence.push_back(evidence);
        continue;
      }
      bool blocked = false;
      for (std::size_t bi = 0; bi < rule.body.size() && !blocked; ++bi) {
        if (bi == ai || !IsFrozen(rule.body[bi].predicate)) continue;
        const Atom& blocker = rule.body[bi];
        std::vector<uint32_t> columns;
        std::vector<ValueId> values;
        bool impossible = false;
        for (std::size_t t = 0; t < blocker.terms.size(); ++t) {
          const Term& term = blocker.terms[t];
          ValueId id;
          if (term.is_constant()) {
            if (!dict.Lookup(term.constant(), &id)) {
              // The constant was never interned, so no stored fact can
              // carry it: the frozen atom can never match at all.
              impossible = true;
              break;
            }
          } else {
            auto it = binding.vars.find(term.var());
            if (it == binding.vars.end()) continue;
            id = it->second;
          }
          columns.push_back(static_cast<uint32_t>(t));
          values.push_back(id);
        }
        if (impossible || !HasMatchingFact(blocker.predicate, columns,
                                           values)) {
          blocked = true;
          evidence.blocking_atom_index = bi;
          evidence.blocking_predicate = blocker.predicate;
          frozen_used.insert(blocker.predicate);
        }
      }
      if (!blocked) return std::nullopt;
      certificate.evidence.push_back(evidence);
    }
  }

  // Goal isolation: the withheld bindings' forward closure must miss
  // the goal.
  std::set<std::string> tainted;
  TaintAnalysis taint{*this, *program_, options_, dict};
  if (!taint.Compute(channel, combo, &tainted)) return std::nullopt;

  certificate.frozen.assign(frozen_used.begin(), frozen_used.end());
  for (const std::string& name : tainted) {
    if (taint.IsDomainPred(name)) certificate.tainted_domains.push_back(name);
  }
  return certificate;
}

Status VerifySkipCertificate(const DynamicRelevanceChecker& checker,
                             const SkipCertificate& certificate) {
  if (!checker.round_begun_) {
    return Status::InvalidArgument("checker has no active round");
  }
  const DynamicChannelInfo* channel = nullptr;
  for (const DynamicChannelInfo& candidate : checker.channels_) {
    if (candidate.view == certificate.view &&
        candidate.template_index == certificate.template_index) {
      channel = &candidate;
      break;
    }
  }
  if (channel == nullptr) {
    return Status::InvalidArgument("certificate names an unknown channel: " +
                                   certificate.view);
  }
  if (certificate.combo.size() != channel->bound_positions.size()) {
    return Status::InvalidArgument("combo arity mismatch for " +
                                   certificate.view);
  }
  const ValueDictionary& dict = checker.store_->dict();
  std::vector<ValueId> combo;
  for (const Value& value : certificate.combo) {
    ValueId id;
    if (!dict.Lookup(value, &id)) {
      return Status::InvalidArgument("combo value never observed: " +
                                     value.ToString());
    }
    combo.push_back(id);
  }
  const std::string alpha = channel->view + checker.options_.alpha_suffix;

  // The evidence must cover every alpha occurrence, exactly.
  const std::vector<Rule>& rules = checker.program_->rules();
  std::set<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    for (std::size_t ai = 0; ai < rules[ri].body.size(); ++ai) {
      if (rules[ri].body[ai].predicate == alpha) expected.insert({ri, ai});
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> covered;
  for (const SkipCertificate::BlockingEvidence& evidence :
       certificate.evidence) {
    covered.insert({evidence.rule_index, evidence.atom_index});
  }
  if (covered != expected) {
    return Status::InvalidArgument(
        "evidence does not cover the alpha occurrences of " + alpha);
  }

  const std::set<std::string> frozen_claimed(certificate.frozen.begin(),
                                             certificate.frozen.end());
  for (const SkipCertificate::BlockingEvidence& evidence :
       certificate.evidence) {
    const Rule& rule = rules[evidence.rule_index];
    const Atom& atom = rule.body[evidence.atom_index];
    const ComboBinding binding = BindCombo(atom, *channel, combo, dict);
    if (evidence.vacuous) {
      if (!binding.vacuous) {
        return Status::InvalidArgument(
            "occurrence claimed vacuous can match the combination (rule " +
            std::to_string(evidence.rule_index) + ")");
      }
      continue;
    }
    if (binding.vacuous) continue;  // stronger than claimed; still blocked
    if (evidence.blocking_atom_index >= rule.body.size() ||
        evidence.blocking_atom_index == evidence.atom_index) {
      return Status::InvalidArgument("blocking atom index out of range");
    }
    const Atom& blocker = rule.body[evidence.blocking_atom_index];
    if (blocker.predicate != evidence.blocking_predicate) {
      return Status::InvalidArgument("blocking predicate mismatch: " +
                                     evidence.blocking_predicate);
    }
    if (!checker.IsFrozen(blocker.predicate)) {
      return Status::InvalidArgument("blocking predicate is not frozen: " +
                                     blocker.predicate);
    }
    if (frozen_claimed.count(blocker.predicate) == 0) {
      return Status::InvalidArgument(
          "blocking predicate missing from the frozen list: " +
          blocker.predicate);
    }
    std::vector<uint32_t> columns;
    std::vector<ValueId> values;
    bool impossible = false;
    for (std::size_t t = 0; t < blocker.terms.size(); ++t) {
      const Term& term = blocker.terms[t];
      ValueId id;
      if (term.is_constant()) {
        if (!dict.Lookup(term.constant(), &id)) {
          impossible = true;
          break;
        }
      } else {
        auto it = binding.vars.find(term.var());
        if (it == binding.vars.end()) continue;
        id = it->second;
      }
      columns.push_back(static_cast<uint32_t>(t));
      values.push_back(id);
    }
    if (!impossible &&
        checker.HasMatchingFact(blocker.predicate, columns, values)) {
      return Status::InvalidArgument(
          "blocking atom has a matching fact in " + blocker.predicate);
    }
  }

  std::set<std::string> tainted;
  TaintAnalysis taint{checker, *checker.program_, checker.options_, dict};
  if (!taint.Compute(*channel, combo, &tainted)) {
    return Status::InvalidArgument(
        "taint closure reaches the goal (or the program is outside the "
        "analyzable family)");
  }
  std::vector<std::string> tainted_domains;
  for (const std::string& name : tainted) {
    if (taint.IsDomainPred(name)) tainted_domains.push_back(name);
  }
  if (tainted_domains != certificate.tainted_domains) {
    return Status::InvalidArgument(
        "withheld-domain set does not match the taint closure");
  }
  return Status::OK();
}

std::string RenderSkipCertificates(
    const std::vector<SkipCertificate>& certificates) {
  std::string out;
  for (const SkipCertificate& certificate : certificates) {
    out += certificate.ToString() + "\n";
  }
  return out;
}

}  // namespace limcap::analysis
