#include "analysis/relevance_fixpoint.h"

#include <algorithm>
#include <unordered_map>

#include "planner/program_builder.h"

namespace limcap::analysis {

using capability::SourceView;

RelevanceFixpoint::RelevanceFixpoint(const datalog::Program& program,
                                     const std::vector<SourceView>& views,
                                     const planner::DomainMap& domains) {
  std::unordered_map<std::string, uint32_t> ground_tuples;
  for (const datalog::Rule& rule : program.rules()) {
    RuleEntry entry;
    entry.head = names_.Intern(rule.head.predicate);
    for (const datalog::Atom& atom : rule.body) {
      entry.body.push_back(names_.Intern(atom.predicate));
    }
    if (std::none_of(rule.head.terms.begin(), rule.head.terms.end(),
                     [](const datalog::Term& term) {
                       return term.is_variable();
                     })) {
      entry.ground =
          ground_tuples.try_emplace(rule.head.ToString(), ground_tuples.size())
              .first->second;
    }
    rules_.push_back(std::move(entry));
  }
  program_predicates_ = static_cast<Id>(names_.size());
  for (const SourceView& view : views) {
    Id id;
    if (names_.Lookup(view.name(), &id) && id < program_predicates_) {
      AddView(view, id, domains);
    }
  }
  Run(ground_tuples.size());
}

RelevanceFixpoint RelevanceFixpoint::ColdStart(
    const std::vector<SourceView>& views, const planner::DomainMap& domains,
    const capability::AttributeSet& seeded) {
  RelevanceFixpoint fixpoint;
  for (const std::string& attribute : seeded) {
    fixpoint.rules_.push_back(
        {fixpoint.names_.Intern(domains.DomainOf(attribute)), {}, kNotGround});
  }
  for (const SourceView& view : views) {
    const Id id = fixpoint.names_.Intern(view.name());
    for (const std::string& attribute : view.schema().attributes()) {
      fixpoint.rules_.push_back(
          {fixpoint.names_.Intern(domains.DomainOf(attribute)), {id},
           kNotGround});
    }
    fixpoint.AddView(view, id, domains);
  }
  fixpoint.Run(0);
  return fixpoint;
}

void RelevanceFixpoint::AddView(const SourceView& view, Id id,
                                const planner::DomainMap& domains) {
  views_.push_back(&view);
  for (std::size_t t = 0; t < view.templates().size(); ++t) {
    Channel channel{&view, t, id, {}};
    for (std::size_t pos : view.templates()[t].BoundPositions()) {
      channel.bound.push_back(
          names_.Intern(domains.DomainOf(view.schema().attribute(pos))));
    }
    channels_.push_back(std::move(channel));
  }
}

void RelevanceFixpoint::Run(std::size_t ground_tuples) {
  const std::size_t n = names_.size();
  rules_using_.resize(n);
  channels_on_.resize(n);
  rules_deriving_.resize(n);
  view_channels_.assign(n, {0, 0});

  // Counters: distinct body predicates / bound domains not yet populated.
  // Owners are listed in increasing order, so a repeat is the list's tail.
  auto list_distinct = [](const std::vector<Id>& ids, uint32_t owner,
                          std::vector<std::vector<uint32_t>>* lists) {
    uint32_t distinct = 0;
    for (Id id : ids) {
      std::vector<uint32_t>& list = (*lists)[id];
      if (!list.empty() && list.back() == owner) continue;
      list.push_back(owner);
      ++distinct;
    }
    return distinct;
  };
  std::vector<uint32_t> rule_wait(rules_.size());
  std::vector<uint32_t> channel_wait(channels_.size());
  std::vector<uint32_t> firing;
  std::vector<uint32_t> opening;
  for (uint32_t r = 0; r < rules_.size(); ++r) {
    rules_deriving_[rules_[r].head].push_back(r);
    rule_wait[r] = list_distinct(rules_[r].body, r, &rules_using_);
    if (rule_wait[r] == 0) firing.push_back(r);
  }
  for (uint32_t c = 0; c < channels_.size(); ++c) {
    std::pair<uint32_t, uint32_t>& range =
        view_channels_[channels_[c].view_id];
    if (range.second == 0) range.first = c;
    range.second = c + 1;
    channel_wait[c] = list_distinct(channels_[c].bound, c, &channels_on_);
    if (channel_wait[c] == 0) opening.push_back(c);
  }

  fires_.assign(rules_.size(), false);
  depth_.assign(channels_.size(), ChannelVerdict::kNoDepth);
  populated_.assign(n, false);
  variable_.assign(n, false);
  constants_.assign(n, 0);
  std::vector<bool> tuple_seen(ground_tuples, false);
  auto populate = [&](Id id) {
    if (populated_[id]) return;
    populated_[id] = true;
    for (uint32_t r : rules_using_[id]) {
      if (--rule_wait[r] == 0) firing.push_back(r);
    }
    for (uint32_t c : channels_on_[id]) {
      if (--channel_wait[c] == 0) opening.push_back(c);
    }
  };
  for (std::size_t wave = 0;; ++wave) {
    while (!firing.empty()) {
      const uint32_t r = firing.back();
      firing.pop_back();
      fires_[r] = true;
      const RuleEntry& rule = rules_[r];
      if (rule.ground == kNotGround) {
        variable_[rule.head] = true;
      } else if (!tuple_seen[rule.ground]) {
        tuple_seen[rule.ground] = true;
        ++constants_[rule.head];
      }
      populate(rule.head);
    }
    if (opening.empty()) break;
    // Views these channels populate open further channels next wave.
    std::vector<uint32_t> wave_channels;
    wave_channels.swap(opening);
    for (uint32_t c : wave_channels) {
      depth_[c] = wave;
      variable_[channels_[c].view_id] = true;
      populate(channels_[c].view_id);
    }
  }
}

const SourceView* RelevanceFixpoint::FindView(std::string_view name) const {
  Id id;
  if (!names_.Lookup(name, &id) || view_channels_[id].second == 0) {
    return nullptr;
  }
  return channels_[view_channels_[id].first].view;
}

std::size_t RelevanceFixpoint::FindChannel(std::string_view view,
                                           std::size_t template_index) const {
  Id id;
  if (!names_.Lookup(view, &id)) return std::string::npos;
  const auto [first, end] = view_channels_[id];
  return template_index < end - first ? first + template_index
                                      : std::string::npos;
}

std::set<std::string> RelevanceFixpoint::OpenViews() const {
  std::set<std::string> views;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (open(c)) views.insert(channels_[c].view->name());
  }
  return views;
}

AbstractBinding RelevanceFixpoint::value(Id id) const {
  if (variable_[id]) return AbstractBinding::kVariable;
  return constants_[id] > 0 ? AbstractBinding::kConstant
                            : AbstractBinding::kBottom;
}

RelevanceFixpoint::Needed RelevanceFixpoint::Backward(
    const std::string& goal) const {
  Needed out;
  out.needed.assign(size(), false);
  out.parent.resize(size());
  std::vector<Id> queue;
  for (Id id = 0; id < program_predicates_; ++id) {
    if (planner::IsGoalPredicate(name(id), goal)) queue.push_back(id);
  }
  std::sort(queue.begin(), queue.end(),
            [&](Id a, Id b) { return name(a) < name(b); });
  for (Id id : queue) out.needed[id] = true;
  auto need = [&](Id id, Link link) {
    if (out.needed[id]) return;
    out.needed[id] = true;
    out.parent[id] = link;
    queue.push_back(id);
  };
  for (std::size_t next = 0; next < queue.size(); ++next) {
    const Id q = queue[next];
    for (uint32_t r : rules_deriving_[q]) {
      if (!fires_[r]) continue;
      for (Id id : rules_[r].body) need(id, {WitnessStep::Link::kRule, r, q});
    }
    for (uint32_t c = view_channels_[q].first; c < view_channels_[q].second;
         ++c) {
      if (!open(c)) continue;
      for (Id id : channels_[c].bound) {
        need(id, {WitnessStep::Link::kChannel, c, q});
      }
    }
  }
  return out;
}

}  // namespace limcap::analysis
