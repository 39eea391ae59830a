#include "analysis/binding_flow.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "analysis/relevance_fixpoint.h"
#include "common/string_util.h"
#include "planner/program_builder.h"

namespace limcap::analysis {

namespace {

using capability::BindingPattern;
using capability::SourceView;
using datalog::Atom;
using datalog::Program;
using datalog::Rule;

using Id = RelevanceFixpoint::Id;

/// The witness chain from `start` (a needed view) to the goal, following
/// the links the backward closure first needed each predicate through.
std::vector<WitnessStep> BuildWitness(const RelevanceFixpoint& fixpoint,
                                      const RelevanceFixpoint::Needed& needed,
                                      Id start) {
  std::vector<WitnessStep> steps;
  for (Id cur = start;; cur = needed.parent[cur].consumer) {
    const RelevanceFixpoint::Link& link = needed.parent[cur];
    WitnessStep step;
    step.predicate = fixpoint.name(cur);
    step.link = link.kind;
    if (link.kind == WitnessStep::Link::kRule) {
      step.rule_index = link.index;
    } else if (link.kind == WitnessStep::Link::kChannel) {
      const RelevanceFixpoint::Channel& channel =
          fixpoint.channels()[link.index];
      step.via_view = channel.view->name();
      step.via_template = channel.template_index;
    }
    steps.push_back(std::move(step));
    if (link.kind == WitnessStep::Link::kGoal) return steps;
  }
}

std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  if (b > std::numeric_limits<std::uint64_t>::max() - a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a + b;
}

/// `"a","b",...` for the strings of `items`.
template <typename Strings>
std::string JsonStrings(const Strings& items) {
  return JoinMapped(items, ",", [](const std::string& item) {
    return StrCat({"\"", JsonEscape(item), "\""});
  });
}

std::string ChannelLabel(const ChannelVerdict& verdict) {
  return "channel " + verdict.view + "[" +
         std::to_string(verdict.template_index) + "] '" + verdict.adornment +
         "'";
}

std::string WitnessChainText(const std::vector<WitnessStep>& steps) {
  std::string out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const WitnessStep& step = steps[i];
    out += step.predicate;
    if (i + 1 == steps.size()) break;
    if (step.link == WitnessStep::Link::kRule) {
      out += " -(rule " + std::to_string(step.rule_index) + ")-> ";
    } else {
      out += " -(channel " + step.via_view + "[" +
             std::to_string(step.via_template) + "])-> ";
    }
  }
  return out;
}

}  // namespace

const char* AbstractBindingToString(AbstractBinding binding) {
  switch (binding) {
    case AbstractBinding::kBottom:
      return "bottom";
    case AbstractBinding::kConstant:
      return "constant";
    case AbstractBinding::kVariable:
      return "variable";
  }
  return "bottom";
}

std::vector<std::pair<std::string, std::size_t>>
BindingFlowResult::PrunedChannels() const {
  std::vector<std::pair<std::string, std::size_t>> pruned;
  for (const ChannelVerdict& verdict : channels) {
    if (!verdict.relevant) {
      pruned.emplace_back(verdict.view, verdict.template_index);
    }
  }
  return pruned;
}

BindingFlowResult AnalyzeBindingFlow(const Program& program,
                                     const std::vector<SourceView>& views,
                                     const planner::DomainMap& domains,
                                     const BindingFlowOptions& options) {
  return AnalyzeBindingFlow(RelevanceFixpoint(program, views, domains),
                            options.goal_predicate);
}

BindingFlowResult AnalyzeBindingFlow(const RelevanceFixpoint& fixpoint,
                                     const std::string& goal) {
  BindingFlowResult result;
  const RelevanceFixpoint::Needed needed = fixpoint.Backward(goal);

  std::vector<std::string> populated;
  for (Id id = 0; id < fixpoint.size(); ++id) {
    if (fixpoint.populated(id)) {
      populated.push_back(fixpoint.name(id));
      result.predicate_values[fixpoint.name(id)] = fixpoint.value(id);
    }
    if (needed.needed[id]) result.needed_predicates.insert(fixpoint.name(id));
  }
  std::sort(populated.begin(), populated.end());
  const std::vector<std::string> needed_sorted(
      result.needed_predicates.begin(), result.needed_predicates.end());

  for (std::size_t c = 0; c < fixpoint.channels().size(); ++c) {
    const RelevanceFixpoint::Channel& channel = fixpoint.channels()[c];
    const BindingPattern& pattern =
        channel.view->templates()[channel.template_index];
    ChannelVerdict verdict;
    verdict.view = channel.view->name();
    verdict.template_index = channel.template_index;
    verdict.adornment = pattern.ToString();

    if (!fixpoint.open(c)) {
      // Never formable: certify with the forward-closed populated set and
      // the first missing bound domain.
      verdict.certificate.kind = PruningCertificate::Kind::kUnreachability;
      verdict.certificate.closed_set = populated;
      for (Id domain : channel.bound) {
        if (fixpoint.populated(domain)) continue;
        verdict.certificate.missing_domain = fixpoint.name(domain);
        break;
      }
      result.channels.push_back(std::move(verdict));
      continue;
    }

    verdict.reachable = true;
    verdict.frontier_depth = fixpoint.depth(c);
    verdict.reachable_pattern.reserve(channel.view->schema().arity());
    bool all_constant = true;
    std::uint64_t bound = 1;
    std::size_t next_bound = 0;
    for (std::size_t pos = 0; pos < channel.view->schema().arity(); ++pos) {
      if (!pattern.IsBound(pos)) {
        verdict.reachable_pattern += 'f';
        continue;
      }
      const Id domain = channel.bound[next_bound++];
      if (fixpoint.value(domain) == AbstractBinding::kConstant) {
        verdict.reachable_pattern += 'c';
        bound = SaturatingMul(bound, fixpoint.constants(domain));
      } else {
        verdict.reachable_pattern += 'v';
        all_constant = false;
      }
    }
    verdict.fetch_bound_finite = all_constant;
    if (all_constant) verdict.fetch_bound = bound;

    if (needed.needed[channel.view_id]) {
      verdict.relevant = true;
      verdict.certificate.kind = PruningCertificate::Kind::kWitness;
      verdict.certificate.steps =
          BuildWitness(fixpoint, needed, channel.view_id);
    } else {
      verdict.certificate.kind = PruningCertificate::Kind::kIrrelevance;
      verdict.certificate.closed_set = needed_sorted;
    }
    result.channels.push_back(std::move(verdict));
  }

  // Per-source aggregation over reachable channels; a view's channels
  // are adjacent.
  for (std::size_t c = 0; c < result.channels.size();) {
    SourceBounds bounds;
    bounds.view = result.channels[c].view;
    bounds.frontier_depth = ChannelVerdict::kNoDepth;
    bounds.fetch_bound_finite = true;
    bool any = false;
    for (; c < result.channels.size() &&
           result.channels[c].view == bounds.view;
         ++c) {
      const ChannelVerdict& verdict = result.channels[c];
      if (!verdict.reachable) continue;
      any = true;
      bounds.frontier_depth =
          std::min(bounds.frontier_depth, verdict.frontier_depth);
      if (verdict.fetch_bound_finite) {
        bounds.fetch_bound =
            SaturatingAdd(bounds.fetch_bound, verdict.fetch_bound);
      } else {
        bounds.fetch_bound_finite = false;
      }
    }
    if (any) result.sources.push_back(std::move(bounds));
  }
  return result;
}

void AppendBindingFlowDiagnostics(const Program& program,
                                  const BindingFlowResult& result,
                                  const datalog::ProgramSourceMap* source_map,
                                  DiagnosticBag* bag) {
  // Anchor a channel diagnostic at the first body atom mentioning its
  // view (the alpha rule in builder programs).
  auto channel_location = [&](const std::string& view) {
    for (std::size_t r = 0; r < program.rules().size(); ++r) {
      const Rule& rule = program.rules()[r];
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        if (rule.body[i].predicate != view) continue;
        return RuleLocation(program, source_map, r, static_cast<int>(i));
      }
    }
    return Location();
  };

  for (const ChannelVerdict& verdict : result.channels) {
    if (!verdict.reachable) {
      Diagnostic& d = bag->Report(
          Code::kUnreachableChannel,
          ChannelLabel(verdict) + " is unreachable: bound domain '" +
              verdict.certificate.missing_domain +
              "' is never populated under the query's input bindings",
          channel_location(verdict.view));
      d.notes.push_back(
          "refutation: forward-closed populated set of " +
          std::to_string(verdict.certificate.closed_set.size()) +
          " predicate(s) excludes '" + verdict.certificate.missing_domain +
          "'");
    } else if (!verdict.relevant) {
      Diagnostic& d = bag->Report(
          Code::kStaticallyIrrelevantChannel,
          ChannelLabel(verdict) + " is statically irrelevant: reachable " +
              "pattern '" + verdict.reachable_pattern +
              "' can never feed the goal",
          channel_location(verdict.view));
      d.notes.push_back(
          "refutation: backward-closed needed set of " +
          std::to_string(verdict.certificate.closed_set.size()) +
          " predicate(s) excludes '" + verdict.view + "'");
    }
  }
  for (const SourceBounds& bounds : result.sources) {
    std::string message = "source " + bounds.view + ": frontier depth " +
                          std::to_string(bounds.frontier_depth);
    if (bounds.fetch_bound_finite) {
      message += ", at most " + std::to_string(bounds.fetch_bound) +
                 " source quer" + (bounds.fetch_bound == 1 ? "y" : "ies");
    } else {
      message += ", unbounded source queries";
    }
    bag->Report(Code::kStaticBounds, std::move(message),
                channel_location(bounds.view));
  }
}

Status VerifyCertificate(const Program& program,
                         const std::vector<SourceView>& views,
                         const planner::DomainMap& domains,
                         const BindingFlowOptions& options,
                         const ChannelVerdict& verdict) {
  const RelevanceFixpoint fixpoint(program, views, domains);
  const PruningCertificate& certificate = verdict.certificate;
  // The channel `view`[`template_index`] and whether it opens; null when
  // the catalog has no such channel.
  auto channel_of = [&](const std::string& view, std::size_t template_index,
                        bool* open) -> const RelevanceFixpoint::Channel* {
    const std::size_t c = fixpoint.FindChannel(view, template_index);
    if (c == std::string::npos) return nullptr;
    *open = fixpoint.open(c);
    return &fixpoint.channels()[c];
  };
  auto bound_on = [&](const RelevanceFixpoint::Channel& channel,
                      const std::string& domain) {
    return std::any_of(channel.bound.begin(), channel.bound.end(),
                       [&](Id id) { return fixpoint.name(id) == domain; });
  };
  auto label = [](const std::string& view, std::size_t template_index) {
    return view + "[" + std::to_string(template_index) + "]";
  };

  switch (certificate.kind) {
    case PruningCertificate::Kind::kNone:
      return Status::InvalidArgument("certificate missing");

    case PruningCertificate::Kind::kWitness: {
      if (certificate.steps.empty()) {
        return Status::InvalidArgument("witness: empty chain");
      }
      if (certificate.steps.front().predicate != verdict.view) {
        return Status::InvalidArgument(
            "witness: chain does not start at the channel's view");
      }
      bool open = false;
      if (channel_of(verdict.view, verdict.template_index, &open) == nullptr ||
          !open) {
        return Status::InvalidArgument(
            "witness: the certified channel is not reachable");
      }
      for (std::size_t i = 0; i + 1 < certificate.steps.size(); ++i) {
        const WitnessStep& step = certificate.steps[i];
        const std::string& next = certificate.steps[i + 1].predicate;
        if (step.link == WitnessStep::Link::kRule) {
          const std::string rule_label = std::to_string(step.rule_index);
          if (step.rule_index >= program.rules().size()) {
            return Status::InvalidArgument("witness: rule index out of range");
          }
          const Rule& rule = program.rules()[step.rule_index];
          if (!fixpoint.fires(step.rule_index)) {
            return Status::InvalidArgument("witness: rule " + rule_label +
                                           " can never fire");
          }
          if (rule.head.predicate != next) {
            return Status::InvalidArgument("witness: rule " + rule_label +
                                           " does not derive '" + next + "'");
          }
          if (std::none_of(rule.body.begin(), rule.body.end(),
                           [&](const Atom& atom) {
                             return atom.predicate == step.predicate;
                           })) {
            return Status::InvalidArgument("witness: '" + step.predicate +
                                           "' not in body of rule " +
                                           rule_label);
          }
        } else if (step.link == WitnessStep::Link::kChannel) {
          const RelevanceFixpoint::Channel* channel =
              channel_of(step.via_view, step.via_template, &open);
          if (channel == nullptr) {
            return Status::InvalidArgument("witness: unknown channel link");
          }
          if (step.via_view != next) {
            return Status::InvalidArgument(
                "witness: channel link does not feed '" + next + "'");
          }
          if (!open) {
            return Status::InvalidArgument(
                "witness: channel " + label(step.via_view, step.via_template) +
                " is not reachable");
          }
          if (!bound_on(*channel, step.predicate)) {
            return Status::InvalidArgument(
                "witness: '" + step.predicate +
                "' is not a bound domain of the channel link");
          }
        } else {
          return Status::InvalidArgument(
              "witness: goal link before end of chain");
        }
      }
      const WitnessStep& last = certificate.steps.back();
      if (last.link != WitnessStep::Link::kGoal ||
          !planner::IsGoalPredicate(last.predicate, options.goal_predicate)) {
        return Status::InvalidArgument(
            "witness: chain does not terminate at the goal");
      }
      return Status::OK();
    }

    case PruningCertificate::Kind::kIrrelevance: {
      const std::set<std::string> closed(certificate.closed_set.begin(),
                                         certificate.closed_set.end());
      if (closed.count(verdict.view) > 0) {
        return Status::InvalidArgument(
            "irrelevance: closed set contains the channel's view");
      }
      for (const std::string& predicate : program.AllPredicates()) {
        if (planner::IsGoalPredicate(predicate, options.goal_predicate) &&
            closed.count(predicate) == 0) {
          return Status::InvalidArgument(
              "irrelevance: goal '" + predicate + "' missing from closed set");
        }
      }
      for (std::size_t r = 0; r < program.rules().size(); ++r) {
        const Rule& rule = program.rules()[r];
        if (!fixpoint.fires(r) || closed.count(rule.head.predicate) == 0) {
          continue;
        }
        for (const Atom& atom : rule.body) {
          if (closed.count(atom.predicate) == 0) {
            return Status::InvalidArgument(
                "irrelevance: not closed under rule " + std::to_string(r) +
                " ('" + atom.predicate + "' missing)");
          }
        }
      }
      for (std::size_t c = 0; c < fixpoint.channels().size(); ++c) {
        const RelevanceFixpoint::Channel& channel = fixpoint.channels()[c];
        if (!fixpoint.open(c) || closed.count(channel.view->name()) == 0) {
          continue;
        }
        for (Id domain : channel.bound) {
          if (closed.count(fixpoint.name(domain)) == 0) {
            return Status::InvalidArgument(
                "irrelevance: not closed under channel " +
                label(channel.view->name(), channel.template_index) + " ('" +
                fixpoint.name(domain) + "' missing)");
          }
        }
      }
      return Status::OK();
    }

    case PruningCertificate::Kind::kUnreachability: {
      const std::set<std::string> closed(certificate.closed_set.begin(),
                                         certificate.closed_set.end());
      auto all_closed = [&](const auto& items, const auto& name_of) {
        return std::all_of(items.begin(), items.end(), [&](const auto& item) {
          return closed.count(name_of(item)) > 0;
        });
      };
      bool open = false;
      const RelevanceFixpoint::Channel* channel =
          channel_of(verdict.view, verdict.template_index, &open);
      if (channel == nullptr) {
        return Status::InvalidArgument("unreachability: unknown channel");
      }
      if (closed.count(certificate.missing_domain) > 0) {
        return Status::InvalidArgument(
            "unreachability: '" + certificate.missing_domain +
            "' is in the closed set");
      }
      if (!bound_on(*channel, certificate.missing_domain)) {
        return Status::InvalidArgument(
            "unreachability: '" + certificate.missing_domain +
            "' is not a bound domain of the channel");
      }
      for (std::size_t r = 0; r < program.rules().size(); ++r) {
        const Rule& rule = program.rules()[r];
        if (all_closed(rule.body,
                       [](const Atom& atom) { return atom.predicate; }) &&
            closed.count(rule.head.predicate) == 0) {
          return Status::InvalidArgument(
              "unreachability: not closed under rule " + std::to_string(r));
        }
      }
      for (const RelevanceFixpoint::Channel& other : fixpoint.channels()) {
        if (all_closed(other.bound,
                       [&](Id id) { return fixpoint.name(id); }) &&
            closed.count(other.view->name()) == 0) {
          return Status::InvalidArgument(
              "unreachability: not closed under channel " +
              label(other.view->name(), other.template_index));
        }
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown certificate kind");
}

std::string RenderBindingFlowText(const BindingFlowResult& result) {
  std::size_t relevant = 0, irrelevant = 0, unreachable = 0;
  for (const ChannelVerdict& verdict : result.channels) {
    if (!verdict.reachable) {
      ++unreachable;
    } else if (!verdict.relevant) {
      ++irrelevant;
    } else {
      ++relevant;
    }
  }
  std::ostringstream out;
  out << "binding flow: " << result.channels.size() << " channel(s), "
      << relevant << " relevant, " << irrelevant << " irrelevant, "
      << unreachable << " unreachable\n";
  for (const ChannelVerdict& verdict : result.channels) {
    out << ChannelLabel(verdict) << ": ";
    if (!verdict.reachable) {
      out << "unreachable\n  refutation: bound domain '"
          << verdict.certificate.missing_domain
          << "' is never populated; populated = {"
          << Join(verdict.certificate.closed_set, ", ") << "}\n";
      continue;
    }
    out << "pattern=" << verdict.reachable_pattern << " depth="
        << verdict.frontier_depth;
    if (verdict.fetch_bound_finite) {
      out << " fetches<=" << verdict.fetch_bound;
    } else {
      out << " fetches=unbounded";
    }
    if (verdict.relevant) {
      out << " relevant\n  witness: "
          << WitnessChainText(verdict.certificate.steps) << "\n";
    } else {
      out << " irrelevant\n  refutation: needed = {"
          << Join(verdict.certificate.closed_set, ", ") << "}; '"
          << verdict.view << "' is outside it\n";
    }
  }
  for (const SourceBounds& bounds : result.sources) {
    out << "source " << bounds.view << ": frontier depth "
        << bounds.frontier_depth << ", ";
    if (bounds.fetch_bound_finite) {
      out << "fetches<=" << bounds.fetch_bound << "\n";
    } else {
      out << "fetches=unbounded\n";
    }
  }
  return out.str();
}

std::string RenderBindingFlowJson(const BindingFlowResult& result) {
  std::ostringstream out;
  out << "{\"channels\":[";
  bool first = true;
  for (const ChannelVerdict& verdict : result.channels) {
    if (!first) out << ",";
    first = false;
    out << "{\"view\":\"" << JsonEscape(verdict.view) << "\""
        << ",\"template\":" << verdict.template_index << ",\"adornment\":\""
        << verdict.adornment << "\"" << ",\"reachable\":"
        << (verdict.reachable ? "true" : "false") << ",\"relevant\":"
        << (verdict.relevant ? "true" : "false");
    if (verdict.reachable) {
      out << ",\"pattern\":\"" << verdict.reachable_pattern << "\""
          << ",\"frontier_depth\":" << verdict.frontier_depth;
      if (verdict.fetch_bound_finite) {
        out << ",\"fetch_bound\":" << verdict.fetch_bound;
      }
    }
    out << ",\"certificate\":{";
    switch (verdict.certificate.kind) {
      case PruningCertificate::Kind::kNone:
        out << "\"kind\":\"none\"";
        break;
      case PruningCertificate::Kind::kWitness: {
        out << "\"kind\":\"witness\",\"steps\":[";
        bool first_step = true;
        for (const WitnessStep& step : verdict.certificate.steps) {
          if (!first_step) out << ",";
          first_step = false;
          out << "{\"predicate\":\"" << JsonEscape(step.predicate) << "\"";
          switch (step.link) {
            case WitnessStep::Link::kRule:
              out << ",\"link\":\"rule\",\"rule\":" << step.rule_index;
              break;
            case WitnessStep::Link::kChannel:
              out << ",\"link\":\"channel\",\"view\":\""
                  << JsonEscape(step.via_view) << "\",\"template\":"
                  << step.via_template;
              break;
            case WitnessStep::Link::kGoal:
              out << ",\"link\":\"goal\"";
              break;
          }
          out << "}";
        }
        out << "]";
        break;
      }
      case PruningCertificate::Kind::kIrrelevance:
      case PruningCertificate::Kind::kUnreachability: {
        out << "\"kind\":\""
            << (verdict.certificate.kind ==
                        PruningCertificate::Kind::kIrrelevance
                    ? "irrelevance"
                    : "unreachability")
            << "\",\"closed_set\":["
            << JsonStrings(verdict.certificate.closed_set) << "]";
        if (!verdict.certificate.missing_domain.empty()) {
          out << ",\"missing_domain\":\""
              << JsonEscape(verdict.certificate.missing_domain) << "\"";
        }
        break;
      }
    }
    out << "}}";
  }
  out << "],\"sources\":[";
  first = true;
  for (const SourceBounds& bounds : result.sources) {
    if (!first) out << ",";
    first = false;
    out << "{\"view\":\"" << JsonEscape(bounds.view) << "\""
        << ",\"frontier_depth\":" << bounds.frontier_depth;
    if (bounds.fetch_bound_finite) {
      out << ",\"fetch_bound\":" << bounds.fetch_bound;
    }
    out << "}";
  }
  out << "],\"needed\":[" << JsonStrings(result.needed_predicates);
  out << "]}";
  return out.str();
}

}  // namespace limcap::analysis
