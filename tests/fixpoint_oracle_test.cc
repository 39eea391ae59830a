// A deliberately naive, string-keyed reference for the static relevance
// fixpoint, checked against what the analyzer reports.
//
// The reference rescans every rule and every mentioned fetch channel
// until nothing changes, in waves: close the rules, then open every
// channel whose bound domains are all populated (the wave number is the
// channel's frontier depth). The backward closure rescans the firing
// rules and open channels from the goals until the needed set stops
// growing. Semantics are the evaluator's (Section 3.3): a mentioned view
// with an open channel populates its predicate, a bound domain counts as
// populated whatever populates it, and a rule fires iff every body
// predicate is populated.
//
// Compared on the paper's examples, on generated chain/star/random
// queries under the default and a grouped DomainMap, and on hand-written
// edge cases: per-rule can_fire and dead atoms, the producible and
// fetchable sets, every channel's reachability, depth, pattern, fetch
// bound and relevance, and the needed set.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/binding_flow.h"
#include "analysis/executability.h"
#include "capability/catalog_text.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "paperdata/paper_examples.h"
#include "planner/program_optimizer.h"
#include "workload/generator.h"

namespace limcap {
namespace {

using analysis::BindingFlowResult;
using analysis::ChannelVerdict;
using analysis::ExecutabilityResult;
using capability::SourceView;
using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

/// The reference's view of one channel.
struct RefChannel {
  std::string view;
  std::size_t template_index = 0;
  bool reachable = false;
  std::size_t frontier_depth = ChannelVerdict::kNoDepth;
  std::string reachable_pattern;
  bool fetch_bound_finite = false;
  std::uint64_t fetch_bound = 0;
  bool relevant = false;
};

struct Reference {
  std::vector<bool> fires;
  std::vector<std::vector<std::size_t>> dead_atoms;
  std::set<std::string> producible;
  std::set<std::string> fetchable;
  std::set<std::string> needed;
  std::vector<RefChannel> channels;
};

bool IsGoal(const std::string& predicate, const std::string& goal) {
  return predicate == goal ||
         predicate.compare(0, goal.size() + 1, goal + "$") == 0;
}

bool Ground(const Atom& atom) {
  for (const Term& term : atom.terms) {
    if (term.is_variable()) return false;
  }
  return true;
}

Reference RunReference(const Program& program,
                       const std::vector<SourceView>& views,
                       const planner::DomainMap& domains,
                       const std::string& goal) {
  Reference ref;
  const std::vector<Rule>& rules = program.rules();
  const std::set<std::string> mentioned_names = program.AllPredicates();
  std::vector<const SourceView*> mentioned;
  for (const SourceView& view : views) {
    if (mentioned_names.count(view.name()) > 0) mentioned.push_back(&view);
  }

  std::set<std::string> populated;
  std::set<std::string> var_derived;
  std::map<std::string, std::set<std::string>> constants;
  std::map<std::pair<std::string, std::size_t>, std::size_t> open;
  auto bound_domains = [&](const SourceView& view, std::size_t t) {
    std::vector<std::string> out;
    for (std::size_t pos : view.templates()[t].BoundPositions()) {
      out.push_back(domains.DomainOf(view.schema().attribute(pos)));
    }
    return out;
  };

  ref.fires.assign(rules.size(), false);
  for (std::size_t wave = 0;; ++wave) {
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t r = 0; r < rules.size(); ++r) {
        if (ref.fires[r]) continue;
        bool fireable = true;
        for (const Atom& atom : rules[r].body) {
          fireable = fireable && populated.count(atom.predicate) > 0;
        }
        if (!fireable) continue;
        ref.fires[r] = true;
        changed = true;
        const Atom& head = rules[r].head;
        populated.insert(head.predicate);
        ref.producible.insert(head.predicate);
        if (Ground(head)) {
          constants[head.predicate].insert(head.ToString());
        } else {
          var_derived.insert(head.predicate);
        }
      }
    }
    std::vector<std::pair<std::string, std::size_t>> newly;
    for (const SourceView* view : mentioned) {
      for (std::size_t t = 0; t < view->templates().size(); ++t) {
        if (open.count({view->name(), t}) > 0) continue;
        bool formable = true;
        for (const std::string& domain : bound_domains(*view, t)) {
          formable = formable && populated.count(domain) > 0;
        }
        if (formable) newly.emplace_back(view->name(), t);
      }
    }
    if (newly.empty()) break;
    for (const auto& key : newly) {
      open.emplace(key, wave);
      populated.insert(key.first);
      ref.fetchable.insert(key.first);
    }
  }

  ref.dead_atoms.resize(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (ref.fires[r]) continue;
    for (std::size_t i = 0; i < rules[r].body.size(); ++i) {
      if (populated.count(rules[r].body[i].predicate) == 0) {
        ref.dead_atoms[r].push_back(i);
      }
    }
  }

  for (const std::string& predicate : mentioned_names) {
    if (IsGoal(predicate, goal)) ref.needed.insert(predicate);
  }
  for (bool changed = true; changed;) {
    changed = false;
    auto need = [&](const std::string& predicate) {
      changed |= ref.needed.insert(predicate).second;
    };
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (!ref.fires[r] || ref.needed.count(rules[r].head.predicate) == 0) {
        continue;
      }
      for (const Atom& atom : rules[r].body) need(atom.predicate);
    }
    for (const SourceView* view : mentioned) {
      if (ref.needed.count(view->name()) == 0) continue;
      for (std::size_t t = 0; t < view->templates().size(); ++t) {
        if (open.count({view->name(), t}) == 0) continue;
        for (const std::string& domain : bound_domains(*view, t)) {
          need(domain);
        }
      }
    }
  }

  for (const SourceView* view : mentioned) {
    for (std::size_t t = 0; t < view->templates().size(); ++t) {
      RefChannel channel;
      channel.view = view->name();
      channel.template_index = t;
      auto it = open.find({view->name(), t});
      if (it != open.end()) {
        channel.reachable = true;
        channel.frontier_depth = it->second;
        channel.relevant = ref.needed.count(view->name()) > 0;
        channel.fetch_bound_finite = true;
        channel.fetch_bound = 1;
        const capability::BindingPattern& pattern = view->templates()[t];
        for (std::size_t pos = 0; pos < view->schema().arity(); ++pos) {
          if (!pattern.IsBound(pos)) {
            channel.reachable_pattern += 'f';
            continue;
          }
          const std::string domain =
              domains.DomainOf(view->schema().attribute(pos));
          if (var_derived.count(domain) > 0 ||
              ref.fetchable.count(domain) > 0) {
            channel.reachable_pattern += 'v';
            channel.fetch_bound_finite = false;
          } else {
            channel.reachable_pattern += 'c';
            channel.fetch_bound *= constants.at(domain).size();
          }
        }
        if (!channel.fetch_bound_finite) channel.fetch_bound = 0;
      }
      ref.channels.push_back(std::move(channel));
    }
  }
  return ref;
}

/// Checks the executability verdicts against the reference.
void ExpectExecutabilityMatches(const Reference& ref,
                                const ExecutabilityResult& result,
                                const std::string& label) {
  ASSERT_EQ(result.rules.size(), ref.fires.size()) << label;
  for (std::size_t r = 0; r < ref.fires.size(); ++r) {
    EXPECT_EQ(result.rules[r].can_fire, ref.fires[r])
        << label << ": can_fire of rule " << r;
    EXPECT_EQ(result.rules[r].dead_atoms, ref.dead_atoms[r])
        << label << ": dead atoms of rule " << r;
  }
  EXPECT_EQ(result.producible, ref.producible) << label << ": producible";
  EXPECT_EQ(result.fetchable_views, ref.fetchable) << label << ": fetchable";
}

/// Checks the binding-flow verdicts against the reference, and that
/// every certificate verifies.
void ExpectBindingFlowMatches(const Reference& ref,
                              const BindingFlowResult& result,
                              const std::string& label) {
  EXPECT_EQ(result.needed_predicates, ref.needed) << label << ": needed";
  ASSERT_EQ(result.channels.size(), ref.channels.size()) << label;
  for (std::size_t c = 0; c < ref.channels.size(); ++c) {
    const RefChannel& want = ref.channels[c];
    const ChannelVerdict& got = result.channels[c];
    const std::string where = label + ": channel " + want.view + "[" +
                              std::to_string(want.template_index) + "]";
    EXPECT_EQ(got.view, want.view) << where;
    EXPECT_EQ(got.template_index, want.template_index) << where;
    EXPECT_EQ(got.reachable, want.reachable) << where;
    EXPECT_EQ(got.frontier_depth, want.frontier_depth) << where;
    EXPECT_EQ(got.reachable_pattern, want.reachable_pattern) << where;
    EXPECT_EQ(got.fetch_bound_finite, want.fetch_bound_finite) << where;
    EXPECT_EQ(got.fetch_bound, want.fetch_bound) << where;
    EXPECT_EQ(got.relevant, want.relevant) << where;
  }
}

void ExpectVerdictsMatch(const Program& program,
                         const std::vector<SourceView>& views,
                         const planner::DomainMap& domains,
                         const std::string& goal, const std::string& label) {
  const Reference ref = RunReference(program, views, domains, goal);

  ExpectExecutabilityMatches(
      ref, analysis::AnalyzeExecutability(program, views, domains), label);
  analysis::BindingFlowOptions flow_options;
  flow_options.goal_predicate = goal;
  const BindingFlowResult flow =
      analysis::AnalyzeBindingFlow(program, views, domains, flow_options);
  ExpectBindingFlowMatches(ref, flow, label);
  for (const ChannelVerdict& verdict : flow.channels) {
    Status status = analysis::VerifyCertificate(program, views, domains,
                                                flow_options, verdict);
    EXPECT_TRUE(status.ok()) << label << ": certificate of " << verdict.view
                             << "[" << verdict.template_index
                             << "]: " << status.message();
  }

  // The analyzer's own run feeds both consumers from one pass.
  analysis::AnalysisOptions options;
  options.goal_predicate = goal;
  options.domains = domains;
  options.check_binding_flow = true;
  const analysis::AnalysisResult analysis =
      analysis::AnalyzeProgram(program, views, options);
  ExpectExecutabilityMatches(ref, analysis.executability,
                             label + " (AnalyzeProgram)");
  ExpectBindingFlowMatches(ref, analysis.binding_flow,
                           label + " (AnalyzeProgram)");
}

/// Plans `query` and checks the full and the optimized program.
void ExpectPlannedProgramsMatch(const planner::Query& query,
                                const std::vector<SourceView>& views,
                                const planner::DomainMap& domains,
                                const planner::BuilderOptions& builder,
                                const std::string& label) {
  auto plan = planner::PlanQuery(query, views, domains, builder);
  ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().message();
  auto full = planner::BuildFullProgram(query, views, domains, builder);
  ASSERT_TRUE(full.ok()) << label << ": " << full.status().message();
  ExpectVerdictsMatch(*full, views, domains, builder.goal_predicate,
                      label + " full");
  ExpectVerdictsMatch(plan->optimized_program, views, domains,
                      builder.goal_predicate, label + " optimized");
}

TEST(FixpointOracleTest, PaperExamples) {
  const std::vector<std::pair<const char*, paperdata::PaperExample (*)()>>
      examples = {{"example 2.1", paperdata::MakeExample21},
                  {"example 4.1", paperdata::MakeExample41},
                  {"example 5.1", paperdata::MakeExample51},
                  {"example 5.2", paperdata::MakeExample52}};
  for (const auto& [label, make] : examples) {
    const paperdata::PaperExample example = make();
    planner::BuilderOptions builder;
    ExpectPlannedProgramsMatch(example.query, example.views, example.domains,
                               builder, label);
    builder.per_connection_goals = true;
    ExpectPlannedProgramsMatch(example.query, example.views, example.domains,
                               builder, std::string(label) + " tagged");
  }
}

/// Every odd-numbered attribute shares its predecessor's domain.
planner::DomainMap GroupedDomains(const workload::GeneratedInstance& instance) {
  planner::DomainMap grouped;
  for (std::size_t i = 1; i < instance.attributes.size(); i += 2) {
    grouped.SetDomain(instance.attributes[i],
                      "dom" + instance.attributes[i - 1]);
  }
  return grouped;
}

TEST(FixpointOracleTest, GeneratedQueries) {
  constexpr std::size_t kQueriesPerInstance = 8;
  constexpr std::uint64_t kMaxQuerySeeds = 64;
  std::size_t compared = 0;
  for (auto topology : {workload::CatalogSpec::Topology::kChain,
                        workload::CatalogSpec::Topology::kStar,
                        workload::CatalogSpec::Topology::kRandom}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      workload::CatalogSpec spec;
      spec.topology = topology;
      spec.seed = seed * 7919 + 97;
      spec.num_views = 8;
      spec.num_attributes = 7;
      spec.tuples_per_view = 5;
      spec.domain_size = 6;
      const workload::GeneratedInstance instance =
          workload::GenerateInstance(spec);
      const planner::DomainMap grouped = GroupedDomains(instance);
      std::size_t found = 0;
      for (std::uint64_t q = 0;
           q < kMaxQuerySeeds && found < kQueriesPerInstance; ++q) {
        workload::QuerySpec query_spec;
        query_spec.seed = seed * 104729 + q * 1000003 + 5;
        query_spec.num_connections = 1 + q % 2;
        query_spec.views_per_connection = 1 + q % 3;
        auto query = workload::GenerateQuery(instance, query_spec);
        if (!query.ok()) continue;
        ++found;
        const std::string label = StrCat({"topology ", std::to_string(int(topology)), " seed ", std::to_string(seed), " query ", query->ToString()});
        ExpectPlannedProgramsMatch(*query, instance.views, instance.domains,
                                   planner::BuilderOptions(), label);
        ExpectPlannedProgramsMatch(*query, instance.views, grouped,
                                   planner::BuilderOptions(),
                                   label + " grouped");
      }
      compared += found;
      EXPECT_EQ(found, kQueriesPerInstance)
          << "only " << found << " queries in " << kMaxQuerySeeds
          << " seeds for topology " << int(topology) << " seed " << seed;
    }
  }
  EXPECT_GE(compared, 200u);
}

/// Parses `catalog` and `program_text` and checks them under the default
/// DomainMap.
void ExpectHandWrittenMatches(const char* catalog, const char* program_text,
                              const std::string& label) {
  auto parsed = capability::ParseCatalog(catalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  auto program = datalog::ParseProgram(program_text);
  ASSERT_TRUE(program.ok()) << program.status().message();
  ExpectVerdictsMatch(*program, parsed->views, planner::DomainMap(), "ans",
                      label);
}

TEST(FixpointOracleTest, ZeroBoundTemplate) {
  ExpectHandWrittenMatches(
      "source v(A, B) [ff] { (a1, b1) }\n"
      "source w(B, C) [bf] { (b1, c1) }\n"
      "source u(C, D) [bb] { (c1, d1) }\n",
      "domB(B) :- v(A, B).\n"
      "ans(C) :- v(A, B), w(B, C).\n"
      "q(D) :- u(C, D).\n",
      "zero-bound template");
}

TEST(FixpointOracleTest, FactOnlyDomain) {
  ExpectHandWrittenMatches(
      "source v(A, B) [bf] { (a1, b1) (a2, b2) }\n"
      "source w(A, B, C) [bbf] { (a1, b1, c1) }\n",
      "domA(a1).\n"
      "domA(a2).\n"
      "domB(b1).\n"
      "ans(Y) :- v(X, Y).\n"
      "ans(Z) :- w(X, Y, Z).\n",
      "fact-only domain");
}

TEST(FixpointOracleTest, ViewNamedLikeADomain) {
  ExpectHandWrittenMatches(
      "source domA(A) [f] { (a1) }\n"
      "source v(A, B) [bf] { (a1, b1) }\n",
      "ans(Y) :- v(X, Y).\n"
      "seen(X) :- domA(X).\n",
      "view named like a domain");
}

TEST(FixpointOracleTest, BareTaggedGoal) {
  ExpectHandWrittenMatches("source v(A, B) [ff] { (a1, b1) }\n",
                           "ans$(Y) :- v(X, Y).\n", "bare ans$");
}

}  // namespace
}  // namespace limcap
