#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "common/string_util.h"
#include "paperdata/paper_examples.h"
#include "planner/closure.h"
#include "planner/find_rel.h"
#include "workload/generator.h"

namespace limcap::planner {
namespace {

using capability::SourceView;
using paperdata::MakeExample21;
using paperdata::MakeExample41;
using paperdata::MakeExample51;
using paperdata::MakeExample52;
using paperdata::PaperExample;

std::vector<SourceView> ViewsNamed(const PaperExample& example,
                                   const std::vector<std::string>& names) {
  std::vector<SourceView> out;
  for (const std::string& name : names) {
    for (const SourceView& view : example.views) {
      if (view.name() == name) out.push_back(view);
    }
  }
  return out;
}

TEST(FClosureTest, PaperExample42FirstCase) {
  // Example 4.2: f-closure({A}, {v1, v2, v3}) = {v1, v2, v3}.
  PaperExample example = MakeExample41();
  auto views = ViewsNamed(example, {"v1", "v2", "v3"});
  FClosure closure = ComputeFClosure({"A"}, views);
  EXPECT_EQ(closure.views,
            (std::set<std::string>{"v1", "v2", "v3"}));
  // v1 must come first: it is the only view whose requirement {A} is met
  // initially.
  EXPECT_EQ(closure.order.front(), "v1");
  EXPECT_TRUE(closure.bound_attributes.count("D"));
}

TEST(FClosureTest, PaperExample42SecondCase) {
  // Example 4.2: f-closure({Song}, {v1, v4}) = {v1} and
  // f-closure({Song}, {v1, v3}) = {v1, v3}.
  PaperExample example = MakeExample21();
  FClosure c14 = ComputeFClosure({"Song"}, ViewsNamed(example, {"v1", "v4"}));
  EXPECT_EQ(c14.views, (std::set<std::string>{"v1"}));
  FClosure c13 = ComputeFClosure({"Song"}, ViewsNamed(example, {"v1", "v3"}));
  EXPECT_EQ(c13.views, (std::set<std::string>{"v1", "v3"}));
}

TEST(FClosureTest, EmptyInitialBindsOnlyFreeSources) {
  PaperExample example = MakeExample41();
  FClosure closure = ComputeFClosure({}, example.views);
  // Only v4 [ff] is immediately queryable; it binds C and E, unlocking
  // v2, v3, v5; nothing binds A for v1 except v2's free A.
  EXPECT_TRUE(closure.Contains("v4"));
  EXPECT_TRUE(closure.Contains("v2"));
  EXPECT_TRUE(closure.Contains("v3"));
  EXPECT_TRUE(closure.Contains("v5"));
  EXPECT_TRUE(closure.Contains("v1"));  // via v2's free A
}

TEST(FClosureTest, MonotoneInInitialSet) {
  PaperExample example = MakeExample21();
  FClosure small = ComputeFClosure({"Song"}, example.views);
  FClosure large = ComputeFClosure({"Song", "Artist"}, example.views);
  for (const std::string& view : small.views) {
    EXPECT_TRUE(large.Contains(view));
  }
}

TEST(FClosureTest, Idempotent) {
  PaperExample example = MakeExample21();
  FClosure once = ComputeFClosure({"Song"}, example.views);
  FClosure twice = ComputeFClosure(once.bound_attributes, example.views);
  EXPECT_EQ(once.views, twice.views);
}

TEST(IndependenceTest, Example41Connections) {
  PaperExample example = MakeExample41();
  // T1 = {v1, v3} is independent; T2 = {v2, v3} is not.
  EXPECT_TRUE(IsIndependent({"A"}, ViewsNamed(example, {"v1", "v3"})));
  EXPECT_FALSE(IsIndependent({"A"}, ViewsNamed(example, {"v2", "v3"})));
}

TEST(IndependenceTest, Example21OnlyT1Independent) {
  PaperExample example = MakeExample21();
  EXPECT_TRUE(IsIndependent({"Song"}, ViewsNamed(example, {"v1", "v3"})));
  EXPECT_FALSE(IsIndependent({"Song"}, ViewsNamed(example, {"v1", "v4"})));
  EXPECT_FALSE(IsIndependent({"Song"}, ViewsNamed(example, {"v2", "v3"})));
  EXPECT_FALSE(IsIndependent({"Song"}, ViewsNamed(example, {"v2", "v4"})));
}

TEST(IndependenceTest, ExecutableSequenceOrder) {
  PaperExample example = MakeExample41();
  auto sequence = ExecutableSequence({"A"}, ViewsNamed(example, {"v3", "v1"}));
  ASSERT_TRUE(sequence.ok());
  EXPECT_EQ(*sequence, (std::vector<std::string>{"v1", "v3"}));
  EXPECT_FALSE(
      ExecutableSequence({"A"}, ViewsNamed(example, {"v2", "v3"})).ok());
}

TEST(KernelTest, IndependentConnectionHasEmptyKernel) {
  PaperExample example = MakeExample41();
  EXPECT_TRUE(ComputeKernel({"A"}, ViewsNamed(example, {"v1", "v3"})).empty());
}

TEST(KernelTest, Example41T2KernelIsC) {
  PaperExample example = MakeExample41();
  EXPECT_EQ(ComputeKernel({"A"}, ViewsNamed(example, {"v2", "v3"})),
            (AttributeSet{"C"}));
}

TEST(KernelTest, Example51KernelIsD) {
  PaperExample example = MakeExample51();
  EXPECT_EQ(ComputeKernel({"A"}, ViewsNamed(example, {"v1", "v2", "v3"})),
            (AttributeSet{"D"}));
}

TEST(KernelTest, KernelSatisfiesDefinition) {
  // Definition 5.1 on Example 5.2: f-closure(K ∪ I, T) = T and removal of
  // any attribute breaks it.
  PaperExample example = MakeExample52();
  auto views = ViewsNamed(example, {"v1", "v2", "v3"});
  AttributeSet kernel = ComputeKernel({"B"}, views);
  AttributeSet start = kernel;
  start.insert("B");
  EXPECT_EQ(ComputeFClosure(start, views).views.size(), views.size());
  for (const std::string& attribute : kernel) {
    AttributeSet smaller = start;
    smaller.erase(attribute);
    EXPECT_LT(ComputeFClosure(smaller, views).views.size(), views.size())
        << "kernel not minimal: " << attribute << " removable";
  }
}

TEST(KernelTest, Example52HasThreeKernels) {
  PaperExample example = MakeExample52();
  auto views = ViewsNamed(example, {"v1", "v2", "v3"});
  std::vector<AttributeSet> kernels = AllKernels({"B"}, views);
  EXPECT_EQ(kernels, (std::vector<AttributeSet>{{"A"}, {"C"}, {"E"}}));
}

TEST(KernelTest, AllKernelsOfIndependentConnectionIsEmptySet) {
  PaperExample example = MakeExample41();
  auto kernels = AllKernels({"A"}, ViewsNamed(example, {"v1", "v3"}));
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_TRUE(kernels[0].empty());
}

TEST(BFChainTest, Example41Chain) {
  // (v4, v2, v1, v3) is a BF-chain in Example 4.1.
  PaperExample example = MakeExample41();
  EXPECT_TRUE(IsBFChain(ViewsNamed(example, {"v4", "v2", "v1", "v3"})));
  // (v3, v4) is not: F(v3) = {D} does not meet B(v4) = {}.
  EXPECT_FALSE(IsBFChain(ViewsNamed(example, {"v3", "v4"})));
  EXPECT_FALSE(IsBFChain({}));
  EXPECT_TRUE(IsBFChain(ViewsNamed(example, {"v1"})));
}

TEST(BClosureTest, Example41BClosureOfC) {
  // The paper: b-closure(C) = {v1, v2, v4}.
  PaperExample example = MakeExample41();
  EXPECT_EQ(ComputeBClosure(std::string("C"), example.views),
            (std::set<std::string>{"v1", "v2", "v4"}));
}

TEST(BClosureTest, Example52AllKernelsShareBClosure) {
  // Lemma 5.3 on Example 5.2: the kernels {A}, {C}, {E} all have
  // backward-closure {v1, v2, v3, v4}.
  PaperExample example = MakeExample52();
  auto views = ViewsNamed(example, {"v1", "v2", "v3"});
  std::set<std::string> expected{"v1", "v2", "v3", "v4"};
  for (const AttributeSet& kernel : AllKernels({"B"}, views)) {
    EXPECT_EQ(ComputeBClosure(kernel, example.views), expected);
  }
}

TEST(BClosureTest, Lemma52ChainContainment) {
  // Lemma 5.2: a BF-chain from a view binding A1 to a view freeing A2
  // implies b-closure(A1) ⊆ b-closure(A2). Exercise it on Example 4.1
  // with the chain (v1, v3): A1 = A (bound by head v1), A2 = D (freed by
  // tail v3).
  PaperExample example = MakeExample41();
  auto a_closure = ComputeBClosure(std::string("A"), example.views);
  auto d_closure = ComputeBClosure(std::string("D"), example.views);
  for (const std::string& view : a_closure) {
    EXPECT_TRUE(d_closure.count(view)) << view;
  }
}

TEST(BClosureTest, UnionOverAttributes) {
  PaperExample example = MakeExample41();
  auto combined = ComputeBClosure(AttributeSet{"C", "F"}, example.views);
  auto c_only = ComputeBClosure(std::string("C"), example.views);
  auto f_only = ComputeBClosure(std::string("F"), example.views);
  std::set<std::string> expected = c_only;
  expected.insert(f_only.begin(), f_only.end());
  EXPECT_EQ(combined, expected);
}

// ---------------------------------------------------------------------
// Differential sweep: the id engine against the string-set algorithms it
// replaced, kept here as the reference — pass-by-pass f-closure, greedy
// kernel, b-closure, and FIND_REL over domain representatives.

namespace reference {

bool IsSubset(const AttributeSet& inner, const AttributeSet& outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(),
                       inner.end());
}

std::vector<Adorned> ToAdorned(
    const std::vector<SourceView>& views,
    const std::map<std::string, std::string>* rep = nullptr) {
  std::vector<Adorned> out;
  for (const SourceView& view : views) {
    for (Adorned adorned : Adorned::FromView(view)) {
      if (rep != nullptr) {
        AttributeSet bound, free;
        for (const std::string& a : adorned.bound) bound.insert(rep->at(a));
        for (const std::string& a : adorned.free) free.insert(rep->at(a));
        adorned.bound = std::move(bound);
        adorned.free = std::move(free);
      }
      out.push_back(std::move(adorned));
    }
  }
  return out;
}

std::set<std::string> NamesOf(const std::vector<Adorned>& views) {
  std::set<std::string> names;
  for (const Adorned& view : views) names.insert(view.name);
  return names;
}

FClosure FClosureOf(const AttributeSet& initial,
                    const std::vector<Adorned>& candidates) {
  FClosure closure;
  closure.bound_attributes = initial;
  std::vector<bool> added(candidates.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (added[i]) continue;
      const Adorned& view = candidates[i];
      if (IsSubset(view.bound, closure.bound_attributes)) {
        added[i] = true;
        changed = true;
        if (closure.views.insert(view.name).second) {
          closure.order.push_back(view.name);
        }
        AttributeSet attributes = view.All();
        closure.bound_attributes.insert(attributes.begin(), attributes.end());
      }
    }
  }
  return closure;
}

bool CoversAll(const AttributeSet& initial, const std::vector<Adorned>& views) {
  return FClosureOf(initial, views).views == NamesOf(views);
}

AttributeSet KernelOf(const AttributeSet& inputs,
                      const std::vector<Adorned>& connection) {
  AttributeSet kernel;
  for (const Adorned& view : connection) {
    AttributeSet all = view.All();
    kernel.insert(all.begin(), all.end());
  }
  for (const std::string& input : inputs) kernel.erase(input);
  for (auto it = kernel.begin(); it != kernel.end();) {
    AttributeSet start = kernel;
    start.erase(*it);
    start.insert(inputs.begin(), inputs.end());
    if (CoversAll(start, connection)) {
      it = kernel.erase(it);
    } else {
      ++it;
    }
  }
  return kernel;
}

std::vector<AttributeSet> AllKernelsOf(const AttributeSet& inputs,
                                       const std::vector<Adorned>& connection) {
  AttributeSet pool;
  for (const Adorned& view : connection) {
    AttributeSet all = view.All();
    pool.insert(all.begin(), all.end());
  }
  for (const std::string& input : inputs) pool.erase(input);
  std::vector<std::string> candidates(pool.begin(), pool.end());
  std::vector<AttributeSet> satisfying;
  for (std::size_t mask = 0; mask < (std::size_t{1} << candidates.size());
       ++mask) {
    AttributeSet subset;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (mask & (std::size_t{1} << i)) subset.insert(candidates[i]);
    }
    AttributeSet start = subset;
    start.insert(inputs.begin(), inputs.end());
    if (CoversAll(start, connection)) satisfying.push_back(std::move(subset));
  }
  std::vector<AttributeSet> kernels;
  for (const AttributeSet& a : satisfying) {
    bool minimal = true;
    for (const AttributeSet& b : satisfying) {
      if (b.size() < a.size() && IsSubset(b, a)) minimal = false;
    }
    if (minimal) kernels.push_back(a);
  }
  std::sort(kernels.begin(), kernels.end());
  return kernels;
}

std::set<std::string> BClosureOf(const std::string& attribute,
                                 const std::vector<Adorned>& views) {
  std::map<std::string, AttributeSet> bound_by_name;
  for (const Adorned& view : views) {
    bound_by_name[view.name].insert(view.bound.begin(), view.bound.end());
  }
  std::set<std::string> closure;
  AttributeSet closure_bound;
  auto join = [&](const std::string& name) {
    closure.insert(name);
    const AttributeSet& bound = bound_by_name[name];
    closure_bound.insert(bound.begin(), bound.end());
  };
  for (const Adorned& view : views) {
    if (view.free.count(attribute) > 0) join(view.name);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Adorned& view : views) {
      if (closure.count(view.name) > 0) continue;
      if (std::any_of(view.free.begin(), view.free.end(),
                      [&](const std::string& a) {
                        return closure_bound.count(a) > 0;
                      })) {
        join(view.name);
        changed = true;
      }
    }
  }
  return closure;
}

std::set<std::string> BClosureOf(const AttributeSet& attributes,
                                 const std::vector<Adorned>& views) {
  std::set<std::string> closure;
  for (const std::string& attribute : attributes) {
    std::set<std::string> single = BClosureOf(attribute, views);
    closure.insert(single.begin(), single.end());
  }
  return closure;
}

/// FIND_REL as it ran before the id engine, step for step.
Result<FindRelReport> FindRel(const Query& query, const Connection& connection,
                              const std::vector<SourceView>& views,
                              const DomainMap& domains,
                              const AttributeSet& seeded_attributes) {
  AttributeSet attributes = query.InputAttributes();
  for (const SourceView& view : views) {
    AttributeSet view_attributes = view.Attributes();
    attributes.insert(view_attributes.begin(), view_attributes.end());
  }
  std::map<std::string, std::string> domain_rep;
  std::map<std::string, std::string> rep;
  for (const std::string& attribute : attributes) {
    auto [it, inserted] =
        domain_rep.emplace(domains.DomainOf(attribute), attribute);
    rep.emplace(attribute, it->second);
  }
  for (const std::string& attribute : seeded_attributes) {
    rep.emplace(attribute, attribute);
  }
  AttributeSet inputs;
  for (const std::string& a : query.InputAttributes()) inputs.insert(rep.at(a));
  for (const std::string& a : seeded_attributes) inputs.insert(rep.at(a));

  const std::vector<Adorned> all = ToAdorned(views, &rep);
  FClosure queryable = FClosureOf(inputs, all);
  FindRelReport report;
  report.queryable_views = queryable.order;
  report.connection_queryable = true;
  std::vector<SourceView> connection_views;
  AttributeSet connection_attributes;
  for (const std::string& name : connection.view_names()) {
    if (!queryable.Contains(name)) report.connection_queryable = false;
    auto it = std::find_if(
        views.begin(), views.end(),
        [&](const SourceView& v) { return v.name() == name; });
    if (it == views.end()) {
      return Status::InvalidArgument(StrCat({"connection ", connection.ToString(), " references unknown view: ", name}));
    }
    connection_views.push_back(*it);
    AttributeSet attrs = it->Attributes();
    connection_attributes.insert(attrs.begin(), attrs.end());
  }
  if (!report.connection_queryable) return report;

  AttributeSet kernel_inputs;
  for (const std::string& input : query.InputAttributes()) {
    bool constrains = true;
    for (const std::string& attribute : connection_attributes) {
      if (attribute != input && rep.at(attribute) == rep.at(input)) {
        constrains = false;
      }
    }
    if (constrains) kernel_inputs.insert(rep.at(input));
  }
  report.kernel = KernelOf(kernel_inputs, ToAdorned(connection_views, &rep));
  report.independent = report.kernel.empty();
  std::vector<Adorned> queryable_adorned;
  for (const Adorned& adorned : all) {
    if (queryable.Contains(adorned.name)) queryable_adorned.push_back(adorned);
  }
  report.kernel_bclosure = BClosureOf(report.kernel, queryable_adorned);
  report.relevant_views = report.kernel_bclosure;
  for (const std::string& name : connection.view_names()) {
    report.relevant_views.insert(name);
  }
  return report;
}

}  // namespace reference

void ExpectSameReport(const FindRelReport& engine,
                      const FindRelReport& expected, const std::string& where) {
  EXPECT_EQ(engine.queryable_views, expected.queryable_views) << where;
  EXPECT_EQ(engine.connection_queryable, expected.connection_queryable)
      << where;
  EXPECT_EQ(engine.independent, expected.independent) << where;
  EXPECT_EQ(engine.kernel, expected.kernel) << where;
  EXPECT_EQ(engine.kernel_bclosure, expected.kernel_bclosure) << where;
  EXPECT_EQ(engine.relevant_views, expected.relevant_views) << where;
}

/// One seeded sweep instance: a generated catalog rewritten with extra
/// templates, shuffled into a registration order, with grouped domains,
/// seeded attributes, and a generated query over it.
struct SweepInstance {
  std::string label;
  std::vector<SourceView> views;
  DomainMap domains;
  AttributeSet seeded;
  Query query;
};

/// A second template for `view` with one bound and one free position of
/// its first template swapped (so neither template's bound set contains
/// the other's), or the view unchanged when it has no such pair.
SourceView WithSecondTemplate(const SourceView& view, Rng& rng) {
  const capability::BindingPattern& first = view.pattern();
  std::vector<std::size_t> bound = first.BoundPositions();
  std::vector<std::size_t> free = first.FreePositions();
  if (bound.empty() || free.empty()) return view;
  std::vector<capability::Adornment> flipped;
  for (std::size_t i = 0; i < first.arity(); ++i) {
    flipped.push_back(first.at(i));
  }
  std::swap(flipped[bound[rng.Below(bound.size())]],
            flipped[free[rng.Below(free.size())]]);
  auto made = SourceView::Make(view.name(), view.schema(),
                               {first, capability::BindingPattern(flipped)});
  return made.ok() ? *made : view;
}

SweepInstance MakeSweepInstance(workload::CatalogSpec::Topology topology,
                                uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  workload::CatalogSpec spec;
  spec.topology = topology;
  spec.num_views = 6 + rng.Below(14);
  spec.num_attributes = 5 + rng.Below(6);
  spec.max_arity = 3;
  spec.tuples_per_view = 1;
  spec.seed = seed;
  workload::GeneratedInstance instance = workload::GenerateInstance(spec);

  SweepInstance out;
  out.label = StrCat({"topology ", std::to_string(static_cast<int>(topology)), " seed ", std::to_string(seed)});
  // Every seed yields a query: retry with derived seeds and smaller
  // shapes, deterministically, and fail (never skip) if all run out.
  bool found = false;
  for (uint64_t attempt = 0; attempt < 64 && !found; ++attempt) {
    workload::QuerySpec shape;
    shape.num_connections = 1 + (attempt < 32 ? rng.Below(3) : 0);
    shape.views_per_connection = 1 + rng.Below(attempt < 48 ? 4 : 2);
    shape.seed = seed * 1000 + attempt;
    Result<Query> query = workload::GenerateQuery(instance, shape);
    if (query.ok()) {
      out.query = *std::move(query);
      found = true;
    }
  }
  EXPECT_TRUE(found) << out.label << ": no query after 64 attempts";

  for (const SourceView& view : instance.views) {
    out.views.push_back(rng.Chance(0.3) ? WithSecondTemplate(view, rng) : view);
  }
  for (std::size_t i = out.views.size(); i > 1; --i) {
    std::swap(out.views[i - 1], out.views[rng.Below(i)]);
  }
  const std::vector<std::string>& pool = instance.attributes;
  if (rng.Chance(0.6)) {
    // Shared domains, including one that collides with an attribute's
    // default domain name.
    for (std::size_t g = 0; g < 1 + rng.Below(3); ++g) {
      for (std::size_t k = 0; k < 2 + rng.Below(2); ++k) {
        out.domains.SetDomain(pool[rng.Below(pool.size())],
                              StrCat({"domG", std::to_string(g)}));
      }
    }
    if (rng.Chance(0.5)) {
      out.domains.SetDomain(pool[rng.Below(pool.size())],
                            out.domains.DomainOf(pool[rng.Below(pool.size())]));
    }
  }
  if (rng.Chance(0.5)) {
    for (std::size_t k = 0; k < 1 + rng.Below(2); ++k) {
      out.seeded.insert(pool[rng.Below(pool.size())]);
    }
    if (rng.Chance(0.5)) out.seeded.insert("Zseeded");
  }
  return out;
}

std::vector<SourceView> ViewsOf(const std::vector<SourceView>& views,
                                const Connection& connection) {
  std::vector<SourceView> out;
  for (const std::string& name : connection.view_names()) {
    for (const SourceView& view : views) {
      if (view.name() == name) out.push_back(view);
    }
  }
  return out;
}

TEST(ClosureDifferentialTest, EngineMatchesStringSetReference) {
  constexpr uint64_t kSeedsPerTopology = 40;
  std::size_t instances = 0;
  std::size_t comparisons = 0;
  for (auto topology : {workload::CatalogSpec::Topology::kChain,
                        workload::CatalogSpec::Topology::kStar,
                        workload::CatalogSpec::Topology::kRandom}) {
    for (uint64_t seed = 1; seed <= kSeedsPerTopology; ++seed) {
      SweepInstance sweep = MakeSweepInstance(topology, seed);
      ASSERT_FALSE(sweep.query.connections().empty()) << sweep.label;
      ++instances;
      const std::vector<Adorned> all = reference::ToAdorned(sweep.views);
      Rng rng(seed);

      // f-closure from I(Q), from random attribute sets, and from nothing.
      std::vector<AttributeSet> starts = {sweep.query.InputAttributes(), {}};
      for (int k = 0; k < 3; ++k) {
        AttributeSet start;
        for (const Adorned& adorned : all) {
          for (const std::string& a : adorned.All()) {
            if (rng.Chance(0.15)) start.insert(a);
          }
        }
        starts.push_back(std::move(start));
      }
      for (const AttributeSet& start : starts) {
        FClosure engine = ComputeFClosure(start, sweep.views);
        FClosure expected = reference::FClosureOf(start, all);
        EXPECT_EQ(engine.order, expected.order) << sweep.label;
        EXPECT_EQ(engine.views, expected.views) << sweep.label;
        EXPECT_EQ(engine.bound_attributes, expected.bound_attributes)
            << sweep.label;
        ++comparisons;
      }

      // b-closure of every attribute, and of a random set.
      AttributeSet every;
      for (const Adorned& adorned : all) {
        AttributeSet a = adorned.All();
        every.insert(a.begin(), a.end());
      }
      for (const std::string& attribute : every) {
        EXPECT_EQ(ComputeBClosure(attribute, sweep.views),
                  reference::BClosureOf(attribute, all))
            << sweep.label << " attribute " << attribute;
        ++comparisons;
      }
      EXPECT_EQ(ComputeBClosure(starts.back(), sweep.views),
                reference::BClosureOf(starts.back(), all))
          << sweep.label;

      // Kernels of each connection.
      for (const Connection& connection : sweep.query.connections()) {
        std::vector<SourceView> connection_views =
            ViewsOf(sweep.views, connection);
        const std::vector<Adorned> adorned =
            reference::ToAdorned(connection_views);
        const AttributeSet inputs = sweep.query.InputAttributes();
        EXPECT_EQ(ComputeKernel(inputs, connection_views),
                  reference::KernelOf(inputs, adorned))
            << sweep.label << " " << connection.ToString();
        const bool independent = reference::CoversAll(inputs, adorned);
        EXPECT_EQ(IsIndependent(inputs, connection_views), independent)
            << sweep.label;
        auto sequence = ExecutableSequence(inputs, connection_views);
        EXPECT_EQ(sequence.ok(), independent) << sweep.label;
        if (sequence.ok()) {
          EXPECT_EQ(*sequence, reference::FClosureOf(inputs, adorned).order)
              << sweep.label;
        }
        // At most 4 views of arity <= 3: the exhaustive reference stays
        // under 2^12 subsets.
        EXPECT_EQ(AllKernels(inputs, connection_views),
                  reference::AllKernelsOf(inputs, adorned))
            << sweep.label << " " << connection.ToString();
        comparisons += 3;
      }

      // FIND_REL per connection and for the whole query, under the
      // instance's domains and seeded attributes.
      auto analyzed = AnalyzeQueryRelevance(sweep.query, sweep.views,
                                            sweep.domains, sweep.seeded);
      ASSERT_TRUE(analyzed.ok()) << sweep.label << analyzed.status().ToString();
      std::set<std::string> relevant_union;
      std::vector<std::string> queryable_views;
      for (const Connection& connection : sweep.query.connections()) {
        const std::string where = sweep.label + " " + connection.ToString();
        auto engine = FindRelevantViews(sweep.query, connection, sweep.views,
                                        sweep.domains, sweep.seeded);
        auto expected = reference::FindRel(sweep.query, connection,
                                           sweep.views, sweep.domains,
                                           sweep.seeded);
        ASSERT_TRUE(engine.ok()) << where;
        ASSERT_TRUE(expected.ok()) << where;
        ExpectSameReport(*engine, *expected, where);
        queryable_views = expected->queryable_views;
        const bool kept = std::count(analyzed->queryable_connections.begin(),
                                     analyzed->queryable_connections.end(),
                                     connection) > 0;
        EXPECT_EQ(kept, expected->connection_queryable) << where;
        if (expected->connection_queryable) {
          ExpectSameReport(analyzed->reports.at(connection.ToString()),
                           *expected, where);
          relevant_union.insert(expected->relevant_views.begin(),
                                expected->relevant_views.end());
        }
        comparisons += 2;
      }
      EXPECT_EQ(analyzed->queryable_views, queryable_views) << sweep.label;
      EXPECT_EQ(analyzed->relevant_union, relevant_union) << sweep.label;
      EXPECT_EQ(analyzed->queryable_connections.size() +
                    analyzed->dropped_connections.size(),
                sweep.query.connections().size())
          << sweep.label;

      // A connection naming an unknown view fails identically.
      Connection unknown(
          {sweep.query.connections()[0].view_names()[0], "nosuchview"});
      auto engine_error = FindRelevantViews(sweep.query, unknown, sweep.views,
                                            sweep.domains, sweep.seeded);
      auto expected_error = reference::FindRel(
          sweep.query, unknown, sweep.views, sweep.domains, sweep.seeded);
      ASSERT_FALSE(expected_error.ok());
      ASSERT_FALSE(engine_error.ok()) << sweep.label;
      EXPECT_EQ(engine_error.status().code(), expected_error.status().code());
      EXPECT_EQ(engine_error.status().message(),
                expected_error.status().message());
      Query with_unknown(sweep.query.inputs(), sweep.query.outputs(),
                         {sweep.query.connections()[0], unknown});
      auto analyze_error = AnalyzeQueryRelevance(with_unknown, sweep.views,
                                                 sweep.domains, sweep.seeded);
      ASSERT_FALSE(analyze_error.ok());
      EXPECT_EQ(analyze_error.status().message(),
                expected_error.status().message());
      comparisons += 2;
    }
  }
  // Zero skips: every seed of every topology produced a compared instance.
  EXPECT_EQ(instances, 3 * kSeedsPerTopology);
  std::printf("differential sweep: %zu instances, %zu comparisons\n",
              instances, comparisons);
}

}  // namespace
}  // namespace limcap::planner
