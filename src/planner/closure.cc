#include "planner/closure.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <utility>

namespace limcap::planner {

namespace {

/// Sorts and deduplicates each CSR segment in place, compacting `items`.
void DedupSegments(std::vector<std::uint32_t>* begin,
                   std::vector<std::uint32_t>* items) {
  std::uint32_t out = 0;
  for (std::size_t i = 0; i + 1 < begin->size(); ++i) {
    auto first = items->begin() + (*begin)[i];
    auto last = items->begin() + (*begin)[i + 1];
    std::sort(first, last);
    last = std::unique(first, last);
    (*begin)[i] = out;
    out = static_cast<std::uint32_t>(
        std::move(first, last, items->begin() + out) - items->begin());
  }
  begin->back() = out;
  items->resize(out);
}

/// Builds the CSR inverse of a candidate → ids relation: for each id, the
/// candidates listing it, in candidate order.
void Invert(const std::vector<std::uint32_t>& begin,
            const std::vector<std::uint32_t>& items, std::size_t id_count,
            std::vector<std::uint32_t>* inverse_begin,
            std::vector<std::uint32_t>* inverse) {
  inverse_begin->assign(id_count + 1, 0);
  for (std::uint32_t id : items) ++(*inverse_begin)[id + 1];
  std::partial_sum(inverse_begin->begin(), inverse_begin->end(),
                   inverse_begin->begin());
  inverse->resize(items.size());
  std::vector<std::uint32_t> next(inverse_begin->begin(),
                                  inverse_begin->end() - 1);
  for (std::uint32_t c = 0; c + 1 < begin.size(); ++c) {
    for (std::uint32_t i = begin[c]; i < begin[c + 1]; ++i) {
      (*inverse)[next[items[i]]++] = c;
    }
  }
}

}  // namespace

AttributeSet Adorned::All() const {
  AttributeSet all = bound;
  all.insert(free.begin(), free.end());
  return all;
}

std::vector<Adorned> Adorned::FromView(const SourceView& view) {
  std::vector<Adorned> out;
  for (std::size_t t = 0; t < view.templates().size(); ++t) {
    out.push_back({view.name(), view.BoundAttributes(t),
                   view.FreeAttributes(t)});
  }
  return out;
}

/// The f-closure as a counter worklist over one scan-ordered candidate
/// list. Each candidate counts its bound attributes that are still
/// unbound; binding an attribute decrements every candidate waiting on it,
/// and a candidate whose count reaches zero is ready. Ready candidates pop
/// in (pass, position) order, which replays the pass-by-pass scan of the
/// list exactly: a candidate freed by the one at position j in pass p is
/// reached later in pass p when it sits after j, and in pass p + 1
/// otherwise.
class ClosureIndex::Worklist {
 public:
  Worklist(const ClosureIndex& index, std::vector<std::uint32_t> candidates)
      : index_(index), candidates_(std::move(candidates)) {
    std::vector<std::uint32_t> begin(candidates_.size() + 1, 0);
    std::vector<std::uint32_t> bound;
    for (std::size_t p = 0; p < candidates_.size(); ++p) {
      std::span<const AttributeId> needs = index_.Bound(candidates_[p]);
      bound.insert(bound.end(), needs.begin(), needs.end());
      begin[p + 1] = static_cast<std::uint32_t>(bound.size());
    }
    Invert(begin, bound, index_.attribute_count(), &waiting_begin_,
           &waiting_);
  }

  /// Runs from the attributes flagged in `bound`, which ends flagging the
  /// closure's attributes; calls admit(candidate) in admission order.
  template <typename Admit>
  void Run(std::vector<bool>& bound, Admit admit) const {
    using Ready = std::pair<std::uint32_t, std::uint32_t>;  // (pass, pos)
    std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
    std::vector<std::uint32_t> missing(candidates_.size(), 0);
    for (std::uint32_t p = 0; p < candidates_.size(); ++p) {
      for (AttributeId a : index_.Bound(candidates_[p])) {
        if (!bound[a]) ++missing[p];
      }
      if (missing[p] == 0) ready.push({0, p});
    }
    while (!ready.empty()) {
      const auto [pass, p] = ready.top();
      ready.pop();
      admit(candidates_[p]);
      // B(v) is bound already; F(v) is what the view adds.
      for (AttributeId a : index_.Free(candidates_[p])) {
        if (bound[a]) continue;
        bound[a] = true;
        for (std::uint32_t q : Slice(waiting_, waiting_begin_, a)) {
          if (--missing[q] == 0) ready.push({q > p ? pass : pass + 1, q});
        }
      }
    }
  }

  /// True when a run from `bound` admits every view of `views`.
  bool Covers(std::vector<bool> bound, std::span<const ViewId> views) const {
    std::vector<bool> admitted(index_.view_count(), false);
    Run(bound, [&](std::uint32_t c) {
      admitted[index_.candidate_view_[c]] = true;
    });
    return std::all_of(views.begin(), views.end(),
                       [&](ViewId v) { return admitted[v]; });
  }

 private:
  const ClosureIndex& index_;
  std::vector<std::uint32_t> candidates_;
  /// Attribute → positions of the candidates that need it bound.
  std::vector<std::uint32_t> waiting_begin_;
  std::vector<std::uint32_t> waiting_;
};

ClosureIndex::ClosureIndex(const std::vector<SourceView>& views,
                           const DomainMap& domains,
                           const AttributeSet& extra_attributes) {
  // Intern every name; `schema_ids` holds each view's schema as ids.
  std::vector<ViewId> view_of(views.size());
  std::vector<AttributeId> schema_ids;
  for (std::size_t i = 0; i < views.size(); ++i) {
    view_of[i] = views_.Intern(views[i].name());
    for (const std::string& a : views[i].schema().attributes()) {
      schema_ids.push_back(attributes_.Intern(a));
    }
  }
  for (const std::string& a : extra_attributes) attributes_.Intern(a);

  representative_.resize(attributes_.size());
  std::iota(representative_.begin(), representative_.end(), 0);
  if (!domains.overrides().empty()) {
    // Only overrides can put two attributes in one domain.
    std::vector<std::string> domain(attributes_.size());
    std::unordered_map<std::string_view, AttributeId> smallest;
    for (AttributeId a = 0; a < attributes_.size(); ++a) {
      domain[a] = domains.DomainOf(attributes_.Name(a));
      auto [it, inserted] = smallest.emplace(domain[a], a);
      if (!inserted && attributes_.Name(a) < attributes_.Name(it->second)) {
        it->second = a;
      }
    }
    for (AttributeId a = 0; a < attributes_.size(); ++a) {
      representative_[a] = smallest.at(domain[a]);
    }
  }

  // Per view id: its attributes (unfolded), unioned over same-named views.
  view_attribute_begin_.assign(views_.size() + 1, 0);
  for (std::size_t i = 0; i < views.size(); ++i) {
    view_attribute_begin_[view_of[i] + 1] +=
        static_cast<std::uint32_t>(views[i].schema().arity());
  }
  std::partial_sum(view_attribute_begin_.begin(), view_attribute_begin_.end(),
                   view_attribute_begin_.begin());
  view_attributes_.resize(schema_ids.size());
  {
    std::vector<std::uint32_t> next(view_attribute_begin_.begin(),
                                    view_attribute_begin_.end() - 1);
    std::size_t at = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      for (std::size_t k = 0; k < views[i].schema().arity(); ++k) {
        view_attributes_[next[view_of[i]]++] = schema_ids[at++];
      }
    }
  }
  if (views_.size() < views.size()) {
    DedupSegments(&view_attribute_begin_, &view_attributes_);
  }

  // One candidate per template, in registration order, over folded ids.
  bound_begin_.push_back(0);
  free_begin_.push_back(0);
  std::size_t at = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const std::size_t arity = views[i].schema().arity();
    for (const capability::BindingPattern& pattern : views[i].templates()) {
      for (std::size_t k = 0; k < arity; ++k) {
        const AttributeId rep = representative_[schema_ids[at + k]];
        (pattern.IsBound(k) ? bound_ : free_).push_back(rep);
      }
      candidate_view_.push_back(view_of[i]);
      bound_begin_.push_back(static_cast<std::uint32_t>(bound_.size()));
      free_begin_.push_back(static_cast<std::uint32_t>(free_.size()));
    }
    at += arity;
  }
  if (!domains.overrides().empty()) {
    // Folding may map two positions of one template to one domain.
    DedupSegments(&bound_begin_, &bound_);
    DedupSegments(&free_begin_, &free_);
  }

  std::vector<std::uint32_t> candidate_begin(candidate_view_.size() + 1);
  std::iota(candidate_begin.begin(), candidate_begin.end(), 0);
  Invert(candidate_begin, candidate_view_, views_.size(),
         &view_candidate_begin_, &view_candidates_);
  Invert(free_begin_, free_, attributes_.size(), &freeing_begin_, &freeing_);
}

AttributeId ClosureIndex::FindAttribute(std::string_view name) const {
  AttributeId id = kNone;
  attributes_.Lookup(name, &id);
  return id;
}

ViewId ClosureIndex::FindView(std::string_view name) const {
  ViewId id = kNone;
  views_.Lookup(name, &id);
  return id;
}

AttributeId ClosureIndex::AddAttribute(std::string_view name) {
  const AttributeId id = attributes_.Intern(name);
  if (id == representative_.size()) {
    representative_.push_back(id);
    freeing_begin_.push_back(freeing_begin_.back());
  }
  return id;
}

std::vector<std::uint32_t> ClosureIndex::CandidatesOf(
    std::span<const ViewId> views) const {
  std::vector<std::uint32_t> out;
  for (ViewId v : views) {
    std::span<const std::uint32_t> own =
        Slice(view_candidates_, view_candidate_begin_, v);
    out.insert(out.end(), own.begin(), own.end());
  }
  return out;
}

ClosureIndex::Forward ClosureIndex::ForwardClosure(
    std::span<const AttributeId> initial) const {
  Forward out;
  out.contains.assign(view_count(), false);
  out.bound.assign(attribute_count(), false);
  for (AttributeId a : initial) out.bound[a] = true;
  std::vector<std::uint32_t> all(candidate_view_.size());
  std::iota(all.begin(), all.end(), 0);
  Worklist(*this, std::move(all)).Run(out.bound, [&](std::uint32_t c) {
    const ViewId v = candidate_view_[c];
    if (!out.contains[v]) {
      out.contains[v] = true;
      out.order.push_back(v);
    }
  });
  return out;
}

bool ClosureIndex::Covers(std::vector<bool> start,
                          std::span<const ViewId> views) const {
  return Worklist(*this, CandidatesOf(views)).Covers(std::move(start), views);
}

std::vector<AttributeId> ClosureIndex::Kernel(
    std::span<const AttributeId> inputs, std::span<const ViewId> views) const {
  std::vector<std::uint32_t> candidates = CandidatesOf(views);
  // `start` = I(Q) ∪ A(T): the shrink starts from the whole of A(T) − I(Q).
  std::vector<bool> start(attribute_count(), false);
  for (AttributeId a : inputs) start[a] = true;
  std::vector<AttributeId> all;
  for (std::uint32_t c : candidates) {
    for (std::span<const AttributeId> part : {Bound(c), Free(c)}) {
      for (AttributeId a : part) {
        if (!start[a]) all.push_back(a);
        start[a] = true;
      }
    }
  }
  std::sort(all.begin(), all.end(), [&](AttributeId a, AttributeId b) {
    return AttributeName(a) < AttributeName(b);
  });

  // Greedy shrink in name order. Removal feasibility is monotone in the
  // remaining set, so one pass yields a minimal kernel.
  const Worklist worklist(*this, std::move(candidates));
  std::vector<AttributeId> kernel;
  for (AttributeId a : all) {
    start[a] = false;
    if (!worklist.Covers(start, views)) {
      start[a] = true;
      kernel.push_back(a);
    }
  }
  return kernel;
}

std::vector<bool> ClosureIndex::BackwardClosure(
    std::span<const AttributeId> seeds,
    const std::vector<bool>& allowed) const {
  std::vector<bool> in(view_count(), false);
  std::vector<bool> marked(attribute_count(), false);
  std::vector<AttributeId> pending;
  auto join_freeing = [&](AttributeId a) {
    for (std::uint32_t c : Slice(freeing_, freeing_begin_, a)) {
      const ViewId v = candidate_view_[c];
      if (!allowed[v] || in[v]) continue;
      in[v] = true;
      for (std::uint32_t own :
           Slice(view_candidates_, view_candidate_begin_, v)) {
        for (AttributeId b : Bound(own)) {
          if (!marked[b]) pending.push_back(b);
          marked[b] = true;
        }
      }
    }
  };
  for (AttributeId a : seeds) join_freeing(a);
  while (!pending.empty()) {
    const AttributeId a = pending.back();
    pending.pop_back();
    join_freeing(a);
  }
  return in;
}

namespace {

/// The ids of the indexed members of `attributes`; the rest can bind no
/// view, so the closures ignore them.
std::vector<AttributeId> KnownIds(const ClosureIndex& index,
                                  const AttributeSet& attributes) {
  std::vector<AttributeId> ids;
  for (const std::string& a : attributes) {
    const AttributeId id = index.FindAttribute(a);
    if (id != ClosureIndex::kNone) ids.push_back(id);
  }
  return ids;
}

std::vector<ViewId> AllViews(const ClosureIndex& index) {
  std::vector<ViewId> views(index.view_count());
  std::iota(views.begin(), views.end(), 0);
  return views;
}

std::vector<std::string> ViewNames(const ClosureIndex& index,
                                   const std::vector<ViewId>& views) {
  std::vector<std::string> names;
  names.reserve(views.size());
  for (ViewId v : views) names.push_back(index.ViewName(v));
  return names;
}

std::set<std::string> FlaggedViewNames(const ClosureIndex& index,
                                       const std::vector<bool>& flags) {
  std::set<std::string> names;
  for (ViewId v = 0; v < flags.size(); ++v) {
    if (flags[v]) names.insert(index.ViewName(v));
  }
  return names;
}

}  // namespace

FClosure ComputeFClosure(const AttributeSet& initial,
                         const std::vector<SourceView>& candidates) {
  const ClosureIndex index(candidates);
  ClosureIndex::Forward forward =
      index.ForwardClosure(KnownIds(index, initial));
  FClosure closure;
  closure.order = ViewNames(index, forward.order);
  closure.views.insert(closure.order.begin(), closure.order.end());
  closure.bound_attributes = initial;
  for (AttributeId a = 0; a < forward.bound.size(); ++a) {
    if (forward.bound[a]) {
      closure.bound_attributes.insert(index.AttributeName(a));
    }
  }
  return closure;
}

bool IsIndependent(const AttributeSet& inputs,
                   const std::vector<SourceView>& connection_views) {
  const ClosureIndex index(connection_views);
  return index.ForwardClosure(KnownIds(index, inputs)).order.size() ==
         index.view_count();
}

Result<std::vector<std::string>> ExecutableSequence(
    const AttributeSet& inputs,
    const std::vector<SourceView>& connection_views) {
  const ClosureIndex index(connection_views);
  ClosureIndex::Forward forward = index.ForwardClosure(KnownIds(index, inputs));
  if (forward.order.size() != index.view_count()) {
    return Status::NotFound(
        "connection is not independent: no executable sequence exists");
  }
  return ViewNames(index, forward.order);
}

AttributeSet ComputeKernel(const AttributeSet& inputs,
                           const std::vector<SourceView>& connection_views) {
  const ClosureIndex index(connection_views);
  AttributeSet kernel;
  for (AttributeId a : index.Kernel(KnownIds(index, inputs), AllViews(index))) {
    kernel.insert(index.AttributeName(a));
  }
  return kernel;
}

std::vector<AttributeSet> AllKernels(
    const AttributeSet& inputs,
    const std::vector<SourceView>& connection_views) {
  const ClosureIndex index(connection_views);
  const std::vector<ViewId> views = AllViews(index);
  std::vector<AttributeId> input_ids = KnownIds(index, inputs);
  // A(T) − I(Q) in name order: bit i of a subset mask is candidates[i].
  std::vector<AttributeId> candidates;
  for (AttributeId a = 0; a < index.attribute_count(); ++a) {
    if (std::find(input_ids.begin(), input_ids.end(), a) == input_ids.end()) {
      candidates.push_back(a);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](AttributeId a, AttributeId b) {
              return index.AttributeName(a) < index.AttributeName(b);
            });
  if (candidates.size() > 20) {
    // Exhaustive search is infeasible; return the greedy kernel.
    AttributeSet kernel;
    for (AttributeId a : index.Kernel(input_ids, views)) {
      kernel.insert(index.AttributeName(a));
    }
    return {kernel};
  }

  std::vector<std::size_t> satisfying;
  const std::size_t total = std::size_t{1} << candidates.size();
  for (std::size_t mask = 0; mask < total; ++mask) {
    std::vector<bool> start(index.attribute_count(), false);
    for (AttributeId a : input_ids) start[a] = true;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (mask & (std::size_t{1} << i)) start[candidates[i]] = true;
    }
    if (index.Covers(std::move(start), views)) satisfying.push_back(mask);
  }
  // Keep the minimal satisfying sets.
  std::vector<AttributeSet> kernels;
  for (std::size_t a : satisfying) {
    const bool minimal = std::none_of(
        satisfying.begin(), satisfying.end(),
        [a](std::size_t b) { return b != a && (b & ~a) == 0; });
    if (!minimal) continue;
    AttributeSet kernel;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (a & (std::size_t{1} << i)) {
        kernel.insert(index.AttributeName(candidates[i]));
      }
    }
    kernels.push_back(std::move(kernel));
  }
  std::sort(kernels.begin(), kernels.end());
  return kernels;
}

bool IsBFChain(const std::vector<SourceView>& chain) {
  if (chain.empty()) return false;
  // For multi-template views, "contributes bindings" is taken over any
  // pair of templates: some template of the first frees an attribute some
  // template of the second binds.
  auto union_free = [](const SourceView& view) {
    AttributeSet out;
    for (std::size_t t = 0; t < view.templates().size(); ++t) {
      AttributeSet free_attrs = view.FreeAttributes(t);
      out.insert(free_attrs.begin(), free_attrs.end());
    }
    return out;
  };
  auto union_bound = [](const SourceView& view) {
    AttributeSet out;
    for (std::size_t t = 0; t < view.templates().size(); ++t) {
      AttributeSet bound_attrs = view.BoundAttributes(t);
      out.insert(bound_attrs.begin(), bound_attrs.end());
    }
    return out;
  };
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    AttributeSet free_attrs = union_free(chain[i]);
    AttributeSet bound_next = union_bound(chain[i + 1]);
    bool overlap = false;
    for (const std::string& attribute : free_attrs) {
      if (bound_next.count(attribute) > 0) {
        overlap = true;
        break;
      }
    }
    if (!overlap) return false;
  }
  return true;
}

std::set<std::string> ComputeBClosure(
    const std::string& attribute,
    const std::vector<SourceView>& queryable_views) {
  return ComputeBClosure(AttributeSet{attribute}, queryable_views);
}

std::set<std::string> ComputeBClosure(
    const AttributeSet& attributes,
    const std::vector<SourceView>& queryable_views) {
  // The union of single-attribute b-closures is itself closed, so one
  // walk seeded with all of `attributes` computes it.
  const ClosureIndex index(queryable_views);
  const std::vector<bool> all(index.view_count(), true);
  return FlaggedViewNames(
      index, index.BackwardClosure(KnownIds(index, attributes), all));
}

}  // namespace limcap::planner
