#ifndef LIMCAP_PLANNER_CLOSURE_H_
#define LIMCAP_PLANNER_CLOSURE_H_

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "capability/source_view.h"
#include "common/interner.h"
#include "planner/domain_map.h"
#include "planner/query.h"

namespace limcap::planner {

using capability::SourceView;

/// A named view reduced to its bound / free attribute sets, one per
/// template (paper Section 5's abstract input of the closures). The
/// closures themselves run over a ClosureIndex; this is the readable
/// string form.
struct Adorned {
  std::string name;
  AttributeSet bound;  ///< B(v): names that must be bound to query v
  AttributeSet free;   ///< F(v): names v can supply new values for

  /// A(v) = bound ∪ free.
  AttributeSet All() const;

  /// Reduces a source view to one Adorned per template, all sharing the
  /// view's name: alternatives, of which any one qualifies the view.
  static std::vector<Adorned> FromView(const SourceView& view);
};

/// Dense ids of a ClosureIndex.
using AttributeId = std::uint32_t;
using ViewId = std::uint32_t;

/// A view list in dense-id form: the one engine behind FIND_REL and every
/// closure function below. It interns each attribute once and folds it to
/// its domain's representative — the lexicographically smallest indexed
/// attribute of that domain, so the identity when `domains` groups
/// nothing (binding flow follows domains, Section 3). Every template of
/// every view becomes a candidate: the view's id plus the representative
/// ids of its bound and free attributes (the two may overlap after
/// folding). Same-named views share one id, so their templates are
/// alternatives: a view joins a closure when any of its templates does.
///
/// Each closure costs time linear in the adornments Σ(|B| + |F|) over the
/// candidates it scans (the f-closure's ready heap adds a log factor in
/// the number of candidates), against the quadratic pass-by-pass scan of
/// Section 5.4's bound.
class ClosureIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Indexes `views` plus `extra_attributes` (attributes outside the
  /// views that still take part in domain folding, e.g. the query's
  /// inputs).
  explicit ClosureIndex(const std::vector<SourceView>& views,
                        const DomainMap& domains = DomainMap(),
                        const AttributeSet& extra_attributes = {});

  std::size_t attribute_count() const { return representative_.size(); }
  std::size_t view_count() const { return views_.size(); }
  const std::string& AttributeName(AttributeId id) const {
    return attributes_.Name(id);
  }
  const std::string& ViewName(ViewId id) const { return views_.Name(id); }
  AttributeId Representative(AttributeId id) const {
    return representative_[id];
  }
  /// The id of an indexed attribute / view name, or kNone.
  AttributeId FindAttribute(std::string_view name) const;
  ViewId FindView(std::string_view name) const;
  /// The id of `name`; an attribute not indexed yet joins as its own
  /// domain representative.
  AttributeId AddAttribute(std::string_view name);
  /// A(v) as the views' own (unfolded) attribute ids.
  std::span<const AttributeId> ViewAttributes(ViewId view) const {
    return Slice(view_attributes_, view_attribute_begin_, view);
  }

  /// f-closure(X, V) (Definition 4.1) over every indexed view.
  struct Forward {
    /// Views in admission order: each view's binding requirements are met
    /// by X plus the attributes of the views before it.
    std::vector<ViewId> order;
    std::vector<bool> contains;  ///< per view id
    std::vector<bool> bound;     ///< per attribute id: X plus A(closure)
  };
  /// `initial` holds representative ids.
  Forward ForwardClosure(std::span<const AttributeId> initial) const;

  /// True when f-closure(`start`, T) = T for the connection T = `views`;
  /// `start` flags representative ids.
  bool Covers(std::vector<bool> start, std::span<const ViewId> views) const;

  /// A kernel of connection `views` (Definition 5.1): A(T) − `inputs`
  /// shrunk greedily in attribute-name order, each removal tested with
  /// the f-closure over T. Representative ids, in name order.
  std::vector<AttributeId> Kernel(std::span<const AttributeId> inputs,
                                  std::span<const ViewId> views) const;

  /// b-closure(`seeds`) (Definition 5.3) over the views flagged in
  /// `allowed`: the views freeing a seed, closed under "F(v) meets the
  /// bound attributes of a view already in". A multi-template view
  /// contributes every template's bound attributes — conservative:
  /// relevance may keep an extra view, never drops a useful one.
  std::vector<bool> BackwardClosure(std::span<const AttributeId> seeds,
                                    const std::vector<bool>& allowed) const;

 private:
  class Worklist;

  static std::span<const std::uint32_t> Slice(
      const std::vector<std::uint32_t>& items,
      const std::vector<std::uint32_t>& begin, std::uint32_t i) {
    return {items.data() + begin[i], items.data() + begin[i + 1]};
  }
  std::span<const AttributeId> Bound(std::uint32_t candidate) const {
    return Slice(bound_, bound_begin_, candidate);
  }
  std::span<const AttributeId> Free(std::uint32_t candidate) const {
    return Slice(free_, free_begin_, candidate);
  }
  /// The candidates of `views`, in view order then template order.
  std::vector<std::uint32_t> CandidatesOf(std::span<const ViewId> views) const;

  Interner<AttributeId> attributes_;
  std::vector<AttributeId> representative_;
  Interner<ViewId> views_;
  // Flat (CSR) lists: entry i of a list spans [begin[i], begin[i + 1]).
  std::vector<std::uint32_t> view_attribute_begin_;
  std::vector<AttributeId> view_attributes_;
  std::vector<std::uint32_t> view_candidate_begin_;
  std::vector<std::uint32_t> view_candidates_;
  std::vector<ViewId> candidate_view_;  ///< registration order
  std::vector<std::uint32_t> bound_begin_;
  std::vector<AttributeId> bound_;
  std::vector<std::uint32_t> free_begin_;
  std::vector<AttributeId> free_;
  /// Attribute → the candidates freeing it, for the b-closure.
  std::vector<std::uint32_t> freeing_begin_;
  std::vector<std::uint32_t> freeing_;
};

/// The result of a forward-closure computation (paper Definition 4.1).
struct FClosure {
  /// Views added to the closure, in addition order. This order is an
  /// executable sequence: each view's binding requirements are satisfied
  /// by the initial attributes plus the views before it.
  std::vector<std::string> order;
  /// The closure as a set of view names.
  std::set<std::string> views;
  /// All attributes bound at the end: the initial set X plus every
  /// attribute of every view in the closure (a superset of the paper's
  /// A(f-closure(X, W)) by the initial X).
  AttributeSet bound_attributes;

  bool Contains(const std::string& view) const {
    return views.count(view) > 0;
  }
};

/// f-closure(X, W): the views of `candidates` whose binding requirements
/// can eventually be satisfied starting from the attributes in `initial`,
/// using only views in `candidates`. Deterministic: the order is the one
/// of repeated passes over `candidates`, each admitting in list order
/// every view whose requirements are met by then.
FClosure ComputeFClosure(const AttributeSet& initial,
                         const std::vector<SourceView>& candidates);

/// True when connection views `connection_views` form an independent
/// connection for initial bindings `inputs` (Section 4.2):
/// f-closure(I(Q), T) = T.
bool IsIndependent(const AttributeSet& inputs,
                   const std::vector<SourceView>& connection_views);

/// The executable sequence witnessing independence (every view's B(v) is
/// covered by I(Q) plus all attributes of earlier views), or NotFound when
/// the connection is not independent.
Result<std::vector<std::string>> ExecutableSequence(
    const AttributeSet& inputs,
    const std::vector<SourceView>& connection_views);

/// A kernel of connection T (Definition 5.1): a minimal K ⊆ A(T) − I(Q)
/// with f-closure(K ∪ I(Q), T) = T. Computed by shrinking A(T) − I(Q)
/// greedily in attribute order; deterministic. The empty set is returned
/// exactly when the connection is independent.
AttributeSet ComputeKernel(const AttributeSet& inputs,
                           const std::vector<SourceView>& connection_views);

/// Every kernel of the connection, by exhaustive minimal-subset search —
/// exponential in |A(T) − I(Q)|, intended for analysis and tests of
/// Lemma 5.3 (all kernels share one backward-closure). Kernels are sorted.
std::vector<AttributeSet> AllKernels(
    const AttributeSet& inputs,
    const std::vector<SourceView>& connection_views);

/// True when `chain` is a BF-chain (Definition 5.2): for every adjacent
/// pair, the free attributes of the first overlap the bound attributes of
/// the second.
bool IsBFChain(const std::vector<SourceView>& chain);

/// b-closure(A) (Definition 5.3): the queryable views backtrackable from
/// attribute `attribute` along BF-chains in reverse — seeded with the
/// views taking `attribute` as a free attribute, then closed under
/// "F(v) ∩ B(w) ≠ ∅ for some w already in the closure".
std::set<std::string> ComputeBClosure(
    const std::string& attribute,
    const std::vector<SourceView>& queryable_views);

/// b-closure(X) = ∪_{A ∈ X} b-closure(A).
std::set<std::string> ComputeBClosure(
    const AttributeSet& attributes,
    const std::vector<SourceView>& queryable_views);

}  // namespace limcap::planner

#endif  // LIMCAP_PLANNER_CLOSURE_H_
