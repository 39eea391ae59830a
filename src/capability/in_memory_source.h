#ifndef LIMCAP_CAPABILITY_IN_MEMORY_SOURCE_H_
#define LIMCAP_CAPABILITY_IN_MEMORY_SOURCE_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "capability/source.h"

namespace limcap::capability {

/// A source backed by an in-memory relation. This is the test double for a
/// real wrapper (paper Section 2.1 assumes wrappers export relational
/// views): it enforces the view's binding requirements exactly as a Web
/// form with required fields would, and answers with the tuples matching
/// the supplied bindings.
class InMemorySource : public Source {
 public:
  /// `data`'s schema must equal the view's schema.
  static Result<InMemorySource> Make(SourceView view,
                                     relational::Relation data);

  /// Aborting variant for static catalogs.
  static InMemorySource MakeUnsafe(SourceView view, relational::Relation data);

  const SourceView& view() const override { return view_; }

  /// Enforces capabilities: fails with kCapabilityViolation when a
  /// must-bind attribute is missing from `query`, and kInvalidArgument
  /// when a binding names an attribute outside the schema. Safe to call
  /// concurrently (probing builds column indexes in `data_` lazily, so
  /// calls are internally serialized).
  Result<relational::Relation> Execute(const SourceQuery& query) override;

  const relational::Relation& data() const { return data_; }

 private:
  InMemorySource(SourceView view, relational::Relation data)
      : view_(std::move(view)), data_(std::move(data)) {}

  SourceView view_;
  relational::Relation data_;
  /// Held indirectly so the source stays movable (factories return by
  /// value).
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  /// Probe scratch, reused by every call under `mutex_`: the bound
  /// columns, the key in `data_`'s encoding, and one answer row. Once
  /// they have grown to the view's arity, a query that matches nothing
  /// allocates nothing.
  std::vector<std::size_t> columns_;
  relational::IdRow key_;
  relational::IdRow row_;
};

}  // namespace limcap::capability

#endif  // LIMCAP_CAPABILITY_IN_MEMORY_SOURCE_H_
