#ifndef LIMCAP_CAPABILITY_IN_MEMORY_SOURCE_H_
#define LIMCAP_CAPABILITY_IN_MEMORY_SOURCE_H_

#include <cstdint>
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

  /// One entry of the translation memo: caller id `id` maps to `local`,
  /// the id `data_`'s dictionary gives the caller's value, or kAbsent
  /// when it holds no such value. Only entries stamped with the current
  /// generation are live; any other is an empty slot.
  struct MemoEntry {
    uint64_t generation = 0;  ///< 0: never written
    ValueId id = 0;
    ValueId local = 0;
  };
  static constexpr ValueId kAbsent = ~ValueId{0};

  /// `data_`'s id for the value `dict` gives `id`, or kAbsent, through
  /// the memo.
  ValueId LocalId(const ValueDictionary& dict, ValueId id);
  /// The slot of live entry `id`, or the empty slot it would take.
  std::size_t MemoSlot(ValueId id) const;

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
  /// The translation memo (under `mutex_`), for the one caller
  /// dictionary last seen (`memo_identity_`): an open-addressing table,
  /// linear probing, at most half full. A caller dictionary with another
  /// identity takes it over by bumping `memo_generation_`, which empties
  /// every slot at once, so a take-over costs the same however large
  /// either dictionary is, and the table holds only ids callers sent. A
  /// dictionary that comes back starts a new generation too: the one
  /// between may have overwritten slots of its old probe chains. Both
  /// dictionaries only append and `data_` never changes, so an entry
  /// stays true while its generation lasts, and identities never repeat
  /// (ValueDictionary::identity()).
  std::vector<MemoEntry> memo_;
  uint64_t memo_identity_ = 0;
  uint64_t memo_generation_ = 0;
  std::size_t memo_live_ = 0;
};

}  // namespace limcap::capability

#endif  // LIMCAP_CAPABILITY_IN_MEMORY_SOURCE_H_
