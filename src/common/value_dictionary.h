#ifndef LIMCAP_COMMON_VALUE_DICTIONARY_H_
#define LIMCAP_COMMON_VALUE_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace limcap {

/// Dense id assigned to an interned Value. Ids are assigned sequentially
/// starting at 0 and are stable for the dictionary's lifetime.
using ValueId = uint32_t;

/// Interns Values to dense ValueIds. The execution pipeline dictionary-
/// encodes every constant it touches so that engine rows are flat vectors
/// of 32-bit ids with cheap equality/hash, the standard encoding trick in
/// analytic database executors.
///
/// One dictionary is shared per answering session: the mediator (or
/// QueryAnswerer) creates it, and the fact store, source queries, source
/// answers, and the answer relation all encode against it, so a tuple is
/// translated between Value and ValueId at most once — at source ingest.
///
/// Every Value↔id crossing is counted (encode: Intern/Lookup; decode:
/// Get). The exec layer snapshots translation_count() around the post-
/// ingest hot path to enforce the single-translation invariant; see
/// exec::ExecResult::post_ingest_translations. Counters are relaxed
/// atomics so read-side decodes may race harmlessly with each other, but
/// Intern itself is NOT thread-safe — interning is confined to the
/// session's driver thread.
class ValueDictionary {
 public:
  ValueDictionary() = default;

  ValueDictionary(const ValueDictionary&) = delete;
  ValueDictionary& operator=(const ValueDictionary&) = delete;
  ValueDictionary(ValueDictionary&& other) noexcept
      : ids_(std::move(other.ids_)),
        values_(std::move(other.values_)),
        encodes_(other.encodes_.load(std::memory_order_relaxed)),
        decodes_(other.decodes_.load(std::memory_order_relaxed)) {}
  ValueDictionary& operator=(ValueDictionary&& other) noexcept {
    ids_ = std::move(other.ids_);
    values_ = std::move(other.values_);
    encodes_.store(other.encodes_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    decodes_.store(other.decodes_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  /// Returns the id for `value`, interning it if unseen.
  ValueId Intern(const Value& value);

  /// Interns every value of `other` into this dictionary in `other`'s id
  /// order (id 0 first), the deterministic merge of the multi-query
  /// server: absorbing per-query dictionaries in a fixed order (query
  /// admission order) yields a server dictionary whose ids are a pure
  /// function of that order, never of completion timing. When `remap` is
  /// non-null it is resized to other.size() with remap[old_id] = the id
  /// here, so absorbed relations can be re-keyed without another decode
  /// pass. Counts as encode traffic on this dictionary and decode
  /// traffic on `other` (ingest-style translation, by design off any
  /// query's hot path).
  void Absorb(const ValueDictionary& other,
              std::vector<ValueId>* remap = nullptr);

  /// Returns the id of `value` if already interned, or false.
  bool Lookup(const Value& value, ValueId* id) const;

  /// Returns the value for an id assigned by this dictionary.
  const Value& Get(ValueId id) const {
    decodes_.fetch_add(1, std::memory_order_relaxed);
    return values_[id];
  }

  std::size_t size() const { return values_.size(); }

  /// Value→id crossings so far (Intern + Lookup calls).
  uint64_t encode_count() const {
    return encodes_.load(std::memory_order_relaxed);
  }
  /// id→Value crossings so far (Get calls).
  uint64_t decode_count() const {
    return decodes_.load(std::memory_order_relaxed);
  }
  /// All Value↔id crossings so far.
  uint64_t translation_count() const {
    return encode_count() + decode_count();
  }

 private:
  std::unordered_map<Value, ValueId> ids_;
  std::vector<Value> values_;
  mutable std::atomic<uint64_t> encodes_{0};
  mutable std::atomic<uint64_t> decodes_{0};
};

/// Shared ownership handle for a session dictionary. Layers that outlive
/// one call (cached relations, access logs) hold the handle so decoded
/// rendering stays valid after the session that produced them ends.
using ValueDictionaryPtr = std::shared_ptr<ValueDictionary>;

}  // namespace limcap

#endif  // LIMCAP_COMMON_VALUE_DICTIONARY_H_
