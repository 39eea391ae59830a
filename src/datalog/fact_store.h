#ifndef LIMCAP_DATALOG_FACT_STORE_H_
#define LIMCAP_DATALOG_FACT_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/interner.h"
#include "common/result.h"
#include "common/value.h"
#include "common/value_dictionary.h"
#include "relational/relation.h"

namespace limcap::datalog {

/// A fact row with dictionary-encoded values (the owning form; engine hot
/// paths use RowView over the store's flat arenas instead).
using IdRow = std::vector<ValueId>;

/// Non-owning view of one stored row: `arity` consecutive ValueIds inside
/// a predicate's arena.
using RowView = std::span<const ValueId>;

/// Dense id of an interned predicate name. Ids index plain vectors in the
/// store, the evaluator's watermarks, and the dependency graph.
using PredicateId = uint32_t;
inline constexpr PredicateId kNoPredicate = 0xFFFFFFFFu;

/// Interns predicate names to PredicateIds.
using PredicateTable = Interner<PredicateId>;

/// Random-access range over a predicate's rows; dereferencing yields
/// RowViews into the arity-strided arena.
class FactSpan {
 public:
  FactSpan() = default;
  FactSpan(const ValueId* data, std::size_t arity, std::size_t rows)
      : data_(data), arity_(arity), rows_(rows) {}

  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  RowView operator[](std::size_t i) const {
    return RowView(data_ + i * arity_, arity_);
  }

  class iterator {
   public:
    iterator(const FactSpan* span, std::size_t pos) : span_(span), pos_(pos) {}
    RowView operator*() const { return (*span_)[pos_]; }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const iterator& other) const { return pos_ != other.pos_; }

   private:
    const FactSpan* span_;
    std::size_t pos_;
  };
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, rows_); }

 private:
  const ValueId* data_ = nullptr;
  std::size_t arity_ = 0;
  std::size_t rows_ = 0;
};

/// Holds the extensional and derived facts of a Datalog evaluation, one
/// fact set per predicate. Predicate names are interned to dense
/// PredicateIds and values into a shared dictionary, so each predicate's
/// rows live in a single arity-strided std::vector<ValueId> arena; rows
/// are appended (never removed), so a row-count watermark identifies a
/// predicate's delta — exactly what semi-naive iteration and the
/// resumable source-driven evaluation need.
///
/// Duplicate detection and per-column-subset indexes are open-addressing
/// tables over row positions; keys are never materialized (hashing and
/// equality read the arena directly), so inserts and probes do not
/// allocate outside amortized table growth.
///
/// Thread-safety: concurrent reads (Facts/Count/Contains/ProbeEach on
/// already-built indexes) are safe while no insert runs.
class FactStore {
 public:
  FactStore() : dict_(std::make_shared<ValueDictionary>()) {}
  /// A store encoding against an existing (session) dictionary, so rows
  /// flow between the store and same-session relations as raw ids.
  explicit FactStore(ValueDictionaryPtr dict) : dict_(std::move(dict)) {}

  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;
  FactStore(FactStore&&) = default;
  FactStore& operator=(FactStore&&) = default;

  ValueDictionary& dict() { return *dict_; }
  const ValueDictionary& dict() const { return *dict_; }
  const ValueDictionaryPtr& dict_ptr() const { return dict_; }

  const PredicateTable& predicate_table() const { return names_; }

  /// Declares `predicate` with the given arity (idempotent; fails on a
  /// conflicting arity) and returns its dense id.
  Result<PredicateId> DeclareId(std::string_view predicate,
                                std::size_t arity);
  Status Declare(const std::string& predicate, std::size_t arity);

  /// The id of `predicate` if declared, else kNoPredicate.
  PredicateId FindPredicate(std::string_view predicate) const;

  bool IsDeclared(const std::string& predicate) const {
    return FindPredicate(predicate) != kNoPredicate;
  }
  const std::string& PredicateName(PredicateId pred) const {
    return names_.Name(pred);
  }
  std::size_t NumPredicates() const { return preds_.size(); }

  Result<std::size_t> Arity(const std::string& predicate) const;
  std::size_t Arity(PredicateId pred) const { return preds_[pred].arity; }

  /// Interns `row` and inserts it; returns true when new. Declares the
  /// predicate implicitly with the row's arity.
  Result<bool> Insert(const std::string& predicate,
                      const relational::Row& row);

  /// Inserts an already-encoded row; true when new.
  Result<bool> InsertIds(const std::string& predicate, const IdRow& row);
  Result<bool> InsertIds(PredicateId pred, RowView row);

  bool Contains(const std::string& predicate, const IdRow& row) const;
  bool Contains(PredicateId pred, RowView row) const;

  /// Number of facts for `predicate` (0 when undeclared).
  std::size_t Count(const std::string& predicate) const;
  std::size_t Count(PredicateId pred) const { return preds_[pred].num_rows; }

  /// Total facts across predicates.
  std::size_t TotalCount() const;

  /// All facts of `predicate` in insertion order. Row views stay valid
  /// until the next insert into the predicate (the arena may reallocate);
  /// callers capture sizes, not iterators, across inserts.
  FactSpan Facts(const std::string& predicate) const;
  FactSpan Facts(PredicateId pred) const;

  /// One row of `pred` by position.
  RowView Row(PredicateId pred, std::size_t pos) const {
    return Facts(pred)[pos];
  }

  /// Ensures the hash index of `pred` over `columns` exists (building it
  /// from the current rows if not). Inserts maintain existing indexes
  /// incrementally. Pre-building every index a query plan needs makes
  /// subsequent ProbeEach calls read-only and thus safe to issue from
  /// concurrent readers.
  void EnsureIndex(PredicateId pred, std::span<const uint32_t> columns);

  /// Invokes `fn(pos)` for every row position in [0, limit) whose values
  /// at `columns` equal `key`, in ascending order. Allocation-free: walks
  /// the open-addressing index chain (falling back to a scan of [0,limit)
  /// when the index does not exist — EnsureIndex first on hot paths).
  /// `fn` returns false to stop early.
  template <typename Fn>
  void ProbeEach(PredicateId pred, std::span<const uint32_t> columns,
                 RowView key, std::size_t limit, Fn&& fn) const {
    if (pred >= preds_.size()) return;
    const PredicateData& data = preds_[pred];
    const std::size_t bound = std::min(limit, data.num_rows);
    if (bound == 0) return;
    const ColumnIndex* index = FindIndex(data, columns);
    if (index == nullptr) {
      // Slow path for unindexed probes (tests, ad-hoc callers).
      for (std::size_t pos = 0; pos < bound; ++pos) {
        const ValueId* row = data.arena.data() + pos * data.arity;
        bool match = true;
        for (std::size_t c = 0; c < columns.size(); ++c) {
          if (row[columns[c]] != key[c]) {
            match = false;
            break;
          }
        }
        if (match && !fn(pos)) return;
      }
      return;
    }
    const std::size_t slot = FindKeySlot(data, *index, key);
    if (slot == kNoSlot) return;
    // Postings chains are appended in insertion order, so positions are
    // ascending; stop at the limit.
    for (uint32_t p = index->slots[slot].head; p != kEmptySlot;
         p = index->postings[p].next) {
      const std::size_t pos = index->postings[p].pos;
      if (pos >= bound) return;
      if (!fn(pos)) return;
    }
  }

  /// Row positions in [0, limit) whose values at `columns` equal `key`,
  /// ascending. Builds the index on first use (hence non-const); the
  /// allocation-free engine path is ProbeEach.
  std::vector<std::size_t> Probe(const std::string& predicate,
                                 const std::vector<std::size_t>& columns,
                                 const IdRow& key, std::size_t limit);

  /// Decodes the facts of `predicate` into a Relation with `schema`
  /// (arity must match).
  Result<relational::Relation> ToRelation(
      const std::string& predicate, const relational::Schema& schema) const;

  /// Decodes one fact row.
  relational::Row Decode(RowView row) const;

  /// Declared predicates, sorted.
  std::vector<std::string> Predicates() const;

 private:
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Open-addressing index of one predicate over one column subset.
  /// Slots hold the key hash plus head/tail of a postings chain; key
  /// bytes are never stored — equality compares the probe key against the
  /// chain head's row in the arena.
  struct ColumnIndex {
    std::vector<uint32_t> columns;
    struct Slot {
      std::size_t hash = 0;
      uint32_t head = kEmptySlot;
      uint32_t tail = kEmptySlot;
    };
    struct Posting {
      uint32_t pos;
      uint32_t next;
    };
    std::vector<Slot> slots;  // power-of-two size
    std::vector<Posting> postings;
    std::size_t num_keys = 0;
  };

  struct PredicateData {
    std::size_t arity = 0;
    std::size_t num_rows = 0;
    std::vector<ValueId> arena;  // num_rows * arity ids
    // Duplicate-detection set: open addressing over row positions, keyed
    // by full-row hash/equality against the arena.
    std::vector<uint32_t> set_slots;  // power-of-two size
    std::vector<ColumnIndex> indexes;
  };

  RowView ArenaRow(const PredicateData& data, std::size_t pos) const {
    return RowView(data.arena.data() + pos * data.arity, data.arity);
  }

  /// Position of `row` in data's row set, or kNoSlot-marked miss: returns
  /// the slot index holding the match, or the empty slot where it would
  /// go, via `out_slot`; true when found.
  bool FindRowSlot(const PredicateData& data, RowView row,
                   std::size_t* out_slot) const;
  void GrowRowSet(PredicateData& data);

  static std::size_t KeyHashOfRow(const PredicateData& data,
                                  const ColumnIndex& index, std::size_t pos);
  bool KeyEqualsRow(const PredicateData& data, const ColumnIndex& index,
                    std::size_t pos, RowView key) const;
  /// Slot of `key` in `index`, or kNoSlot.
  std::size_t FindKeySlot(const PredicateData& data, const ColumnIndex& index,
                          RowView key) const;
  const ColumnIndex* FindIndex(const PredicateData& data,
                               std::span<const uint32_t> columns) const;
  void IndexInsert(PredicateData& data, ColumnIndex& index, std::size_t pos);
  void GrowIndex(ColumnIndex& index);

  ValueDictionaryPtr dict_;
  PredicateTable names_;
  std::vector<PredicateData> preds_;
};

}  // namespace limcap::datalog

#endif  // LIMCAP_DATALOG_FACT_STORE_H_
