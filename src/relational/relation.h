#ifndef LIMCAP_RELATIONAL_RELATION_H_
#define LIMCAP_RELATIONAL_RELATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/value.h"
#include "common/value_dictionary.h"
#include "relational/schema.h"

namespace limcap::relational {

/// A row of values, positionally aligned with a Schema. The Value-typed
/// form exists for ingest, tests, and text rendering; engine hot paths
/// exchange dictionary-encoded id rows instead.
using Row = std::vector<Value>;

/// A dictionary-encoded row: ValueIds positionally aligned with a Schema.
using IdRow = std::vector<ValueId>;

/// A set-semantics relation with columnar dictionary-encoded storage: a
/// schema, a shared ValueDictionary, and one std::vector<ValueId> per
/// column. Rows are deduplicated in insertion order via an open-addressing
/// row set, and lazily-built ValueId-keyed column indexes support the
/// bound-attribute probes that dominate capability-restricted execution —
/// the same flat encoding the Datalog FactStore uses, so tuples cross the
/// relational/datalog seam without re-translation. Column storage is
/// allocated with the first row: an empty relation (a source miss) costs
/// no heap allocation beyond its dictionary, which callers usually share.
///
/// Dictionary sharing: every relation encodes against the dictionary given
/// at construction (a fresh private one by default). Relations sharing a
/// dictionary exchange rows as raw ids (InsertIdsUnsafe, ProbeEachIds);
/// mixed-dictionary operations go through the Value-typed accessors or
/// WithDictionary(), which re-interns — the translation the interned
/// execution path pays only at source ingest.
class Relation {
 public:
  Relation() : Relation(Schema()) {}
  explicit Relation(Schema schema)
      : Relation(std::move(schema), std::make_shared<ValueDictionary>()) {}
  Relation(Schema schema, ValueDictionaryPtr dict)
      : schema_(std::move(schema)), dict_(std::move(dict)) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const Schema& schema() const { return schema_; }
  std::size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// The dictionary this relation's ids refer to (never null).
  const ValueDictionaryPtr& dict_ptr() const { return dict_; }
  ValueDictionary& dict() const { return *dict_; }

  /// True when `other` encodes against the same dictionary, making raw id
  /// exchange between the two relations valid.
  bool SharesDictionaryWith(const Relation& other) const {
    return dict_ == other.dict_;
  }

  // --- interned-native API (the hot path) ---------------------------------

  /// Id at (row, column); no decode.
  ValueId IdAt(std::size_t row, std::size_t col) const {
    return columns_[col][row];
  }

  /// Non-owning view of one stored row over the columnar storage; valid
  /// until the next insert. Ids are free; values decode through the shared
  /// dictionary on demand.
  class RowView {
   public:
    RowView(const Relation* relation, std::size_t pos)
        : relation_(relation), pos_(pos) {}
    std::size_t size() const { return relation_->schema().arity(); }
    ValueId id(std::size_t col) const { return relation_->IdAt(pos_, col); }
    const Value& value(std::size_t col) const {
      return relation_->dict().Get(id(col));
    }
    std::size_t position() const { return pos_; }

   private:
    const Relation* relation_;
    std::size_t pos_;
  };

  RowView View(std::size_t row) const { return RowView(this, row); }

  /// One column's ids, in row order (empty on an empty relation).
  const std::vector<ValueId>& ColumnIdsAt(std::size_t col) const {
    return columns_.empty() ? kNoIds : columns_[col];
  }

  /// Copies row `row`'s ids into `out` (resized to the arity). Reuse `out`
  /// across calls to keep the loop allocation-free after warmup.
  void GatherRowIds(std::size_t row, IdRow* out) const;

  /// Inserts an already-encoded row (ids must come from this relation's
  /// dictionary); returns true when the row was new. Fails on arity
  /// mismatch.
  Result<bool> InsertIds(std::span<const ValueId> row);
  bool InsertIdsUnsafe(std::span<const ValueId> row);

  bool ContainsIds(std::span<const ValueId> row) const;

  /// Invokes `fn(pos)` for every row whose ids at `columns` equal `key`,
  /// in ascending row order; `fn` returns false to stop early. Uses (and
  /// builds on first use) the ValueId-keyed index on `columns` —
  /// allocation-free once the index exists, mirroring
  /// FactStore::ProbeEach. Empty `columns` enumerates every row.
  template <typename Fn>
  void ProbeEachIds(std::span<const std::size_t> columns,
                    std::span<const ValueId> key, Fn&& fn) const {
    if (num_rows_ == 0) return;
    if (columns.empty()) {
      for (std::size_t pos = 0; pos < num_rows_; ++pos) {
        if (!fn(pos)) return;
      }
      return;
    }
    const ColumnIndex& index = EnsureIndex(columns);
    const std::size_t slot = FindKeySlot(index, key);
    if (slot == kNoSlot) return;
    // Postings chains append in insertion order, so positions ascend.
    for (uint32_t p = index.slots[slot].head; p != kEmptySlot;
         p = index.postings[p].next) {
      if (!fn(index.postings[p].pos)) return;
    }
  }

  /// Row positions whose ids at `columns` equal `key`, ascending. The
  /// allocation-free form is ProbeEachIds.
  std::vector<std::size_t> ProbeIds(std::span<const std::size_t> columns,
                                    std::span<const ValueId> key) const;

  /// Distinct ids of the column at `index`, in first-seen order.
  std::vector<ValueId> ColumnDistinctIds(std::size_t index) const;

  // --- Value-typed accessors (ingest, tests, text rendering) --------------

  /// Interns and inserts a row; returns true when the row was new. This is
  /// the single ingest translation of the interned execution path. Fails
  /// when the arity does not match the schema.
  Result<bool> Insert(Row row);

  /// Insert for static data; aborts on arity mismatch.
  bool InsertUnsafe(Row row);

  /// Membership by value; translation-free miss for values the dictionary
  /// has never seen.
  bool Contains(const Row& row) const;

  /// Row positions whose values at `columns` equal `key` (positionally).
  /// Values absent from the dictionary match nothing.
  std::vector<std::size_t> Probe(const std::vector<std::size_t>& columns,
                                 const Row& key) const;

  /// Decodes one row.
  Row DecodeRow(std::size_t row) const;

  /// Decodes every row in insertion order.
  std::vector<Row> DecodedRows() const;

  /// Distinct values of the column at `index`.
  std::vector<Value> ColumnValues(std::size_t index) const;

  /// Rows sorted by value order — canonical order for printing and tests.
  std::vector<Row> SortedRows() const;

  /// Renders "{<a, b>, <c, d>}" in sorted order.
  std::string ToString() const;

  /// A copy of this relation re-encoded against `dict` (same object →
  /// cheap structural copy; different dictionary → one re-interning pass).
  Relation WithDictionary(ValueDictionaryPtr dict) const;

  /// Set equality over decoded rows; dictionaries need not be shared.
  bool operator==(const Relation& other) const;

 private:
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  static const std::vector<ValueId> kNoIds;

  /// Open-addressing index over one column subset; slots hold the key
  /// hash plus the head/tail of a postings chain. Key bytes are never
  /// stored — equality compares the probe key against the chain head's
  /// row in the columnar storage.
  struct ColumnIndex {
    std::vector<std::size_t> columns;
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

  std::size_t RowHash(std::size_t pos) const;
  bool RowEquals(std::size_t pos, std::span<const ValueId> row) const;
  /// True when `row` is present; *out_slot is its slot, or the empty slot
  /// where it would go.
  bool FindRowSlot(std::span<const ValueId> row, std::size_t* out_slot) const;
  void GrowRowSet();

  std::size_t KeyHashOfRow(const ColumnIndex& index, std::size_t pos) const;
  bool KeyEqualsRow(const ColumnIndex& index, std::size_t pos,
                    std::span<const ValueId> key) const;
  std::size_t FindKeySlot(const ColumnIndex& index,
                          std::span<const ValueId> key) const;
  /// Index over `columns`, built on first use. Const because probing is
  /// logically const, as with the pre-refactor lazy hash indexes.
  const ColumnIndex& EnsureIndex(std::span<const std::size_t> columns) const;
  void IndexInsert(ColumnIndex& index, std::size_t pos) const;
  void GrowIndex(ColumnIndex& index) const;

  /// Appends a row known to be absent, updating the set and indexes.
  void AppendRow(std::span<const ValueId> row, std::size_t slot);

  Schema schema_;
  ValueDictionaryPtr dict_;
  /// arity() columns once the first row is in; empty before.
  std::vector<std::vector<ValueId>> columns_;
  std::size_t num_rows_ = 0;
  /// Duplicate-detection set: open addressing over row positions.
  std::vector<uint32_t> set_slots_;
  mutable std::vector<ColumnIndex> indexes_;
};

/// Renders a row as "<a, b, c>".
std::string RowToString(const Row& row);

}  // namespace limcap::relational

#endif  // LIMCAP_RELATIONAL_RELATION_H_
