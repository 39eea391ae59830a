#include "relational/relation.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"

namespace limcap::relational {

namespace {

/// Initial power-of-two capacity for the row set and index slot arrays.
constexpr std::size_t kInitialSlots = 16;

/// Keeps open-addressing load factor under 0.7.
bool NeedsGrowth(std::size_t occupied, std::size_t capacity) {
  return 10 * (occupied + 1) > 7 * capacity;
}

}  // namespace

const std::vector<ValueId> Relation::kNoIds;

void Relation::GatherRowIds(std::size_t row, IdRow* out) const {
  out->resize(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    (*out)[c] = columns_[c][row];
  }
}

std::size_t Relation::RowHash(std::size_t pos) const {
  std::size_t seed = 0x51ed2701a1b2c3d4ULL;
  std::hash<ValueId> hasher;
  for (const std::vector<ValueId>& column : columns_) {
    HashCombine(seed, hasher(column[pos]));
  }
  return static_cast<std::size_t>(Mix64(seed));
}

bool Relation::RowEquals(std::size_t pos, std::span<const ValueId> row) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c][pos] != row[c]) return false;
  }
  return true;
}

bool Relation::FindRowSlot(std::span<const ValueId> row,
                           std::size_t* out_slot) const {
  if (set_slots_.empty()) {
    *out_slot = kNoSlot;
    return false;
  }
  const std::size_t mask = set_slots_.size() - 1;
  std::size_t slot = HashSpan(row.data(), row.size()) & mask;
  while (true) {
    const uint32_t occupant = set_slots_[slot];
    if (occupant == kEmptySlot) {
      *out_slot = slot;
      return false;
    }
    if (RowEquals(occupant, row)) {
      *out_slot = slot;
      return true;
    }
    slot = (slot + 1) & mask;
  }
}

void Relation::GrowRowSet() {
  const std::size_t capacity =
      set_slots_.empty() ? kInitialSlots : set_slots_.size() * 2;
  set_slots_.assign(capacity, kEmptySlot);
  const std::size_t mask = capacity - 1;
  for (std::size_t pos = 0; pos < num_rows_; ++pos) {
    std::size_t slot = RowHash(pos) & mask;
    while (set_slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    set_slots_[slot] = static_cast<uint32_t>(pos);
  }
}

void Relation::AppendRow(std::span<const ValueId> row, std::size_t slot) {
  if (set_slots_.empty() || NeedsGrowth(num_rows_, set_slots_.size())) {
    GrowRowSet();
    FindRowSlot(row, &slot);  // recompute the target slot
  }
  if (num_rows_ == 0) columns_.resize(schema_.arity());
  const std::size_t pos = num_rows_;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(row[c]);
  }
  ++num_rows_;
  set_slots_[slot] = static_cast<uint32_t>(pos);
  for (ColumnIndex& index : indexes_) IndexInsert(index, pos);
}

Result<bool> Relation::InsertIds(std::span<const ValueId> row) {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " + std::to_string(schema_.arity()));
  }
  std::size_t slot;
  if (FindRowSlot(row, &slot)) return false;
  AppendRow(row, slot);
  return true;
}

bool Relation::InsertIdsUnsafe(std::span<const ValueId> row) {
  auto result = InsertIds(row);
  if (!result.ok()) std::abort();
  return result.value();
}

bool Relation::ContainsIds(std::span<const ValueId> row) const {
  if (row.size() != schema_.arity()) return false;
  std::size_t slot;
  return FindRowSlot(row, &slot);
}

Result<bool> Relation::Insert(Row row) {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " + std::to_string(schema_.arity()));
  }
  IdRow encoded;
  encoded.reserve(row.size());
  for (const Value& value : row) encoded.push_back(dict_->Intern(value));
  return InsertIds(encoded);
}

bool Relation::InsertUnsafe(Row row) {
  auto result = Insert(std::move(row));
  if (!result.ok()) std::abort();
  return result.value();
}

bool Relation::Contains(const Row& row) const {
  if (row.size() != schema_.arity()) return false;
  IdRow encoded;
  encoded.reserve(row.size());
  for (const Value& value : row) {
    ValueId id;
    if (!dict_->Lookup(value, &id)) return false;
    encoded.push_back(id);
  }
  return ContainsIds(encoded);
}

std::size_t Relation::KeyHashOfRow(const ColumnIndex& index,
                                   std::size_t pos) const {
  std::size_t seed = 0x51ed2701a1b2c3d4ULL;
  std::hash<ValueId> hasher;
  for (std::size_t c : index.columns) {
    HashCombine(seed, hasher(columns_[c][pos]));
  }
  // Must match HashSpan over the extracted key (same combine + Mix64).
  return static_cast<std::size_t>(Mix64(seed));
}

bool Relation::KeyEqualsRow(const ColumnIndex& index, std::size_t pos,
                            std::span<const ValueId> key) const {
  for (std::size_t c = 0; c < index.columns.size(); ++c) {
    if (columns_[index.columns[c]][pos] != key[c]) return false;
  }
  return true;
}

std::size_t Relation::FindKeySlot(const ColumnIndex& index,
                                  std::span<const ValueId> key) const {
  if (index.slots.empty()) return kNoSlot;
  const std::size_t mask = index.slots.size() - 1;
  const std::size_t hash = HashSpan(key.data(), key.size());
  std::size_t slot = hash & mask;
  while (true) {
    const ColumnIndex::Slot& s = index.slots[slot];
    if (s.head == kEmptySlot) return kNoSlot;
    if (s.hash == hash &&
        KeyEqualsRow(index, index.postings[s.head].pos, key)) {
      return slot;
    }
    slot = (slot + 1) & mask;
  }
}

const Relation::ColumnIndex& Relation::EnsureIndex(
    std::span<const std::size_t> columns) const {
  for (const ColumnIndex& index : indexes_) {
    if (index.columns.size() == columns.size() &&
        std::equal(columns.begin(), columns.end(), index.columns.begin())) {
      return index;
    }
  }
  indexes_.emplace_back();
  ColumnIndex& index = indexes_.back();
  index.columns.assign(columns.begin(), columns.end());
  index.postings.reserve(num_rows_);
  for (std::size_t pos = 0; pos < num_rows_; ++pos) {
    IndexInsert(index, pos);
  }
  return index;
}

void Relation::IndexInsert(ColumnIndex& index, std::size_t pos) const {
  if (index.slots.empty() || NeedsGrowth(index.num_keys, index.slots.size())) {
    GrowIndex(index);
  }
  const std::size_t mask = index.slots.size() - 1;
  const std::size_t hash = KeyHashOfRow(index, pos);
  std::size_t slot = hash & mask;
  while (true) {
    ColumnIndex::Slot& s = index.slots[slot];
    if (s.head == kEmptySlot) {
      // New key: open a chain.
      const uint32_t posting = static_cast<uint32_t>(index.postings.size());
      index.postings.push_back({static_cast<uint32_t>(pos), kEmptySlot});
      s.hash = hash;
      s.head = posting;
      s.tail = posting;
      ++index.num_keys;
      return;
    }
    if (s.hash == hash) {
      const std::size_t head_pos = index.postings[s.head].pos;
      bool equal = true;
      for (std::size_t c : index.columns) {
        if (columns_[c][head_pos] != columns_[c][pos]) {
          equal = false;
          break;
        }
      }
      if (equal) {
        // Append at the tail so chains stay in ascending row order.
        const uint32_t posting = static_cast<uint32_t>(index.postings.size());
        index.postings.push_back({static_cast<uint32_t>(pos), kEmptySlot});
        index.postings[s.tail].next = posting;
        s.tail = posting;
        return;
      }
    }
    slot = (slot + 1) & mask;
  }
}

void Relation::GrowIndex(ColumnIndex& index) const {
  const std::size_t capacity =
      index.slots.empty() ? kInitialSlots : index.slots.size() * 2;
  std::vector<ColumnIndex::Slot> old = std::move(index.slots);
  index.slots.assign(capacity, ColumnIndex::Slot{});
  const std::size_t mask = capacity - 1;
  for (const ColumnIndex::Slot& s : old) {
    if (s.head == kEmptySlot) continue;
    std::size_t slot = s.hash & mask;
    while (index.slots[slot].head != kEmptySlot) slot = (slot + 1) & mask;
    index.slots[slot] = s;
  }
}

std::vector<std::size_t> Relation::ProbeIds(
    std::span<const std::size_t> columns,
    std::span<const ValueId> key) const {
  std::vector<std::size_t> positions;
  ProbeEachIds(columns, key, [&](std::size_t pos) {
    positions.push_back(pos);
    return true;
  });
  return positions;
}

std::vector<std::size_t> Relation::Probe(
    const std::vector<std::size_t>& columns, const Row& key) const {
  IdRow encoded;
  encoded.reserve(key.size());
  for (const Value& value : key) {
    ValueId id;
    if (!dict_->Lookup(value, &id)) return {};
    encoded.push_back(id);
  }
  return ProbeIds(columns, encoded);
}

std::vector<ValueId> Relation::ColumnDistinctIds(std::size_t index) const {
  std::vector<ValueId> ids;
  std::vector<uint32_t> seen;  // dense over ids: 1 == seen
  for (ValueId id : ColumnIdsAt(index)) {
    if (id >= seen.size()) seen.resize(id + 1, 0);
    if (seen[id] == 0) {
      seen[id] = 1;
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<Value> Relation::ColumnValues(std::size_t index) const {
  std::vector<Value> values;
  for (ValueId id : ColumnDistinctIds(index)) {
    values.push_back(dict_->Get(id));
  }
  return values;
}

Row Relation::DecodeRow(std::size_t row) const {
  Row decoded;
  decoded.reserve(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    decoded.push_back(dict_->Get(columns_[c][row]));
  }
  return decoded;
}

std::vector<Row> Relation::DecodedRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (std::size_t pos = 0; pos < num_rows_; ++pos) {
    rows.push_back(DecodeRow(pos));
  }
  return rows;
}

std::vector<Row> Relation::SortedRows() const {
  std::vector<Row> sorted = DecodedRows();
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string Relation::ToString() const {
  return "{" +
         JoinMapped(SortedRows(), ", ",
                    [](const Row& row) { return RowToString(row); }) +
         "}";
}

Relation Relation::WithDictionary(ValueDictionaryPtr dict) const {
  if (dict == dict_) return *this;
  Relation out(schema_, std::move(dict));
  IdRow encoded(columns_.size());
  for (std::size_t pos = 0; pos < num_rows_; ++pos) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      encoded[c] = out.dict_->Intern(dict_->Get(columns_[c][pos]));
    }
    out.InsertIdsUnsafe(encoded);
  }
  return out;
}

bool Relation::operator==(const Relation& other) const {
  if (!(schema_ == other.schema_)) return false;
  if (num_rows_ != other.num_rows_) return false;
  if (SharesDictionaryWith(other)) {
    IdRow row(columns_.size());
    for (std::size_t pos = 0; pos < num_rows_; ++pos) {
      GatherRowIds(pos, &row);
      if (!other.ContainsIds(row)) return false;
    }
    return true;
  }
  for (std::size_t pos = 0; pos < num_rows_; ++pos) {
    if (!other.Contains(DecodeRow(pos))) return false;
  }
  return true;
}

std::string RowToString(const Row& row) {
  return "<" +
         JoinMapped(row, ", ", [](const Value& v) { return v.ToString(); }) +
         ">";
}

}  // namespace limcap::relational
