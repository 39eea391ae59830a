#include "common/value_dictionary.h"

namespace limcap {

uint64_t ValueDictionary::NextIdentity() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ValueId ValueDictionary::Intern(const Value& value) {
  encodes_.fetch_add(1, std::memory_order_relaxed);
  auto it = ids_.find(value);
  if (it != ids_.end()) return it->second;
  ValueId id = static_cast<ValueId>(values_.size());
  values_.push_back(value);
  ids_.emplace(value, id);
  return id;
}

void ValueDictionary::Absorb(const ValueDictionary& other,
                             std::vector<ValueId>* remap) {
  if (remap != nullptr) {
    remap->clear();
    remap->reserve(other.size());
  }
  for (std::size_t id = 0; id < other.size(); ++id) {
    ValueId here = Intern(other.Get(static_cast<ValueId>(id)));
    if (remap != nullptr) remap->push_back(here);
  }
}

bool ValueDictionary::Lookup(const Value& value, ValueId* id) const {
  encodes_.fetch_add(1, std::memory_order_relaxed);
  auto it = ids_.find(value);
  if (it == ids_.end()) return false;
  *id = it->second;
  return true;
}

}  // namespace limcap
