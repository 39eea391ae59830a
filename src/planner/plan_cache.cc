#include "planner/plan_cache.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "capability/catalog_fingerprint.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace limcap::planner {

namespace {

using capability::FingerprintToString;
using capability::StableHash64;

/// Assigns canonical ids $0, $1, ... to global attributes in order of
/// first appearance along the canonical traversal.
class AttributeCanonicalizer {
 public:
  const std::string& IdOf(const std::string& attribute) {
    auto it = ids_.find(attribute);
    if (it == ids_.end()) {
      it = ids_.emplace(attribute, StrCat({"$", std::to_string(ids_.size())}))
               .first;
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> ids_;
};

/// "s:t1" — the kind tag keeps Int64(1) and String("1") apart.
std::string CanonicalValue(const Value& value) {
  char tag = '?';
  switch (value.kind()) {
    case Value::Kind::kNull:
      tag = 'n';
      break;
    case Value::Kind::kInt64:
      tag = 'i';
      break;
    case Value::Kind::kDouble:
      tag = 'd';
      break;
    case Value::Kind::kString:
      tag = 's';
      break;
  }
  std::string out(1, tag);
  out += ':';
  out += value.ToString();
  return out;
}

/// "v3/bff($0,$1,$2)" — the view atom with its adornment surface and
/// canonicalized attribute positions. Folding the templates in makes
/// adornment changes visible in the signature itself (on top of the
/// catalog fingerprint), so distinct adornments are distinct keys even
/// across catalogs that happen to share a fingerprint prefix.
std::string CanonicalViewAtom(const capability::SourceView& view,
                              AttributeCanonicalizer& canon) {
  std::string atom = view.name();
  atom += '/';
  for (std::size_t t = 0; t < view.templates().size(); ++t) {
    if (t > 0) atom += '|';
    atom += view.templates()[t].ToString();
  }
  atom += '(';
  const auto& attributes = view.schema().attributes();
  for (std::size_t i = 0; i < attributes.size(); ++i) {
    if (i > 0) atom += ',';
    atom += canon.IdOf(attributes[i]);
  }
  atom += ')';
  return atom;
}

}  // namespace

Result<QuerySignature> MakeQuerySignature(
    const Query& query, const capability::SourceCatalog& catalog,
    const DomainMap& domains, const BuilderOptions& builder,
    std::string_view config_tag) {
  // Canonical connection order: each connection is identified by its
  // sorted view-name list; connections sort by that list. Ties are
  // identical view sets, which render identically.
  std::vector<std::vector<std::string>> sorted_connections;
  sorted_connections.reserve(query.connections().size());
  for (const Connection& connection : query.connections()) {
    std::vector<std::string> names = connection.view_names();
    std::sort(names.begin(), names.end());
    sorted_connections.push_back(std::move(names));
  }
  std::sort(sorted_connections.begin(), sorted_connections.end());

  // Canonical attribute ids are assigned along the sorted traversal, in
  // each view's schema order — a deterministic walk, so consistently
  // renamed attributes land on the same ids.
  AttributeCanonicalizer canon;
  std::string text = "C:";
  for (std::size_t c = 0; c < sorted_connections.size(); ++c) {
    if (c > 0) text += ',';
    text += '{';
    for (std::size_t v = 0; v < sorted_connections[c].size(); ++v) {
      if (v > 0) text += ',';
      LIMCAP_ASSIGN_OR_RETURN(const capability::SourceView* view,
                              catalog.FindView(sorted_connections[c][v]));
      text += CanonicalViewAtom(*view, canon);
    }
    text += '}';
  }

  // Inputs keep list order: the builder emits fact rules and value
  // combinations in that order, so it is part of the compiled artifact.
  // (An input attribute outside every connection — a domain-mapped
  // user-side attribute — gets its id here, on first appearance.)
  text += "|I:";
  for (std::size_t i = 0; i < query.inputs().size(); ++i) {
    if (i > 0) text += ',';
    text += canon.IdOf(query.inputs()[i].attribute);
    text += '=';
    text += CanonicalValue(query.inputs()[i].value);
  }

  // Outputs keep list order: it is the answer schema.
  text += "|O:";
  for (std::size_t i = 0; i < query.outputs().size(); ++i) {
    if (i > 0) text += ',';
    text += canon.IdOf(query.outputs()[i]);
  }

  // The domain grouping and builder knobs change the emitted program, so
  // they are part of the query half of the key.
  text += "|D:";
  text += FingerprintToString(DomainMapFingerprint(domains));
  text += "|B:goal=";
  text += builder.goal_predicate;
  text += ",alpha=";
  text += builder.alpha_suffix;
  text += ",pcg=";
  text += builder.per_connection_goals ? '1' : '0';
  text += ",maxbody=";
  text += std::to_string(builder.max_rule_body_atoms);
  text += "|G:";
  text += config_tag;

  QuerySignature signature;
  signature.hash = StableHash64(text);
  signature.canonical = std::move(text);
  return signature;
}

uint64_t DomainMapFingerprint(const DomainMap& domains) {
  // std::map iterates in sorted order, so this is canonical. The raw
  // attribute names are used on purpose: an override rewires a concrete
  // catalog attribute, it is configuration rather than query text.
  uint64_t h = 0xd6e8feb86659fd93ULL;
  for (const auto& [attribute, domain] : domains.overrides()) {
    h = Mix64(h ^ StableHash64(attribute));
    h = Mix64(h ^ StableHash64(domain));
  }
  return h;
}

std::string PlanCache::MapKey(uint64_t catalog_fingerprint,
                              const QuerySignature& signature) {
  std::string key = FingerprintToString(catalog_fingerprint);
  key += '#';
  key += FingerprintToString(signature.hash);
  key += '#';
  key += signature.canonical;
  return key;
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    uint64_t catalog_fingerprint, const QuerySignature& signature) {
  if (capacity_ == 0) {
    // A disabled cache still counts the miss: the caller consulted it
    // and got nothing, and hit+miss must keep equaling the lookups
    // (a reject-gated query against a capacity-0 cache used to vanish
    // from the stats entirely).
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return nullptr;
  }
  std::string key = MapKey(catalog_fingerprint, signature);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->second;
}

void PlanCache::Insert(std::shared_ptr<const CachedPlan> entry) {
  if (capacity_ == 0 || entry == nullptr) return;
  std::string key = MapKey(entry->catalog_fingerprint, entry->signature);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.inserts;
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  by_key_.emplace(std::move(key), lru_.begin());
  ++stats_.inserts;
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::size_t PlanCache::Invalidate(uint64_t catalog_fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return InvalidateLocked(catalog_fingerprint);
}

std::size_t PlanCache::NoteCatalogGeneration(uint64_t catalog_fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (has_generation_ && generation_ == catalog_fingerprint) return 0;
  std::size_t dropped = 0;
  if (has_generation_) dropped = InvalidateLocked(generation_);
  generation_ = catalog_fingerprint;
  has_generation_ = true;
  return dropped;
}

std::size_t PlanCache::InvalidateLocked(uint64_t catalog_fingerprint) {
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->second->catalog_fingerprint == catalog_fingerprint) {
      by_key_.erase(it->first);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  by_key_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot = stats_;
  snapshot.size = lru_.size();
  snapshot.capacity = capacity_;
  return snapshot;
}

}  // namespace limcap::planner
