#include "capability/source_catalog.h"

#include <cstdlib>

namespace limcap::capability {

Status SourceCatalog::Register(std::unique_ptr<Source> source) {
  const std::string& name = source->view().name();
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("source view already registered: " + name);
  }
  fingerprint_ ^= CatalogSlotFingerprint(source->view(), sources_.size());
  by_name_.emplace(name, sources_.size());
  views_.push_back(source->view());
  sources_.push_back(std::move(source));
  return Status::OK();
}

Status SourceCatalog::Deregister(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no source view named " + name);
  }
  const auto slot = static_cast<std::ptrdiff_t>(it->second);
  sources_.erase(sources_.begin() + slot);
  views_.erase(views_.begin() + slot);
  // Every later view moved down one slot: rebuild the index and recompute
  // the fingerprint from scratch (membership changes are rare next to
  // lookups; O(n) here keeps Register at one XOR).
  by_name_.clear();
  fingerprint_ = kEmptyCatalogFingerprint;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    by_name_.emplace(sources_[i]->view().name(), i);
    fingerprint_ ^= CatalogSlotFingerprint(sources_[i]->view(), i);
  }
  return Status::OK();
}

void SourceCatalog::RegisterUnsafe(std::unique_ptr<Source> source) {
  if (!Register(std::move(source)).ok()) std::abort();
}

std::vector<std::string> SourceCatalog::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const auto& source : sources_) names.push_back(source->view().name());
  return names;
}

std::optional<std::size_t> SourceCatalog::IndexOf(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

Result<Source*> SourceCatalog::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no source view named " + name);
  }
  return sources_[it->second].get();
}

Result<const SourceView*> SourceCatalog::FindView(
    const std::string& name) const {
  LIMCAP_ASSIGN_OR_RETURN(Source * source, Find(name));
  return &source->view();
}

AttributeSet SourceCatalog::AllAttributes() const {
  AttributeSet all;
  for (const auto& source : sources_) {
    AttributeSet attrs = source->view().Attributes();
    all.insert(attrs.begin(), attrs.end());
  }
  return all;
}

bool SourceCatalog::HasAttribute(const std::string& attribute) const {
  for (const auto& source : sources_) {
    if (source->view().schema().Contains(attribute)) return true;
  }
  return false;
}

std::string SourceCatalog::ToString() const {
  std::string out;
  for (const auto& source : sources_) {
    out += source->view().ToString();
    out += '\n';
  }
  return out;
}

}  // namespace limcap::capability
