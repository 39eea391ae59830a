#ifndef LIMCAP_CAPABILITY_SOURCE_CATALOG_H_
#define LIMCAP_CAPABILITY_SOURCE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "capability/catalog_fingerprint.h"
#include "capability/source.h"
#include "common/result.h"

namespace limcap::capability {

/// The integration system's registry of sources: `V`, the source views
/// with their adornments, each backed by a live Source. Views are kept in
/// registration order (the paper indexes them v1..vn).
class SourceCatalog {
 public:
  SourceCatalog() = default;

  SourceCatalog(const SourceCatalog&) = delete;
  SourceCatalog& operator=(const SourceCatalog&) = delete;
  SourceCatalog(SourceCatalog&&) = default;
  SourceCatalog& operator=(SourceCatalog&&) = default;

  /// Registers a source; fails when a view with the same name exists.
  Status Register(std::unique_ptr<Source> source);

  /// Aborting convenience used by static catalogs and tests.
  void RegisterUnsafe(std::unique_ptr<Source> source);

  /// Removes a source — a source leaving a dynamic catalog. Later views
  /// shift down one registration slot, so the fingerprint below changes
  /// even when the removed view contributed nothing to a plan (rule order
  /// of generated programs depends on view order). Fails when no view of
  /// that name is registered.
  Status Deregister(const std::string& name);

  /// Fingerprint of the catalog's capability surface (view names,
  /// schemas, adornments — not extents), maintained incrementally:
  /// Register is O(1), Deregister recomputes (rare, O(n)). Equal
  /// fingerprints mean plans compiled against one catalog are valid
  /// against the other; any join/leave/capability change moves it. This
  /// is the catalog half of the plan-cache key.
  uint64_t fingerprint() const { return fingerprint_; }

  std::size_t size() const { return sources_.size(); }

  /// Views in registration order, kept up to date by Register and
  /// Deregister.
  const std::vector<SourceView>& Views() const { return views_; }
  /// View names in registration order.
  std::vector<std::string> ViewNames() const;

  bool Contains(const std::string& name) const {
    return by_name_.count(name) > 0;
  }

  /// Registration index of the view named `name`, or nullopt.
  std::optional<std::size_t> IndexOf(const std::string& name) const;

  Result<Source*> Find(const std::string& name) const;
  Result<const SourceView*> FindView(const std::string& name) const;

  /// A(V): the union of every view's attributes.
  AttributeSet AllAttributes() const;
  /// attribute ∈ A(V), without building A(V).
  bool HasAttribute(const std::string& attribute) const;

  /// One line per view: "v1(Song, Cd) [bf]".
  std::string ToString() const;

 private:
  std::vector<std::unique_ptr<Source>> sources_;
  /// Each source's view, parallel to `sources_`.
  std::vector<SourceView> views_;
  std::unordered_map<std::string, std::size_t> by_name_;
  uint64_t fingerprint_ = kEmptyCatalogFingerprint;
};

}  // namespace limcap::capability

#endif  // LIMCAP_CAPABILITY_SOURCE_CATALOG_H_
