#include "probe.h"

#include <chrono>
#include <string>

namespace perfbench {

Probe::Snapshot Probe::Read() const {
  return {calls.load(std::memory_order_relaxed),
          useful_calls.load(std::memory_order_relaxed),
          rows.load(std::memory_order_relaxed),
          source_ns.load(std::memory_order_relaxed)};
}

limcap::Result<limcap::relational::Relation> ProbedSource::Execute(
    const limcap::capability::SourceQuery& query) {
  const bool timing = probe_->timing.load(std::memory_order_relaxed);
  std::chrono::steady_clock::time_point start;
  if (timing) start = std::chrono::steady_clock::now();
  limcap::Result<limcap::relational::Relation> result =
      wrapped_->Execute(query);
  if (timing) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    probe_->source_ns.fetch_add(static_cast<uint64_t>(ns),
                                std::memory_order_relaxed);
  }
  probe_->calls.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    probe_->rows.fetch_add(result->size(), std::memory_order_relaxed);
    if (!result->empty()) {
      probe_->useful_calls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return result;
}

limcap::capability::SourceCatalog Decorate(
    const limcap::capability::SourceCatalog& base, Probe* probe) {
  limcap::capability::SourceCatalog decorated;
  for (const std::string& name : base.ViewNames()) {
    decorated.RegisterUnsafe(
        std::make_unique<ProbedSource>(*base.Find(name), probe));
  }
  return decorated;
}

}  // namespace perfbench
