#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "capability/source.h"
#include "capability/source_catalog.h"

namespace perfbench {

/// Work counters of the capability layer, shared by every probed source
/// of one workload. Safe for concurrent updates (serve workers call
/// sources in parallel).
struct Probe {
  std::atomic<uint64_t> calls{0};
  /// Calls that returned at least one row.
  std::atomic<uint64_t> useful_calls{0};
  std::atomic<uint64_t> rows{0};
  /// Wall-clock nanoseconds spent inside the wrapped sources; only
  /// accumulated while `timing` is set (the traced run), so the untraced
  /// run pays no clock reads per call.
  std::atomic<uint64_t> source_ns{0};
  std::atomic<bool> timing{false};

  struct Snapshot {
    uint64_t calls = 0;
    uint64_t useful_calls = 0;
    uint64_t rows = 0;
    uint64_t source_ns = 0;
    Snapshot operator-(const Snapshot& earlier) const {
      return {calls - earlier.calls, useful_calls - earlier.useful_calls,
              rows - earlier.rows, source_ns - earlier.source_ns};
    }
  };
  Snapshot Read() const;
};

/// A counting and timing decorator around one catalog source. It
/// forwards every call unchanged, so answers are bit-identical to the
/// undecorated catalog's.
class ProbedSource : public limcap::capability::Source {
 public:
  /// `wrapped` and `probe` must outlive the decorator.
  ProbedSource(limcap::capability::Source* wrapped, Probe* probe)
      : wrapped_(wrapped), probe_(probe) {}

  const limcap::capability::SourceView& view() const override {
    return wrapped_->view();
  }
  limcap::Result<limcap::relational::Relation> Execute(
      const limcap::capability::SourceQuery& query) override;

 private:
  limcap::capability::Source* wrapped_;
  Probe* probe_;
};

/// A catalog of ProbedSource decorators over `base`'s sources, registered
/// in the same order, so the capability fingerprint (and with it plan
/// caching) is the same as `base`'s.
limcap::capability::SourceCatalog Decorate(
    const limcap::capability::SourceCatalog& base, Probe* probe);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
