#ifndef LIMCAP_TESTS_QUERY_REDRAW_H_
#define LIMCAP_TESTS_QUERY_REDRAW_H_

// Deterministic query re-draws for property tests over generated
// instances. A property that needs a query (or a particular kind of
// query) walks a fixed sequence of query seeds instead of skipping when
// the first draw does not fit, and fails when the sequence runs out.

#include <cstdint>
#include <functional>
#include <optional>

#include "planner/query.h"
#include "workload/generator.h"

namespace limcap::testutil {

/// Draw k uses query seed spec.seed + kRedrawStride·k; draw 0 is the
/// spec's own seed.
inline constexpr uint64_t kRedrawStride = 1000003;
inline constexpr uint64_t kMaxDraws = 64;

/// The first non-empty `pick` over the draws of `spec` on `instance`.
/// nullopt when kMaxDraws draws run out; callers fail on it.
inline std::optional<planner::Query> Redraw(
    const workload::GeneratedInstance& instance,
    const workload::QuerySpec& spec,
    const std::function<std::optional<planner::Query>(const planner::Query&)>&
        pick) {
  for (uint64_t k = 0; k < kMaxDraws; ++k) {
    workload::QuerySpec draw = spec;
    draw.seed += kRedrawStride * k;
    auto query = workload::GenerateQuery(instance, draw);
    if (!query.ok()) continue;
    if (std::optional<planner::Query> picked = pick(*query)) return picked;
  }
  return std::nullopt;
}

/// The first valid query among the draws of `spec`.
inline std::optional<planner::Query> RedrawAny(
    const workload::GeneratedInstance& instance,
    const workload::QuerySpec& spec) {
  return Redraw(instance, spec,
                [](const planner::Query& query) {
                  return std::optional<planner::Query>(query);
                });
}

}  // namespace limcap::testutil

#endif  // LIMCAP_TESTS_QUERY_REDRAW_H_
