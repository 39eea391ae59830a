#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "capability/source_catalog.h"
#include "common/result.h"
#include "exec/query_answerer.h"
#include "mediator/mediator.h"
#include "planner/domain_map.h"
#include "planner/query.h"
#include "probe.h"

namespace perfbench {

/// The four workloads. Each is a seeded set of inputs the benchmark
/// drives from one closed-loop client through mediator::Mediator::Answer
/// or, for serve_mixed, through a mediator::ServeSession.
enum class WorkloadKind { kPaperWarm, kChainCold, kWideFetch, kServeMixed };

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kPaperWarm, WorkloadKind::kChainCold,
    WorkloadKind::kWideFetch, WorkloadKind::kServeMixed};

const char* WorkloadName(WorkloadKind kind);
limcap::Result<WorkloadKind> ParseWorkload(std::string_view name);

/// serve_mixed: the requests one closed-loop caller cycles through, on a
/// session with one worker (one caller keeps one request in flight, so
/// more workers would only idle). More than one caller made run-to-run
/// spreads exceed 25% on a 4-vCPU host whose cores other tenants share.
inline constexpr std::size_t kServeWorkers = 1;
inline constexpr std::size_t kServeRequests = 600;

/// One catalog of in-memory sources: the capability-limited remote world
/// a mediator answers against.
struct World {
  std::unique_ptr<limcap::capability::SourceCatalog> sources;
  limcap::planner::DomainMap domains;
};

/// One query the seed drew over `world`.
struct DrawnQuery {
  std::size_t world = 0;
  /// "paper", "chain" or "random".
  std::string query_class;
  /// The mediator view name; a paper query's label selects its table check.
  std::string label;
  limcap::planner::Query query;
};

/// What a seed draws: the worlds, the queries, and the order requests go
/// out in (cycled). Drawing may answer candidate queries to keep only
/// answerable ones, so it is not part of set-up.
struct Inputs {
  WorkloadKind kind = WorkloadKind::kPaperWarm;
  uint64_t seed = 0;
  std::vector<World> worlds;
  std::vector<DrawnQuery> queries;
  std::vector<std::size_t> order;
};

/// Draws the workload's inputs from `seed`. Fails (never skips silently)
/// when it cannot draw a full, answerable query set.
limcap::Result<Inputs> DrawInputs(WorkloadKind kind, uint64_t seed);

/// One world behind its mediator. `catalog` holds the probed decorators
/// over `world`'s sources that the mediator answers against.
struct Universe {
  const World* world = nullptr;
  std::unique_ptr<limcap::capability::SourceCatalog> catalog;
  std::unique_ptr<limcap::mediator::Mediator> mediator;
};

/// One query of a workload, in both the mediator's form (a query against
/// a mediator view, for Mediator::Answer) and the expanded connection
/// query (for ServeSession and the solo reference answer).
struct PoolQuery {
  std::size_t universe = 0;
  /// "paper", "chain" or "random".
  std::string query_class;
  limcap::mediator::MediatorQuery request;
  limcap::planner::Query expanded;
};

/// The same query answered alone, on a fresh idle mediator: what every
/// timed answer of it must reproduce.
struct Reference {
  std::string fingerprint;
  std::size_t source_queries = 0;
  /// The plan-cache signature text (for the determinism test).
  std::string signature;
};

struct Workload {
  WorkloadKind kind = WorkloadKind::kPaperWarm;
  /// Capability-layer counters shared by every decorated source.
  std::unique_ptr<Probe> probe;
  std::vector<Universe> universes;
  std::vector<PoolQuery> pool;
  /// Options every answer runs with.
  limcap::exec::ExecOptions options;
  /// The request order over `pool`, cycled.
  std::vector<std::size_t> order;
  /// Filled by ComputeReferences, parallel to `pool`.
  std::vector<Reference> reference;
};

/// Builds the system over `inputs`, which must outlive it: probed
/// decorators over every world's sources, a mediator per world with one
/// view per query (serve_mixed sends expanded queries instead), and —
/// where the workload runs warm — a primed plan cache. This is what
/// setup_s times.
limcap::Result<Workload> BuildWorkload(const Inputs& inputs);

/// Answers every distinct pool query alone (fresh mediator, cold cache)
/// on `threads` threads and records its fingerprint, source-query count
/// and signature. Resets the probe counters afterwards.
limcap::Status ComputeReferences(Workload* workload, std::size_t threads);

/// Answers `query` the way a fresh, idle mediator over `universe`'s
/// catalog would.
limcap::Result<limcap::exec::AnswerReport> AnswerSolo(
    const Universe& universe, const limcap::planner::Query& query,
    const limcap::exec::ExecOptions& options);

/// The plan-cache configuration tag of `mode`, as the answer path folds
/// it into query signatures.
std::string_view StaticAnalysisModeTag(limcap::exec::StaticAnalysisMode mode);

/// Checks the paper examples' answers against the paper's tables
/// (Example 2.1: {$15, $13, $10}; 4.1: {d1, d2}; 5.1: {<f, g>};
/// 5.2: {<a1, c1, e1>}). `label` is the pool query's view name.
bool MatchesPaperTable(const std::string& label,
                       const limcap::relational::Relation& answer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
