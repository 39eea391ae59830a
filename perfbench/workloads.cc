#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "capability/in_memory_source.h"
#include "common/rng.h"
#include "exec/fingerprint.h"
#include "exec/query_context.h"
#include "paperdata/paper_examples.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using limcap::Result;
using limcap::Status;
using limcap::Value;
using limcap::capability::InMemorySource;
using limcap::capability::SourceCatalog;
using limcap::capability::SourceView;
using limcap::mediator::Mediator;
using limcap::planner::Query;

/// A per-purpose sub-seed, so the workload's parts draw independent
/// streams from the one command-line seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return limcap::Rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).Next();
}

/// The catalogs and query sets are fixed and the workload seed draws the
/// order the queries go out in: how many source queries a random-topology
/// answer needs swings by orders of magnitude between generated catalogs,
/// and the cost of a seed-drawn query set moved the median and the tail
/// by 10-15% from seed to seed, which would drown every measurement in
/// the draw.
///
/// wide_fetch: the mixed workload's random sub-catalog as generated for
/// mixed seed 16 (about 24k source queries per answer).
/// serve_mixed: the request pool of mixed seed 75 (about 2.8k source
/// queries per random answer, some 40 light answers' worth).
constexpr uint64_t kDefaultSubCatalogSeed = 42;  // CatalogSpec::seed
constexpr uint64_t kWideMixedSeed = 16;
constexpr uint64_t kWideQuerySeed = 6;
constexpr uint64_t kServeMixedSeed = 75;
/// The random sub-catalog seed GenerateMixedWorkload derives from a mixed
/// seed.
constexpr uint64_t RandomCatalogSeed(uint64_t mixed_seed) {
  return kDefaultSubCatalogSeed ^ ~mixed_seed;
}

constexpr uint64_t kChainWalkCatalogSeed = 20260807;
constexpr uint64_t kChainWalkSeed = 3;

/// Wraps `world`'s sources in probed decorators and a mediator.
Universe MakeUniverse(const World& world, Probe* probe) {
  Universe universe;
  universe.world = &world;
  universe.catalog =
      std::make_unique<SourceCatalog>(Decorate(*world.sources, probe));
  universe.mediator =
      std::make_unique<Mediator>(universe.catalog.get(), world.domains);
  return universe;
}

/// Adds the pool entry for `drawn`. With `define`, also registers the
/// query as mediator view `drawn.label` (its inputs and outputs
/// exported, its connections as the definitions).
Status AddPoolQuery(Workload* workload, const DrawnQuery& drawn, bool define) {
  const Query& query = drawn.query;
  if (define) {
    limcap::mediator::MediatorView view;
    view.name = drawn.label;
    for (const auto& input : query.inputs()) {
      if (std::find(view.exported_attributes.begin(),
                    view.exported_attributes.end(),
                    input.attribute) == view.exported_attributes.end()) {
        view.exported_attributes.push_back(input.attribute);
      }
    }
    for (const std::string& output : query.outputs()) {
      view.exported_attributes.push_back(output);
    }
    view.definitions = query.connections();
    LIMCAP_RETURN_NOT_OK(
        workload->universes[drawn.world].mediator->Define(std::move(view)));
  }
  PoolQuery entry;
  entry.universe = drawn.world;
  entry.query_class = drawn.query_class;
  entry.request.view = drawn.label;
  entry.request.selections = query.inputs();
  entry.request.outputs = query.outputs();
  entry.expanded = query;
  workload->pool.push_back(std::move(entry));
  return Status::OK();
}

/// `blocks` seeded shuffles of 0..n-1, concatenated: every pool query
/// recurs once per block, in a seed-dependent order.
std::vector<std::size_t> ShuffledOrder(std::size_t n, std::size_t blocks,
                                       uint64_t seed) {
  limcap::Rng rng(seed);
  std::vector<std::size_t> order;
  order.reserve(n * blocks);
  std::vector<std::size_t> block(n);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < n; ++i) block[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(block[i - 1], block[rng.Below(i)]);
    }
    order.insert(order.end(), block.begin(), block.end());
  }
  return order;
}

/// Answers every pool query once through Mediator::Answer, filling the
/// plan cache the way a warmed-up session has it.
Status WarmPlanCache(const Workload& workload) {
  for (const PoolQuery& query : workload.pool) {
    const Mediator& mediator = *workload.universes[query.universe].mediator;
    LIMCAP_RETURN_NOT_OK(
        mediator.Answer(query.request, workload.options).status());
  }
  return Status::OK();
}

/// serve_mixed's session cache starts warm for the constant paper query,
/// as on a server that has been up a while; fresh chain and random
/// queries miss and insert.
Status WarmPaperQuery(const Workload& workload) {
  for (const PoolQuery& entry : workload.pool) {
    if (entry.query_class != "paper") continue;
    const Universe& universe = workload.universes[entry.universe];
    limcap::exec::ExecOptions options = workload.options;
    options.plan_cache = &universe.mediator->plan_cache();
    limcap::exec::QueryContext context(options, entry.expanded);
    return universe.mediator->AnswerInContext(entry.expanded, context)
        .status();
  }
  return Status::OK();
}

void AddWorld(Inputs* inputs, SourceCatalog sources,
              limcap::planner::DomainMap domains) {
  World world;
  world.sources = std::make_unique<SourceCatalog>(std::move(sources));
  world.domains = std::move(domains);
  inputs->worlds.push_back(std::move(world));
}

void AddQuery(Inputs* inputs, std::string query_class, std::string label,
              Query query) {
  DrawnQuery drawn;
  drawn.world = inputs->worlds.size() - 1;
  drawn.query_class = std::move(query_class);
  drawn.label = std::move(label);
  drawn.query = std::move(query);
  inputs->queries.push_back(std::move(drawn));
}

Status DrawPaperWarm(Inputs* inputs) {
  struct Case {
    const char* name;
    limcap::paperdata::PaperExample (*make)();
  };
  const Case cases[] = {{"example21", limcap::paperdata::MakeExample21},
                        {"example41", limcap::paperdata::MakeExample41},
                        {"example51", limcap::paperdata::MakeExample51},
                        {"example52", limcap::paperdata::MakeExample52}};
  for (const Case& c : cases) {
    limcap::paperdata::PaperExample example = c.make();
    AddWorld(inputs, std::move(example.catalog), example.domains);
    AddQuery(inputs, "paper", c.name, example.query);
  }
  inputs->order =
      ShuffledOrder(inputs->queries.size(), 1024, SubSeed(inputs->seed, 1));
  return Status::OK();
}

/// A copy of `instance`'s sources plus three decoys per walk in `walks`:
/// each decoy is "bf" on a free-position attribute of one of the walk's
/// views, with a fresh second attribute feeding nothing, so it is
/// reachable but statically irrelevant (the kPrune gate drops it).
SourceCatalog DecoyedCatalog(const limcap::workload::GeneratedInstance& instance,
                             const std::vector<Query>& walks) {
  constexpr std::size_t kDecoysPerWalk = 3;
  SourceCatalog catalog;
  for (const SourceView& view : instance.views) {
    catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
        InMemorySource::MakeUnsafe(view, instance.full_data.at(view.name()))));
  }
  std::map<std::string, const SourceView*> by_name;
  for (const SourceView& view : instance.views) by_name[view.name()] = &view;
  std::size_t made = 0;
  for (const Query& walk : walks) {
    std::size_t for_walk = 0;
    for (const std::string& name : walk.connections()[0].view_names()) {
      if (for_walk == kDecoysPerWalk) break;
      const SourceView& view = *by_name.at(name);
      const auto free = view.templates()[0].FreePositions();
      if (free.empty()) continue;
      ++made;
      ++for_walk;
      auto decoy = SourceView::MakeUnsafe(
          "decoy" + std::to_string(made),
          {view.schema().attribute(free[0]), "DecoyF" + std::to_string(made)},
          "bf");
      limcap::relational::Relation data(decoy.schema());
      catalog.RegisterUnsafe(std::make_unique<InMemorySource>(
          InMemorySource::MakeUnsafe(std::move(decoy), std::move(data))));
    }
  }
  return catalog;
}

/// Draws `count` distinct generated queries of `shape` over `instance`
/// that answer OK with a non-empty answer after at least
/// `min_source_queries` source queries, probing query seeds from `seed`
/// in a fixed order. Fails (never skips silently) when the bounded probe
/// budget runs out first.
Result<std::vector<Query>> AnswerableQueries(
    const limcap::workload::GeneratedInstance& instance,
    limcap::workload::QuerySpec shape, std::size_t count, uint64_t seed,
    std::size_t min_source_queries = 0) {
  limcap::Rng rng(seed);
  std::vector<Query> queries;
  std::set<std::string> seen;
  const limcap::exec::QueryAnswerer answerer(&instance.catalog,
                                             instance.domains);
  for (std::size_t attempt = 0; attempt < 64 * count; ++attempt) {
    if (queries.size() == count) return queries;
    shape.seed = rng.Next();
    Result<Query> candidate = limcap::workload::GenerateQuery(instance, shape);
    if (!candidate.ok() || !seen.insert(candidate->ToString()).second) {
      continue;
    }
    auto probe = answerer.Answer(*candidate);
    if (probe.ok() && !probe->exec.answer.empty() &&
        probe->exec.log.total_queries() >= min_source_queries) {
      queries.push_back(*std::move(candidate));
    }
  }
  if (queries.size() == count) return queries;
  return Status::NotFound("only " + std::to_string(queries.size()) + " of " +
                          std::to_string(count) +
                          " answerable queries found");
}

Status DrawChainCold(Inputs* inputs) {
  constexpr std::size_t kWalks = 16;
  // The 400-view chain of the repository's runtime and plan-cache
  // benches, and a fixed set of walks over it: a walk's source queries
  // range over 4x with its data, so a seed-drawn set would move every
  // figure with the draw. The workload seed orders the stream.
  limcap::workload::CatalogSpec spec;
  spec.topology = limcap::workload::CatalogSpec::Topology::kChain;
  spec.num_views = 400;
  spec.tuples_per_view = 20;
  spec.domain_size = 12;
  spec.seed = kChainWalkCatalogSeed;
  limcap::workload::GeneratedInstance instance =
      limcap::workload::GenerateInstance(spec);
  // In a bf-chain only a walk entered at its first attribute is fully
  // queryable, hence the probing.
  limcap::workload::QuerySpec shape;
  shape.num_connections = 1;
  shape.views_per_connection = 8;
  LIMCAP_ASSIGN_OR_RETURN(
      std::vector<Query> walks,
      AnswerableQueries(instance, shape, kWalks, kChainWalkSeed));
  AddWorld(inputs, DecoyedCatalog(instance, walks), instance.domains);
  for (std::size_t i = 0; i < walks.size(); ++i) {
    AddQuery(inputs, "chain", "walk" + std::to_string(i), walks[i]);
  }
  inputs->order =
      ShuffledOrder(inputs->queries.size(), 128, SubSeed(inputs->seed, 4));
  return Status::OK();
}

Status DrawWideFetch(Inputs* inputs) {
  constexpr std::size_t kQueries = 8;
  // The mixed serving workload's random sub-catalog shape (the
  // CatalogSpec defaults: 10 views, 8 attributes, 50 tuples per view,
  // domain 30).
  limcap::workload::CatalogSpec spec;
  spec.topology = limcap::workload::CatalogSpec::Topology::kRandom;
  spec.seed = RandomCatalogSeed(kWideMixedSeed);
  limcap::workload::GeneratedInstance instance =
      limcap::workload::GenerateInstance(spec);
  limcap::workload::QuerySpec shape;
  shape.num_connections = 2;
  shape.views_per_connection = 2;
  // A few generated queries stop early (their domains never fill); the
  // workload keeps those that run the full frontier.
  constexpr std::size_t kMinSourceQueries = 10000;
  LIMCAP_ASSIGN_OR_RETURN(
      std::vector<Query> queries,
      AnswerableQueries(instance, shape, kQueries, kWideQuerySeed,
                        kMinSourceQueries));
  AddWorld(inputs, std::move(instance.catalog), instance.domains);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    AddQuery(inputs, "random", "wide" + std::to_string(i), queries[i]);
  }
  inputs->order =
      ShuffledOrder(inputs->queries.size(), 64, SubSeed(inputs->seed, 7));
  return Status::OK();
}

Status DrawServeMixed(Inputs* inputs) {
  // The generator draws each request's class at random; three times the
  // requests are drawn and each class is capped at its equal share, in
  // generated order.
  limcap::workload::MixedWorkloadSpec spec;
  spec.seed = kServeMixedSeed;
  spec.num_requests = 3 * kServeRequests;
  LIMCAP_ASSIGN_OR_RETURN(limcap::workload::MixedWorkload mixed,
                          limcap::workload::GenerateMixedWorkload(spec));
  AddWorld(inputs, std::move(mixed.catalog), mixed.domains);
  std::map<std::string, std::size_t> quota;
  for (const char* query_class : {"paper", "chain", "random"}) {
    quota[query_class] = kServeRequests / 3;
  }
  quota["paper"] += kServeRequests % 3;
  for (limcap::workload::MixedRequest& request : mixed.requests) {
    const char* query_class =
        limcap::workload::MixedRequestClassName(request.query_class);
    if (quota[query_class] == 0) continue;
    --quota[query_class];
    // The paper class is Example 2.1; the label selects its table check.
    const std::string label =
        request.query_class == limcap::workload::MixedRequest::Class::kPaper
            ? "example21"
            : query_class + std::to_string(inputs->queries.size());
    AddQuery(inputs, query_class, label, std::move(request.query));
  }
  if (inputs->queries.size() != kServeRequests) {
    return Status::Internal("the mixed generator drew too few requests of "
                            "some class");
  }
  inputs->order =
      ShuffledOrder(inputs->queries.size(), 16, SubSeed(inputs->seed, 8));
  return Status::OK();
}

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPaperWarm:
      return "paper_warm";
    case WorkloadKind::kChainCold:
      return "chain_cold";
    case WorkloadKind::kWideFetch:
      return "wide_fetch";
    case WorkloadKind::kServeMixed:
      return "serve_mixed";
  }
  return "unknown";
}

Result<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind kind : kAllWorkloads) {
    if (name == WorkloadName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown workload: " + std::string(name));
}

std::string_view StaticAnalysisModeTag(limcap::exec::StaticAnalysisMode mode) {
  switch (mode) {
    case limcap::exec::StaticAnalysisMode::kOff:
      return "off";
    case limcap::exec::StaticAnalysisMode::kWarn:
      return "warn";
    case limcap::exec::StaticAnalysisMode::kReject:
      return "reject";
    case limcap::exec::StaticAnalysisMode::kPrune:
      return "prune";
  }
  return "off";
}

Result<Inputs> DrawInputs(WorkloadKind kind, uint64_t seed) {
  Inputs inputs;
  inputs.kind = kind;
  inputs.seed = seed;
  switch (kind) {
    case WorkloadKind::kPaperWarm:
      LIMCAP_RETURN_NOT_OK(DrawPaperWarm(&inputs));
      break;
    case WorkloadKind::kChainCold:
      LIMCAP_RETURN_NOT_OK(DrawChainCold(&inputs));
      break;
    case WorkloadKind::kWideFetch:
      LIMCAP_RETURN_NOT_OK(DrawWideFetch(&inputs));
      break;
    case WorkloadKind::kServeMixed:
      LIMCAP_RETURN_NOT_OK(DrawServeMixed(&inputs));
      break;
  }
  if (inputs.queries.empty()) {
    return Status::Internal(std::string(WorkloadName(kind)) +
                            " produced no queries");
  }
  return inputs;
}

Result<Workload> BuildWorkload(const Inputs& inputs) {
  Workload workload;
  workload.kind = inputs.kind;
  workload.probe = std::make_unique<Probe>();
  for (const World& world : inputs.worlds) {
    workload.universes.push_back(MakeUniverse(world, workload.probe.get()));
  }
  if (inputs.kind == WorkloadKind::kChainCold) {
    // Every answer plans cold: no session cache.
    workload.universes[0].mediator->SetPlanCacheCapacity(0);
    workload.options.static_analysis =
        limcap::exec::StaticAnalysisMode::kPrune;
  }
  const bool served = inputs.kind == WorkloadKind::kServeMixed;
  for (const DrawnQuery& drawn : inputs.queries) {
    LIMCAP_RETURN_NOT_OK(AddPoolQuery(&workload, drawn, !served));
  }
  workload.order = inputs.order;
  switch (inputs.kind) {
    case WorkloadKind::kPaperWarm:
    case WorkloadKind::kWideFetch:
      LIMCAP_RETURN_NOT_OK(WarmPlanCache(workload));
      break;
    case WorkloadKind::kServeMixed:
      LIMCAP_RETURN_NOT_OK(WarmPaperQuery(workload));
      break;
    case WorkloadKind::kChainCold:
      break;
  }
  return workload;
}

Result<limcap::exec::AnswerReport> AnswerSolo(
    const Universe& universe, const Query& query,
    const limcap::exec::ExecOptions& options) {
  // What Mediator::Answer does after view expansion, on a mediator of its
  // own: nothing cached, nothing shared.
  const Mediator mediator(universe.catalog.get(),
                          universe.mediator->domains());
  LIMCAP_RETURN_NOT_OK(
      query.Validate(*universe.catalog, universe.mediator->domains()));
  limcap::exec::ExecOptions solo = options;
  solo.plan_cache = &mediator.plan_cache();
  solo.plan_cache->NoteCatalogGeneration(universe.catalog->fingerprint());
  limcap::exec::QueryContext context(solo, query);
  return mediator.AnswerInContext(query, context);
}

Status ComputeReferences(Workload* workload, std::size_t threads) {
  // Distinct queries only: the mixed stream repeats its paper query.
  std::map<std::pair<std::size_t, std::string>, std::size_t> first_of;
  std::vector<std::size_t> distinct;
  std::vector<std::size_t> source_of(workload->pool.size());
  for (std::size_t i = 0; i < workload->pool.size(); ++i) {
    const PoolQuery& query = workload->pool[i];
    auto [it, inserted] = first_of.emplace(
        std::make_pair(query.universe, query.expanded.ToString()), i);
    if (inserted) distinct.push_back(i);
    source_of[i] = it->second;
  }
  workload->reference.assign(workload->pool.size(), Reference{});
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  Status failure = Status::OK();
  auto worker = [&] {
    for (std::size_t k = next++; k < distinct.size(); k = next++) {
      const PoolQuery& query = workload->pool[distinct[k]];
      auto report = AnswerSolo(workload->universes[query.universe],
                               query.expanded, workload->options);
      Status status = report.status();
      if (report.ok() && query.query_class == "paper" &&
          !MatchesPaperTable(query.request.view, report->exec.answer)) {
        status = Status::Internal(query.request.view +
                                  " does not match the paper's table: " +
                                  report->exec.answer.ToString());
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (!status.ok()) {
        if (failure.ok()) failure = status;
        continue;
      }
      Reference& reference = workload->reference[distinct[k]];
      reference.fingerprint = limcap::exec::OrderedFingerprint(report->exec);
      reference.source_queries = report->exec.log.total_queries();
      reference.signature = report->cache.signature;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& thread : pool) thread.join();
  LIMCAP_RETURN_NOT_OK(failure);
  for (std::size_t i = 0; i < source_of.size(); ++i) {
    workload->reference[i] = workload->reference[source_of[i]];
  }
  Probe& probe = *workload->probe;
  probe.calls = 0;
  probe.useful_calls = 0;
  probe.rows = 0;
  probe.source_ns = 0;
  return Status::OK();
}

bool MatchesPaperTable(const std::string& label,
                       const limcap::relational::Relation& answer) {
  using Row = limcap::relational::Row;
  auto s = [](const char* text) { return Value::String(text); };
  std::set<Row> expected;
  if (label == "example21") {
    expected = {{s("$15")}, {s("$13")}, {s("$10")}};
  } else if (label == "example41") {
    expected = {{s("d1")}, {s("d2")}};
  } else if (label == "example51") {
    expected = {{s("f"), s("g")}};
  } else if (label == "example52") {
    expected = {{s("a1"), s("c1"), s("e1")}};
  } else {
    return false;
  }
  const std::vector<Row> rows = answer.DecodedRows();
  return std::set<Row>(rows.begin(), rows.end()) == expected &&
         rows.size() == expected.size();
}

}  // namespace perfbench
