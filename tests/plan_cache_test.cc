#include "common/string_util.h"
#include "planner/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "capability/catalog_fingerprint.h"
#include "capability/in_memory_source.h"
#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "exec/source_driven_evaluator.h"
#include "mediator/mediator.h"
#include "obs/trace.h"
#include "paperdata/paper_examples.h"
#include "planner/program_optimizer.h"
#include "workload/generator.h"

namespace limcap::planner {
namespace {

using capability::CatalogFingerprint;
using capability::InMemorySource;
using capability::SourceCatalog;
using capability::SourceView;
using capability::StableHash64;
using exec::ExecOptions;
using exec::OrderedFingerprint;
using exec::QueryAnswerer;
using exec::StaticAnalysisMode;
using paperdata::PaperExample;

void AddSource(SourceCatalog* catalog, const char* name,
               std::vector<std::string> attributes, const char* pattern,
               const std::vector<relational::Row>& rows = {}) {
  SourceView view =
      SourceView::MakeUnsafe(name, std::move(attributes), pattern);
  relational::Relation data(view.schema());
  for (const relational::Row& row : rows) data.InsertUnsafe(row);
  catalog->RegisterUnsafe(std::make_unique<InMemorySource>(
      InMemorySource::MakeUnsafe(view, std::move(data))));
}

QuerySignature MustSign(const Query& query, const SourceCatalog& catalog,
                        const DomainMap& domains = {},
                        const BuilderOptions& builder = {},
                        std::string_view tag = {}) {
  auto signature = MakeQuerySignature(query, catalog, domains, builder, tag);
  EXPECT_TRUE(signature.ok()) << signature.status();
  return *signature;
}

// ---------------------------------------------------------------------------
// Catalog fingerprints.

TEST(CatalogFingerprintTest, IncrementalMatchesBatchAndRebuilds) {
  SourceCatalog catalog;
  EXPECT_EQ(catalog.fingerprint(), capability::kEmptyCatalogFingerprint);
  AddSource(&catalog, "v1", {"A", "B"}, "bf");
  AddSource(&catalog, "v2", {"B", "C"}, "bf");
  AddSource(&catalog, "v3", {"C", "D"}, "ff");
  // The incrementally maintained value equals the batch recomputation.
  EXPECT_EQ(catalog.fingerprint(), CatalogFingerprint(catalog.Views()));

  // An identical catalog built independently lands on the same value.
  SourceCatalog twin;
  AddSource(&twin, "v1", {"A", "B"}, "bf");
  AddSource(&twin, "v2", {"B", "C"}, "bf");
  AddSource(&twin, "v3", {"C", "D"}, "ff");
  EXPECT_EQ(twin.fingerprint(), catalog.fingerprint());

  // Registration order matters: generated programs list rules in view
  // order.
  SourceCatalog reordered;
  AddSource(&reordered, "v2", {"B", "C"}, "bf");
  AddSource(&reordered, "v1", {"A", "B"}, "bf");
  AddSource(&reordered, "v3", {"C", "D"}, "ff");
  EXPECT_NE(reordered.fingerprint(), catalog.fingerprint());

  // A capability change (same name/schema, different adornment) moves it.
  SourceCatalog weakened;
  AddSource(&weakened, "v1", {"A", "B"}, "ff");
  AddSource(&weakened, "v2", {"B", "C"}, "bf");
  AddSource(&weakened, "v3", {"C", "D"}, "ff");
  EXPECT_NE(weakened.fingerprint(), catalog.fingerprint());

  // Deregistering the tail restores the shorter catalog's fingerprint.
  uint64_t fp_before = 0;
  {
    SourceCatalog two;
    AddSource(&two, "v1", {"A", "B"}, "bf");
    AddSource(&two, "v2", {"B", "C"}, "bf");
    fp_before = two.fingerprint();
  }
  ASSERT_TRUE(catalog.Deregister("v3").ok());
  EXPECT_EQ(catalog.fingerprint(), fp_before);
  EXPECT_EQ(catalog.fingerprint(), CatalogFingerprint(catalog.Views()));
  EXPECT_FALSE(catalog.Deregister("v3").ok());

  // Deregister from the middle shifts later slots; still equals batch.
  AddSource(&catalog, "v3", {"C", "D"}, "ff");
  ASSERT_TRUE(catalog.Deregister("v1").ok());
  EXPECT_EQ(catalog.fingerprint(), CatalogFingerprint(catalog.Views()));
  EXPECT_TRUE(catalog.Contains("v2"));
  EXPECT_TRUE(catalog.Contains("v3"));
}

// ---------------------------------------------------------------------------
// Query signatures.

TEST(QuerySignatureTest, InvariantUnderConnectionAndViewOrder) {
  PaperExample example = paperdata::MakeExample21();
  QuerySignature base = MustSign(example.query, example.catalog,
                                 example.domains);

  // Reverse the connection list and each connection's view list.
  std::vector<Connection> shuffled;
  for (auto it = example.query.connections().rbegin();
       it != example.query.connections().rend(); ++it) {
    std::vector<std::string> names = it->view_names();
    std::reverse(names.begin(), names.end());
    shuffled.emplace_back(std::move(names));
  }
  Query reordered(example.query.inputs(), example.query.outputs(),
                  std::move(shuffled));
  ASSERT_TRUE(reordered.Validate(example.catalog, example.domains).ok());
  EXPECT_EQ(MustSign(reordered, example.catalog, example.domains), base);
}

TEST(QuerySignatureTest, InvariantUnderAttributeRenaming) {
  SourceCatalog original;
  AddSource(&original, "v1", {"Song", "Cd"}, "bf");
  AddSource(&original, "v3", {"Cd", "Price"}, "bf");
  Query query({{"Song", Value::String("t1")}}, {"Price"},
              {Connection({"v1", "v3"})});

  SourceCatalog renamed;
  AddSource(&renamed, "v1", {"Track", "Disc"}, "bf");
  AddSource(&renamed, "v3", {"Disc", "Cost"}, "bf");
  Query renamed_query({{"Track", Value::String("t1")}}, {"Cost"},
                      {Connection({"v1", "v3"})});

  // Same signature (isomorphic queries), different catalog fingerprint
  // (the capability surface names different attributes) — so the combined
  // cache keys still differ, as they must: the plans bind different
  // attribute names.
  EXPECT_EQ(MustSign(query, original), MustSign(renamed_query, renamed));
  EXPECT_NE(original.fingerprint(), renamed.fingerprint());
}

TEST(QuerySignatureTest, SensitiveToAdornmentsInputsOutputsAndKnobs) {
  SourceCatalog catalog;
  AddSource(&catalog, "v1", {"Song", "Cd"}, "bf");
  AddSource(&catalog, "v3", {"Cd", "Price"}, "bf");
  Query query({{"Song", Value::String("t1")}}, {"Price"},
              {Connection({"v1", "v3"})});
  QuerySignature base = MustSign(query, catalog);

  // Distinct adornment on a referenced view: different signature.
  SourceCatalog readorned;
  AddSource(&readorned, "v1", {"Song", "Cd"}, "fb");
  AddSource(&readorned, "v3", {"Cd", "Price"}, "bf");
  EXPECT_NE(MustSign(query, readorned), base);

  // Different input value / different value kind of the same text.
  Query other_value({{"Song", Value::String("t2")}}, {"Price"},
                    {Connection({"v1", "v3"})});
  EXPECT_NE(MustSign(other_value, catalog), base);
  Query int_value({{"Song", Value::Int64(1)}}, {"Price"},
                  {Connection({"v1", "v3"})});
  Query str_value({{"Song", Value::String("1")}}, {"Price"},
                  {Connection({"v1", "v3"})});
  EXPECT_NE(MustSign(int_value, catalog), MustSign(str_value, catalog));

  // Output order is the answer schema: sensitive.
  Query two_out({{"Song", Value::String("t1")}}, {"Cd", "Price"},
                {Connection({"v1", "v3"})});
  Query two_out_swapped({{"Song", Value::String("t1")}}, {"Price", "Cd"},
                        {Connection({"v1", "v3"})});
  EXPECT_NE(MustSign(two_out, catalog), MustSign(two_out_swapped, catalog));

  // Builder knobs and the config tag are part of the key.
  BuilderOptions goals;
  goals.per_connection_goals = true;
  EXPECT_NE(MustSign(query, catalog, {}, goals), base);
  EXPECT_NE(MustSign(query, catalog, {}, {}, "prune"), base);

  // A domain-map override changes the emitted program: sensitive.
  DomainMap grouped;
  grouped.SetDomain("Cd", "disc");
  EXPECT_NE(MustSign(query, catalog, grouped), base);

  // Unknown view: signature fails like Validate does.
  Query bad({{"Song", Value::String("t1")}}, {"Price"},
            {Connection({"v1", "v9"})});
  EXPECT_FALSE(MakeQuerySignature(bad, catalog, DomainMap()).ok());
}

TEST(QuerySignatureTest, PropertyShuffledGeneratedQueriesShareSignatures) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    workload::CatalogSpec spec;
    spec.topology = workload::CatalogSpec::Topology::kRandom;
    spec.num_views = 8;
    spec.num_attributes = 6;
    spec.tuples_per_view = 5;
    spec.seed = seed;
    workload::GeneratedInstance instance = workload::GenerateInstance(spec);
    workload::QuerySpec query_spec;
    query_spec.num_connections = 2;
    query_spec.views_per_connection = 2;
    query_spec.seed = seed * 31;
    auto query = workload::GenerateQuery(instance, query_spec);
    if (!query.ok()) continue;  // no valid query of this shape exists
    QuerySignature base =
        MustSign(*query, instance.catalog, instance.domains);

    std::mt19937 rng(seed);
    for (int round = 0; round < 4; ++round) {
      std::vector<Connection> connections;
      for (const Connection& connection : query->connections()) {
        std::vector<std::string> names = connection.view_names();
        std::shuffle(names.begin(), names.end(), rng);
        connections.emplace_back(std::move(names));
      }
      std::shuffle(connections.begin(), connections.end(), rng);
      Query shuffled(query->inputs(), query->outputs(),
                     std::move(connections));
      EXPECT_EQ(MustSign(shuffled, instance.catalog, instance.domains), base)
          << "seed " << seed << " round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// The LRU cache proper.

std::shared_ptr<const CachedPlan> Entry(uint64_t catalog_fp,
                                        const std::string& name) {
  auto entry = std::make_shared<CachedPlan>();
  entry->catalog_fingerprint = catalog_fp;
  entry->signature.canonical = name;
  entry->signature.hash = StableHash64(name);
  return entry;
}

TEST(PlanCacheTest, LruEvictionIsBoundedAndFreshensOnLookup) {
  PlanCache cache(/*capacity=*/2);
  cache.Insert(Entry(1, "a"));
  cache.Insert(Entry(1, "b"));
  // Touch "a": it becomes most recently used, so inserting "c" evicts "b".
  EXPECT_NE(cache.Lookup(1, Entry(1, "a")->signature), nullptr);
  cache.Insert(Entry(1, "c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(1, Entry(1, "a")->signature), nullptr);
  EXPECT_EQ(cache.Lookup(1, Entry(1, "b")->signature), nullptr);
  EXPECT_NE(cache.Lookup(1, Entry(1, "c")->signature), nullptr);

  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);

  // Same signature under a different catalog fingerprint is a miss.
  EXPECT_EQ(cache.Lookup(2, Entry(1, "a")->signature), nullptr);

  // Re-inserting an existing key replaces without growing.
  cache.Insert(Entry(1, "c"));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, CapacityZeroDisables) {
  PlanCache cache(/*capacity=*/0);
  cache.Insert(Entry(1, "a"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, Entry(1, "a")->signature), nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
  // The consulted-but-disabled lookup still counts: hit + miss must equal
  // the number of Lookup calls (a reject-gated query against a disabled
  // cache used to vanish from the stats entirely).
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheTest, StatsSnapshotCarriesSizeAndCapacity) {
  PlanCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().capacity, 2u);
  cache.Insert(Entry(1, "a"));
  cache.Insert(Entry(1, "b"));
  cache.Insert(Entry(1, "c"));  // evicts "a"
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(PlanCacheTest, InvalidateDropsExactlyOneGeneration) {
  PlanCache cache(/*capacity=*/8);
  cache.Insert(Entry(1, "a"));
  cache.Insert(Entry(1, "b"));
  cache.Insert(Entry(2, "a"));
  cache.Insert(Entry(2, "c"));
  EXPECT_EQ(cache.Invalidate(1), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(1, Entry(1, "a")->signature), nullptr);
  EXPECT_NE(cache.Lookup(2, Entry(2, "a")->signature), nullptr);
  EXPECT_NE(cache.Lookup(2, Entry(2, "c")->signature), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.Invalidate(1), 0u);
}

// Named "Parallel" so the TSan CI job picks it up.
TEST(PlanCacheTest, ParallelLookupsInsertsAndInvalidationsAreSafe) {
  PlanCache cache(/*capacity=*/4);
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string name = StrCat({"sig", std::to_string((t + i) % 6)});
        uint64_t fp = uint64_t(i % 2) + 1;
        if (i % 7 == 0) {
          cache.Invalidate(fp);
        } else if (i % 3 == 0) {
          cache.Insert(Entry(fp, name));
        } else {
          auto hit = cache.Lookup(fp, Entry(fp, name)->signature);
          if (hit != nullptr) {
            EXPECT_EQ(hit->catalog_fingerprint, fp);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 4u);
  PlanCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// Warm-path answer preservation.

PaperExample MakeExample(int index) {
  switch (index) {
    case 0:
      return paperdata::MakeExample21();
    case 1:
      return paperdata::MakeExample41();
    case 2:
      return paperdata::MakeExample51();
    default:
      return paperdata::MakeExample52();
  }
}

std::vector<std::pair<std::string, ExecOptions>> EvaluatorConfigs() {
  std::vector<std::pair<std::string, ExecOptions>> configs;
  configs.emplace_back("serial", ExecOptions{});
  ExecOptions concurrent;
  concurrent.runtime.concurrent = true;
  configs.emplace_back("concurrent-fetch", concurrent);
  return configs;
}

/// The answer entry points that consult the plan cache.
struct ProgramVariant {
  const char* name;
  Result<exec::AnswerReport> (QueryAnswerer::*answer)(
      const Query&, const ExecOptions&) const;
};

std::vector<ProgramVariant> ProgramVariants() {
  return {{"optimized", &QueryAnswerer::Answer},
          {"unoptimized", &QueryAnswerer::AnswerUnoptimized}};
}

TEST(PlanCacheTest, WarmAnswerBitIdenticalToColdOnPaperExamples) {
  for (const ProgramVariant& variant : ProgramVariants()) {
    for (int example_index = 0; example_index < 4; ++example_index) {
      for (const auto& [config_name, base_options] : EvaluatorConfigs()) {
        SCOPED_TRACE(std::string(variant.name) + " example " +
                     std::to_string(example_index) + " config " +
                     config_name);
        PaperExample example = MakeExample(example_index);
        QueryAnswerer answerer(&example.catalog, example.domains);
        PlanCache cache;
        ExecOptions options = base_options;
        options.plan_cache = &cache;

        auto cold = (answerer.*variant.answer)(example.query, options);
        ASSERT_TRUE(cold.ok()) << cold.status();
        EXPECT_TRUE(cold->cache.attempted);
        EXPECT_FALSE(cold->cache.hit);

        auto warm = (answerer.*variant.answer)(example.query, options);
        ASSERT_TRUE(warm.ok()) << warm.status();
        EXPECT_TRUE(warm->cache.hit);
        EXPECT_EQ(warm->cache.key_fingerprint, cold->cache.key_fingerprint);
        EXPECT_EQ(warm->cache.catalog_fingerprint,
                  cold->cache.catalog_fingerprint);
        EXPECT_EQ(OrderedFingerprint(warm->exec),
                  OrderedFingerprint(cold->exec));
        EXPECT_EQ(warm->exec.post_ingest_translations, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A cold answer plans only the program it runs.

std::set<relational::Row> RowSet(const relational::Relation& relation) {
  std::vector<relational::Row> rows = relation.DecodedRows();
  return std::set<relational::Row>(rows.begin(), rows.end());
}

/// On one catalog and query: a traced cold Answer, uncached or through a
/// capacity-0 cache, builds Π(Q, V_r) once and never Π(Q, V); a traced
/// AnswerUnoptimized builds Π(Q, V) once, as BuildFullProgram does, and
/// answers exactly as that program does when executed directly.
void ExpectColdAnswerBuildsOnlyWhatRuns(const SourceCatalog& catalog,
                                        const DomainMap& domains,
                                        const Query& query) {
  QueryAnswerer answerer(&catalog, domains);
  PlanCache disabled(0);
  for (PlanCache* cache : {static_cast<PlanCache*>(nullptr), &disabled}) {
    SCOPED_TRACE(cache == nullptr ? "no cache" : "capacity-0 cache");
    obs::Tracer tracer;
    ExecOptions options;
    options.tracer = &tracer;
    options.plan_cache = cache;
    auto cold = answerer.Answer(query, options);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_FALSE(cold->cache.hit);
    EXPECT_EQ(tracer.CountSpans("plan.build"), 0u);
    EXPECT_EQ(tracer.CountSpans("plan.build_relevant"), 1u);
  }

  auto full = BuildFullProgram(query, catalog.Views(), domains);
  ASSERT_TRUE(full.ok()) << full.status();
  obs::Tracer tracer;
  ExecOptions options;
  options.tracer = &tracer;
  auto unoptimized = answerer.AnswerUnoptimized(query, options);
  ASSERT_TRUE(unoptimized.ok()) << unoptimized.status();
  EXPECT_EQ(tracer.CountSpans("plan.build"), 1u);
  EXPECT_EQ(tracer.SumCounter("plan.build", "rules"), double(full->size()));

  exec::SourceDrivenEvaluator evaluator(&catalog, domains);
  auto direct = evaluator.Execute(*full, query);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(RowSet(unoptimized->exec.answer), RowSet(direct->answer));
  EXPECT_EQ(unoptimized->exec.log.total_queries(),
            direct->log.total_queries());
}

TEST(ColdPlanningTest, PaperExamplesBuildOnlyTheExecutedProgram) {
  for (int example_index = 0; example_index < 4; ++example_index) {
    SCOPED_TRACE(StrCat({"example ", std::to_string(example_index)}));
    PaperExample example = MakeExample(example_index);
    ExpectColdAnswerBuildsOnlyWhatRuns(example.catalog, example.domains,
                                       example.query);
  }
}

TEST(ColdPlanningTest, Chain400BuildsOnlyTheExecutedProgram) {
  // bench_plan_cache's chain400: the decoyed 400-view bf-chain and the
  // first probed 4-view walk with a non-empty answer.
  workload::CatalogSpec spec;
  spec.topology = workload::CatalogSpec::Topology::kChain;
  spec.num_views = 400;
  spec.tuples_per_view = 20;
  spec.domain_size = 12;
  spec.seed = 20260807;
  workload::GeneratedInstance instance = workload::GenerateInstance(spec);
  workload::QuerySpec query_spec;
  query_spec.num_connections = 1;
  query_spec.views_per_connection = 4;
  QueryAnswerer answerer(&instance.catalog, instance.domains);
  std::optional<Query> walk;
  for (uint64_t seed = 1; seed <= 64 && !walk.has_value(); ++seed) {
    query_spec.seed = seed;
    auto candidate = workload::GenerateQuery(instance, query_spec);
    if (!candidate.ok()) continue;
    auto probe = answerer.Answer(*candidate);
    if (probe.ok() && !probe->exec.answer.empty()) walk = *candidate;
  }
  ASSERT_TRUE(walk.has_value()) << "no answerable walk in 64 seeds";
  ExpectColdAnswerBuildsOnlyWhatRuns(instance.catalog, instance.domains,
                                     *walk);
}

TEST(PlanCacheTest, WarmPathReplaysAnalysisVerdicts) {
  for (StaticAnalysisMode mode :
       {StaticAnalysisMode::kWarn, StaticAnalysisMode::kPrune}) {
    PaperExample example = paperdata::MakeExample21();
    QueryAnswerer answerer(&example.catalog, example.domains);
    PlanCache cache;
    ExecOptions options;
    options.static_analysis = mode;
    options.plan_cache = &cache;

    auto cold = answerer.Answer(example.query, options);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_TRUE(cold->analysis_ran);

    auto warm = answerer.Answer(example.query, options);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_TRUE(warm->cache.hit);
    ASSERT_TRUE(warm->analysis_ran);
    EXPECT_EQ(warm->analysis.diagnostics.size(),
              cold->analysis.diagnostics.size());
    EXPECT_EQ(OrderedFingerprint(warm->exec), OrderedFingerprint(cold->exec));
  }
}

TEST(PlanCacheTest, DistinctGateModesDoNotShareEntries) {
  // The gate mode and the program variant both change the compiled
  // artifact, so each (variant, mode) pair compiles its own entry — and
  // answers exactly as it does without a cache.
  PaperExample example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  PlanCache cache;
  std::size_t answers = 0;
  for (const ProgramVariant& variant : ProgramVariants()) {
    for (StaticAnalysisMode mode :
         {StaticAnalysisMode::kOff, StaticAnalysisMode::kPrune}) {
      SCOPED_TRACE(std::string(variant.name) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      ExecOptions uncached;
      uncached.static_analysis = mode;
      ExecOptions options = uncached;
      options.plan_cache = &cache;
      auto report = (answerer.*variant.answer)(example.query, options);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_FALSE(report->cache.hit);
      EXPECT_EQ(cache.size(), ++answers);
      auto reference = (answerer.*variant.answer)(example.query, uncached);
      ASSERT_TRUE(reference.ok()) << reference.status();
      EXPECT_EQ(report->exec.log.total_queries(),
                reference->exec.log.total_queries());
      EXPECT_EQ(OrderedFingerprint(report->exec),
                OrderedFingerprint(reference->exec));
    }
  }
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

/// A caller-supplied session dictionary that already holds `count` values
/// no query mentions.
ValueDictionaryPtr PrepopulatedDictionary(int count) {
  auto dict = std::make_shared<ValueDictionary>();
  for (int i = 0; i < count; ++i) {
    dict->Intern(Value::String(StrCat({"unrelated", std::to_string(i)})));
  }
  return dict;
}

TEST(PlanCacheTest, WarmAnswerOnPrepopulatedDictionaryMatchesCold) {
  // An entry's program is compiled against the dictionary of the answer
  // that planned it. A warm answer whose dictionary hands out other ids
  // recompiles it for its own store at bind time, and answers exactly as
  // a cold answer over an equal dictionary does — in both directions.
  for (int example_index = 0; example_index < 4; ++example_index) {
    for (const auto& [config_name, base_options] : EvaluatorConfigs()) {
      for (const auto& [planned_with, warm_with] :
           {std::pair{0, 11}, std::pair{11, 0}, std::pair{5, 11}}) {
        SCOPED_TRACE(StrCat({"example ", std::to_string(example_index), " config ", config_name, " planned over ", std::to_string(planned_with), " values, warm over ", std::to_string(warm_with)}));
        PaperExample example = MakeExample(example_index);
        QueryAnswerer answerer(&example.catalog, example.domains);
        PlanCache cache;
        ExecOptions options = base_options;
        options.plan_cache = &cache;
        options.session_dict = PrepopulatedDictionary(planned_with);
        auto planned = answerer.Answer(example.query, options);
        ASSERT_TRUE(planned.ok()) << planned.status();
        ASSERT_FALSE(planned->cache.hit);

        options.session_dict = PrepopulatedDictionary(warm_with);
        auto warm = answerer.Answer(example.query, options);
        ASSERT_TRUE(warm.ok()) << warm.status();
        EXPECT_TRUE(warm->cache.hit);

        ExecOptions uncached = base_options;
        uncached.session_dict = PrepopulatedDictionary(warm_with);
        auto cold = answerer.Answer(example.query, uncached);
        ASSERT_TRUE(cold.ok()) << cold.status();
        EXPECT_EQ(OrderedFingerprint(warm->exec),
                  OrderedFingerprint(cold->exec));
        EXPECT_EQ(warm->exec.post_ingest_translations, 0u);
      }
    }
  }
}

TEST(PlanCacheTest, ConcurrentWarmAnswersShareOneCompiledProgram) {
  // 8 threads answer the paper examples warm through one cache at once,
  // so every entry's compiled program is bound by several executions
  // concurrently, under every evaluator configuration. Each answer must
  // equal the serial one.
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<PaperExample> examples;
  for (int i = 0; i < 4; ++i) examples.push_back(MakeExample(i));
  std::vector<std::unique_ptr<QueryAnswerer>> answerers;
  for (PaperExample& example : examples) {
    answerers.push_back(
        std::make_unique<QueryAnswerer>(&example.catalog, example.domains));
  }
  const auto configs = EvaluatorConfigs();
  PlanCache cache;
  // serial[example][config], each from a warm answer.
  std::vector<std::vector<std::string>> serial(examples.size());
  for (std::size_t e = 0; e < examples.size(); ++e) {
    for (const auto& [config_name, base_options] : configs) {
      ExecOptions options = base_options;
      options.plan_cache = &cache;
      auto report = answerers[e]->Answer(examples[e].query, options);
      ASSERT_TRUE(report.ok()) << report.status();
      serial[e].push_back(OrderedFingerprint(report->exec));
    }
  }
  const PlanCache::Stats before = cache.stats();
  ASSERT_EQ(before.inserts, examples.size());

  // got[thread] = (example, config, fingerprint) per answer.
  std::vector<std::vector<std::tuple<std::size_t, std::size_t, std::string>>>
      got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < examples.size() * configs.size(); ++i) {
          const std::size_t slot = (i + t) % (examples.size() * configs.size());
          const std::size_t e = slot % examples.size();
          const std::size_t c = slot / examples.size();
          ExecOptions options = configs[c].second;
          options.plan_cache = &cache;
          auto report = answerers[e]->Answer(examples[e].query, options);
          got[t].emplace_back(e, c,
                              report.ok() ? OrderedFingerprint(report->exec)
                                          : report.status().ToString());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::size_t answers = 0;
  for (const auto& per_thread : got) {
    for (const auto& [e, c, fingerprint] : per_thread) {
      EXPECT_EQ(fingerprint, serial[e][c])
          << "example " << e << " config " << configs[c].first;
      ++answers;
    }
  }
  EXPECT_EQ(answers, std::size_t{kThreads} * kRounds * examples.size() *
                         configs.size());
  const PlanCache::Stats after = cache.stats();
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.hits - before.hits, answers);
}

// ---------------------------------------------------------------------------
// Mediator integration (satellite: repeated answers, bounded dictionary,
// invalidation on catalog mutation).

mediator::MediatorView CdInfoView() {
  mediator::MediatorView view;
  view.name = "cd_info";
  view.exported_attributes = {"Song", "Cd", "Price"};
  view.definitions = {Connection({"v1", "v3"}), Connection({"v1", "v4"}),
                      Connection({"v2", "v3"}), Connection({"v2", "v4"})};
  return view;
}

TEST(MediatorPlanCacheTest, RepeatedAnswersAreBitIdenticalAndBounded) {
  PaperExample example = paperdata::MakeExample21();
  mediator::Mediator mediator(&example.catalog, example.domains);
  ASSERT_TRUE(mediator.Define(CdInfoView()).ok());
  mediator::MediatorQuery query{
      "cd_info", {{"Song", Value::String("t1")}}, {"Price"}};

  // One session dictionary across the repeats, like a long-lived session.
  ExecOptions options;
  options.session_dict = std::make_shared<ValueDictionary>();

  auto first = mediator.Answer(query, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache.hit);
  const std::string fingerprint = OrderedFingerprint(first->exec);
  const std::size_t dict_size = options.session_dict->size();

  for (int i = 0; i < 3; ++i) {
    auto repeat = mediator.Answer(query, options);
    ASSERT_TRUE(repeat.ok()) << repeat.status();
    EXPECT_TRUE(repeat->cache.hit);
    EXPECT_EQ(OrderedFingerprint(repeat->exec), fingerprint);
    // Re-answering interns nothing new: the dictionary stays put.
    EXPECT_EQ(options.session_dict->size(), dict_size);
    EXPECT_EQ(repeat->exec.post_ingest_translations, 0u);
  }
  EXPECT_EQ(mediator.plan_cache().stats().hits, 3u);
  EXPECT_EQ(mediator.plan_cache().stats().misses, 1u);

  // Session metrics carried the cache counters along.
  EXPECT_EQ(mediator.session_metrics().Get(obs::metric::kPlanCacheHits), 3.0);
  EXPECT_EQ(mediator.session_metrics().Get(obs::metric::kPlanCacheMisses),
            1.0);
}

TEST(MediatorPlanCacheTest, CatalogMutationInvalidatesStaleEntries) {
  PaperExample example = paperdata::MakeExample21();
  mediator::Mediator mediator(&example.catalog, example.domains);
  ASSERT_TRUE(mediator.Define(CdInfoView()).ok());
  mediator::MediatorQuery query{
      "cd_info", {{"Song", Value::String("t1")}}, {"Price"}};

  auto cold = mediator.Answer(query, {});
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = mediator.Answer(query, {});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache.hit);

  // A source joins: the catalog fingerprint moves, so the next answer
  // recompiles, and the mediator reclaims the stale generation's entries.
  AddSource(&example.catalog, "v9", {"Cd", "Label"}, "bf");
  EXPECT_NE(example.catalog.fingerprint(), cold->cache.catalog_fingerprint);
  auto after = mediator.Answer(query, {});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache.hit);
  EXPECT_NE(after->cache.catalog_fingerprint,
            cold->cache.catalog_fingerprint);
  EXPECT_EQ(mediator.plan_cache().stats().invalidations, 1u);
  // The recompiled answer is still the paper's answer.
  EXPECT_EQ(after->exec.answer.size(), cold->exec.answer.size());

  // The source leaves again: the fingerprint returns to its old value,
  // and the (invalidated) old generation simply recompiles on demand.
  ASSERT_TRUE(example.catalog.Deregister("v9").ok());
  EXPECT_EQ(example.catalog.fingerprint(), cold->cache.catalog_fingerprint);
  auto back = mediator.Answer(query, {});
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_FALSE(back->cache.hit);
  EXPECT_EQ(back->exec.answer.size(), cold->exec.answer.size());
}

TEST(MediatorPlanCacheTest, SourceDepartureReclaimsCallerSuppliedCache) {
  // Regression: generation reclamation used to live in the mediator's
  // own state, so a caller-supplied cache (a ServeSession's, say) kept
  // the retired generation's entries forever. The cache itself now
  // tracks the live fingerprint, so departure → re-answer reclaims
  // entries wherever the cache came from.
  PaperExample example = paperdata::MakeExample21();
  mediator::Mediator mediator(&example.catalog, example.domains);
  ASSERT_TRUE(mediator.Define(CdInfoView()).ok());
  mediator::MediatorQuery query{
      "cd_info", {{"Song", Value::String("t1")}}, {"Price"}};

  PlanCache shared;
  ExecOptions options;
  options.plan_cache = &shared;

  AddSource(&example.catalog, "v9", {"Cd", "Label"}, "bf");
  auto cold = mediator.Answer(query, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache.hit);
  EXPECT_EQ(shared.size(), 1u);

  // The source departs: the next answer runs under the old fingerprint,
  // and the v9-era entry is dropped from the *caller's* cache.
  ASSERT_TRUE(example.catalog.Deregister("v9").ok());
  auto after = mediator.Answer(query, options);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache.hit);
  EXPECT_EQ(shared.stats().invalidations, 1u);
  EXPECT_EQ(shared.size(), 1u);  // only the post-departure entry remains
  EXPECT_EQ(after->exec.answer.size(), cold->exec.answer.size());
  // The mediator's own cache was never touched.
  EXPECT_EQ(mediator.plan_cache().size(), 0u);

  // Re-answering under the stable fingerprint is a warm hit again.
  auto warm = mediator.Answer(query, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache.hit);
  EXPECT_EQ(OrderedFingerprint(warm->exec), OrderedFingerprint(after->exec));
}

TEST(PlanCacheTest, NoteCatalogGenerationDropsOnlyThePreviousGeneration) {
  PlanCache cache;
  auto entry = [](uint64_t fingerprint, const char* canonical) {
    auto plan = std::make_shared<CachedPlan>();
    plan->catalog_fingerprint = fingerprint;
    plan->signature.canonical = canonical;
    plan->signature.hash = StableHash64(canonical);
    return plan;
  };
  cache.Insert(entry(1, "q1"));
  cache.Insert(entry(2, "q2"));
  cache.Insert(entry(3, "q3"));

  // First report just records the generation.
  EXPECT_EQ(cache.NoteCatalogGeneration(1), 0u);
  // Same fingerprint again: nothing to do.
  EXPECT_EQ(cache.NoteCatalogGeneration(1), 0u);
  EXPECT_EQ(cache.size(), 3u);
  // Generation moves 1 → 2: exactly generation 1's entry is dropped;
  // fingerprint 3 (a different catalog sharing the cache) survives.
  EXPECT_EQ(cache.NoteCatalogGeneration(2), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.NoteCatalogGeneration(3), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(MediatorPlanCacheTest, CapacityZeroDisablesSessionCache) {
  PaperExample example = paperdata::MakeExample21();
  mediator::Mediator mediator(&example.catalog, example.domains);
  ASSERT_TRUE(mediator.Define(CdInfoView()).ok());
  mediator.SetPlanCacheCapacity(0);
  mediator::MediatorQuery query{
      "cd_info", {{"Song", Value::String("t1")}}, {"Price"}};
  auto first = mediator.Answer(query, {});
  ASSERT_TRUE(first.ok());
  auto second = mediator.Answer(query, {});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache.attempted);
  EXPECT_FALSE(second->cache.hit);
  EXPECT_EQ(OrderedFingerprint(second->exec),
            OrderedFingerprint(first->exec));
}

}  // namespace
}  // namespace limcap::planner
