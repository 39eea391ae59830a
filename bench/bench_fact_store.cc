// X5 — FactStore storage ablation at scale: insert, probe, and contains
// throughput on the interned flat-arena store at 10k–1M facts.
//
// Beyond raw throughput, this bench instruments the global allocator
// (alloc_counter.cc) to certify the zero-allocation contract of the
// probe path: ProbeEach and Contains must perform no heap allocation per
// call once indexes are built (the `allocs_per_probe` /
// `allocs_per_contains` counters in the JSON output must be 0). Before
// timing anything it checks that the counter counts, so a replacement
// that stopped linking fails instead of reading 0.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "alloc_counter.h"
#include "datalog/fact_store.h"

namespace {

using limcap::Value;
using limcap::benchalloc::g_allocations;
using limcap::ValueId;
using limcap::datalog::FactStore;
using limcap::datalog::IdRow;
using limcap::datalog::PredicateId;
using limcap::datalog::RowView;

constexpr std::size_t kNumKeys = 1024;

/// Pre-encoded two-column rows: column 0 cycles over kNumKeys keys,
/// column 1 is distinct, so every row is unique and each key's postings
/// chain holds ~n/kNumKeys rows.
std::vector<ValueId> EncodeRows(FactStore& store, std::size_t n) {
  std::vector<ValueId> ids;
  ids.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(store.dict().Intern(
        Value::Int64(static_cast<int64_t>(i % kNumKeys))));
    ids.push_back(
        store.dict().Intern(Value::Int64(static_cast<int64_t>(i) + 1'000'000)));
  }
  return ids;
}

void BM_FactStoreInsert(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FactStore store;
    PredicateId pred = *store.DeclareId("p", 2);
    std::vector<ValueId> ids = EncodeRows(store, n);
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          store.InsertIds(pred, RowView(ids.data() + 2 * i, 2)));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FactStoreInsert)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// Insert with an index maintained incrementally from the start — the
/// evaluator's steady state, where every insert also appends a posting.
void BM_FactStoreInsertIndexed(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<uint32_t> cols = {0};
  for (auto _ : state) {
    state.PauseTiming();
    FactStore store;
    PredicateId pred = *store.DeclareId("p", 2);
    store.EnsureIndex(pred, cols);
    std::vector<ValueId> ids = EncodeRows(store, n);
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          store.InsertIds(pred, RowView(ids.data() + 2 * i, 2)));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FactStoreInsertIndexed)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_FactStoreProbe(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  FactStore store;
  PredicateId pred = *store.DeclareId("p", 2);
  const std::vector<uint32_t> cols = {0};
  store.EnsureIndex(pred, cols);
  std::vector<ValueId> ids = EncodeRows(store, n);
  for (std::size_t i = 0; i < n; ++i) {
    store.InsertIds(pred, RowView(ids.data() + 2 * i, 2)).ok();
  }
  std::vector<ValueId> keys;
  for (std::size_t k = 0; k < kNumKeys; ++k) {
    keys.push_back(store.dict().Intern(
        Value::Int64(static_cast<int64_t>(k))));
  }
  const std::size_t count = store.Count(pred);
  std::size_t probes = 0;
  std::size_t rows = 0;
  std::size_t allocations = 0;
  for (auto _ : state) {
    const std::size_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    for (ValueId key : keys) {
      store.ProbeEach(pred, cols, RowView(&key, 1), count,
                      [&](std::size_t pos) {
                        rows += store.Row(pred, pos)[1] != 0;
                        return true;
                      });
      ++probes;
    }
    allocations +=
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["rows_per_probe"] =
      probes ? static_cast<double>(rows) / static_cast<double>(probes) : 0;
  // The zero-allocation contract: the whole probe loop must not touch
  // the heap.
  state.counters["allocs_per_probe"] =
      probes ? static_cast<double>(allocations) / static_cast<double>(probes)
             : 0;
}
BENCHMARK(BM_FactStoreProbe)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_FactStoreContains(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  FactStore store;
  PredicateId pred = *store.DeclareId("p", 2);
  std::vector<ValueId> ids = EncodeRows(store, n);
  for (std::size_t i = 0; i < n; ++i) {
    store.InsertIds(pred, RowView(ids.data() + 2 * i, 2)).ok();
  }
  // Half hits (existing rows), half misses (swapped columns).
  std::size_t checks = 0;
  std::size_t hits = 0;
  std::size_t allocations = 0;
  for (auto _ : state) {
    const std::size_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; i += 7) {
      hits += store.Contains(pred, RowView(ids.data() + 2 * i, 2));
      const ValueId miss[2] = {ids[2 * i + 1], ids[2 * i]};
      hits += store.Contains(pred, RowView(miss, 2));
      checks += 2;
    }
    allocations +=
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<int64_t>(checks));
  state.counters["allocs_per_contains"] =
      checks ? static_cast<double>(allocations) / static_cast<double>(checks)
             : 0;
}
BENCHMARK(BM_FactStoreContains)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// True when one heap allocation raises g_allocations: the counter is
/// live, so a zero allocation counter means no allocation.
bool AllocationCounterCounts() {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  int* probe = new int(0);
  benchmark::DoNotOptimize(probe);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  delete probe;
  return after > before;
}

}  // namespace

#include "bench_report.h"

int main(int argc, char** argv) {
  if (!AllocationCounterCounts()) {
    std::fprintf(stderr,
                 "FAIL: a heap allocation did not raise the allocation "
                 "counter; the replaced operator new is not linked\n");
    return 1;
  }
  return limcap::benchreport::GBenchMainWithReport("bench_fact_store", argc,
                                                   argv);
}
