#include <gtest/gtest.h>

#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "runtime/latency_model.h"

namespace limcap::exec {
namespace {

capability::AccessRecord Record(const char* source, std::size_t round) {
  capability::AccessRecord record;
  record.source = source;
  record.round = round;
  return record;
}

TEST(LatencyModelTest, Lookup) {
  runtime::LatencyModel model;
  model.default_latency_ms = 40;
  model.per_source_ms["slow"] = 500;
  EXPECT_DOUBLE_EQ(model.LatencyOf("slow"), 500);
  EXPECT_DOUBLE_EQ(model.LatencyOf("anything"), 40);
}

TEST(LatencyModelTest, HandComputedMakespans) {
  capability::AccessLog log;
  // Round 0: two queries to a, one to b. Round 1: one query to b.
  log.Record(Record("a", 0));
  log.Record(Record("a", 0));
  log.Record(Record("b", 0));
  log.Record(Record("b", 1));
  runtime::LatencyModel model;
  model.per_source_ms = {{"a", 100}, {"b", 30}};

  runtime::MakespanReport report = runtime::EstimateMakespan(log, model);
  EXPECT_DOUBLE_EQ(report.sequential_ms, 100 + 100 + 30 + 30);
  // Parallel: max(100, 30) + 30.
  EXPECT_DOUBLE_EQ(report.parallel_ms, 100 + 30);
  // Per-source serial: round 0 = max(2*100, 1*30); round 1 = 30.
  EXPECT_DOUBLE_EQ(report.per_source_serial_ms, 200 + 30);
  EXPECT_EQ(report.rounds, 2u);
  EXPECT_GT(report.ParallelSpeedup(), 1.0);
}

TEST(LatencyModelTest, EmptyLog) {
  runtime::MakespanReport report = runtime::EstimateMakespan(
      capability::AccessLog(), runtime::LatencyModel());
  EXPECT_DOUBLE_EQ(report.sequential_ms, 0);
  EXPECT_DOUBLE_EQ(report.ParallelSpeedup(), 1.0);
  EXPECT_EQ(report.rounds, 0u);
}

TEST(LatencyModelTest, Example21RoundsGiveRealSpeedup) {
  auto example = paperdata::MakeExample21();
  QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(example.query);
  ASSERT_TRUE(report.ok());

  runtime::MakespanReport makespan =
      runtime::EstimateMakespan(report->exec.log, runtime::LatencyModel());
  // 12 sequential queries at 50 ms each.
  EXPECT_DOUBLE_EQ(makespan.sequential_ms, 12 * 50.0);
  // Rounds exist and intra-round parallelism saves time.
  EXPECT_GT(makespan.rounds, 1u);
  EXPECT_LT(makespan.parallel_ms, makespan.sequential_ms);
  EXPECT_LE(makespan.parallel_ms, makespan.per_source_serial_ms);
  EXPECT_LE(makespan.per_source_serial_ms, makespan.sequential_ms);
}

}  // namespace
}  // namespace limcap::exec
