// Self-tests of the benchmark itself:
//
//   * determinism — the same seed builds identical inputs (catalog
//     fingerprints, queries, request order) and identical solo answers
//     (query signatures, source-query counts, fingerprints); another seed
//     builds different inputs; every workload yields a non-empty pool in
//     which every query answers (no silent skips);
//   * the result line and host record are valid JSON: they parse back
//     with common/Json to the same document, control characters included.
//
// Exit 0 when every check passes. Run with `python3 perfbench/run.py
// --selftest` or `ctest` in the build directory.

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

/// Everything the workload hands the library, rendered.
std::string Rendered(const Workload& workload) {
  std::string text;
  for (const Universe& universe : workload.universes) {
    text += std::to_string(universe.catalog->fingerprint()) + ";" +
            universe.world->sources->ToString() + ";";
  }
  for (const PoolQuery& query : workload.pool) {
    text += query.query_class + ":" + query.expanded.ToString() + ";";
  }
  for (std::size_t index : workload.order) text += std::to_string(index) + ",";
  return text;
}

void CheckDeterminism(WorkloadKind kind) {
  const std::string name = WorkloadName(kind);
  const auto first_inputs = DrawInputs(kind, 7);
  const auto again_inputs = DrawInputs(kind, 7);
  const auto other_inputs = DrawInputs(kind, 8);
  if (!first_inputs.ok() || !again_inputs.ok() || !other_inputs.ok()) {
    Check(false, name + ": drawing inputs failed");
    return;
  }
  auto first = BuildWorkload(*first_inputs);
  auto again = BuildWorkload(*again_inputs);
  auto other = BuildWorkload(*other_inputs);
  if (!first.ok() || !again.ok() || !other.ok()) {
    Check(false, name + ": set-up failed");
    return;
  }
  Check(!first->pool.empty(), name + ": non-empty query pool");
  Check(Rendered(*first) == Rendered(*again),
        name + ": the same seed builds the same inputs");
  Check(Rendered(*first) != Rendered(*other),
        name + ": another seed builds other inputs");

  const limcap::Status solo = ComputeReferences(&*first, 2);
  const limcap::Status solo_again = ComputeReferences(&*again, 1);
  Check(solo.ok(), name + ": every pool query answers: " + solo.ToString());
  Check(solo_again.ok(), name + ": every pool query answers again");
  if (!solo.ok() || !solo_again.ok()) return;
  bool same = first->reference.size() == again->reference.size();
  for (std::size_t i = 0; same && i < first->reference.size(); ++i) {
    const Reference& a = first->reference[i];
    const Reference& b = again->reference[i];
    same = a.signature == b.signature && !a.signature.empty() &&
           a.source_queries == b.source_queries &&
           a.fingerprint == b.fingerprint;
  }
  Check(same, name + ": the same seed gives the same signatures, source "
                     "queries and answers");
}

void CheckJson() {
  const std::string awkward = std::string("tab\there \"quoted\" \\ nul") +
                              '\0' + "\x01\x1f\n\xc3\xa9 end";
  const limcap::Json result = ResultJson(
      true, 1234, 0,
      {{"answer_p50_ms", 1.2345678901234567, "ms"},
       {"setup_s", 0.000123456789, "s"},
       {awkward, -0.5, awkward}});
  auto parsed = limcap::Json::Parse(result.Dump());
  Check(parsed.ok(), "result line parses: " + parsed.status().ToString());
  if (parsed.ok()) {
    Check(*parsed == result, "result line round-trips");
    Check(parsed->GetBool("correct") && parsed->GetNumber("attempted") == 1234 &&
              parsed->GetNumber("failed") == 0,
          "result line keeps correct/attempted/failed");
    Check(parsed->Get("metrics").Get("answer_p50_ms").GetNumber("value") ==
              1.2345678901234567,
          "result line keeps every digit");
    Check(parsed->Get("metrics").Get(awkward).GetString("unit") == awkward,
          "control characters survive");
    Check(parsed->object().size() == 4, "result line has exactly four keys");
  }
  const limcap::Json host = HostJson(awkward);
  auto host_parsed = limcap::Json::Parse(host.Dump());
  Check(host_parsed.ok() && *host_parsed == host, "host record round-trips");
  const std::string line = host.Dump();
  bool raw_control = false;
  for (char c : line) raw_control |= static_cast<unsigned char>(c) < 0x20;
  Check(!raw_control, "no raw control character in the output");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CheckJson();
  for (perfbench::WorkloadKind kind : perfbench::kAllWorkloads) {
    perfbench::CheckDeterminism(kind);
  }
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
