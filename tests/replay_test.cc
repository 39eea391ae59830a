// Capture/replay round-trip property: record a live run's source
// traffic with replay::TraceRecorder, serialize it through the `.lcap`
// artifact codec, rebuild the catalog as ReplaySources, re-execute
// offline, and the replayed OrderedFingerprint must equal the recorded
// one bit-for-bit — with every source call served from the recording
// (zero live fetches by construction: the rebuilt catalog holds only
// ReplaySources), zero replay misses, and zero post-ingest
// translations. Exercised on all four paper examples and on seeded
// mixed/generated workloads, fault-free and fault-injected (retries,
// degraded partial answers), serial and concurrent dispatch.
//
// The golden test pins `limcap_explain --replay`'s rendered report for
// a captured Example 2.1 run. Regenerate with (one command line)
//   LIMCAP_REGEN_GOLDEN=1 build/tests/replay_test
//       --gtest_filter=ReplayGoldenTest.Example21RenderedReport

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "capability/catalog_fingerprint.h"
#include "capability/in_memory_source.h"
#include "exec/fingerprint.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "replay/replay.h"
#include "replay/replay_artifact.h"
#include "replay/trace_recorder.h"
#include "runtime/fault_injection.h"
#include "workload/generator.h"

#ifndef LIMCAP_GOLDEN_DIR
#error "LIMCAP_GOLDEN_DIR must be defined by the build"
#endif

namespace limcap::replay {
namespace {

using capability::InMemorySource;
using capability::SourceCatalog;
using capability::SourceView;
using capability::StableHash64;
using runtime::FaultInjectingSource;
using runtime::FaultSpec;

/// One live run, recorded and serialized. Returns the artifact bytes;
/// the live report comes back through `live` for side-by-side asserts.
Result<std::string> RecordRun(const SourceCatalog& catalog,
                              const planner::DomainMap& domains,
                              const planner::Query& query,
                              exec::ExecOptions options,
                              exec::AnswerReport* live) {
  TraceRecorder recorder;
  options.runtime.recorder = &recorder;
  ReplayManifest manifest =
      MakeReplayManifest(query, catalog, domains, options);
  exec::QueryAnswerer answerer(&catalog, domains);
  LIMCAP_ASSIGN_OR_RETURN(exec::AnswerReport report,
                          answerer.Answer(query, options));
  StampExecution(report.exec, &manifest);
  if (live != nullptr) *live = std::move(report);
  return recorder.EncodeArtifactBytes(std::move(manifest));
}

/// The full property: record, serialize, decode, replay, and assert
/// bit-identity plus the zero-live-calls / zero-miss / zero-translation
/// invariants.
void ExpectRoundTrip(const SourceCatalog& catalog,
                     const planner::DomainMap& domains,
                     const planner::Query& query,
                     exec::ExecOptions options = {}) {
  exec::AnswerReport live;
  Result<std::string> bytes =
      RecordRun(catalog, domains, query, options, &live);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  EXPECT_EQ(artifact->manifest.recorded_fingerprint,
            StableHash64(exec::OrderedFingerprint(live.exec)));

  Result<ReplayRunReport> replayed = ReplayArtifactData(*artifact);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed->fingerprint_match)
      << "recorded " << artifact->manifest.recorded_fingerprint
      << " != replayed " << replayed->replayed_fingerprint << "\n"
      << replayed->rendered;
  EXPECT_EQ(replayed->replay_misses, 0u);
  EXPECT_EQ(replayed->answer.exec.post_ingest_translations, 0u);
  // Every source in the rebuilt catalog is a ReplaySource, so each of
  // the replayed run's fetches was served from the recording — zero
  // live source calls, by construction and by count.
  EXPECT_EQ(replayed->replay_calls,
            static_cast<std::size_t>(
                replayed->answer.exec.fetch_report.total_attempts));
  // The replay reproduces the degraded/complete shape, not just the
  // final rows.
  EXPECT_EQ(replayed->answer.exec.fetch_report.degraded(),
            live.exec.fetch_report.degraded());
  EXPECT_EQ(replayed->answer.exec.rounds, live.exec.rounds);
}

// ---------------------------------------------------------------------------
// Paper examples
// ---------------------------------------------------------------------------

void ExpectPaperRoundTrip(paperdata::PaperExample example) {
  ExpectRoundTrip(example.catalog, example.domains, example.query);
}

TEST(ReplayRoundTripTest, PaperExample21) {
  ExpectPaperRoundTrip(paperdata::MakeExample21());
}
TEST(ReplayRoundTripTest, PaperExample41) {
  ExpectPaperRoundTrip(paperdata::MakeExample41());
}
TEST(ReplayRoundTripTest, PaperExample51) {
  ExpectPaperRoundTrip(paperdata::MakeExample51());
}
TEST(ReplayRoundTripTest, PaperExample52) {
  ExpectPaperRoundTrip(paperdata::MakeExample52());
}

// ---------------------------------------------------------------------------
// Seeded mixed workload — the serve daemon's scenario
// ---------------------------------------------------------------------------

TEST(ReplayRoundTripTest, MixedWorkloadTwelveSeededQueries) {
  workload::MixedWorkloadSpec spec;
  spec.seed = 7;
  spec.num_requests = 12;
  Result<workload::MixedWorkload> workload =
      workload::GenerateMixedWorkload(spec);
  ASSERT_TRUE(workload.ok()) << workload.status();
  for (const workload::MixedRequest& request : workload->requests) {
    SCOPED_TRACE(request.query.ToString());
    ExpectRoundTrip(workload->catalog, workload->domains, request.query);
  }
}

// ---------------------------------------------------------------------------
// Fault-injected runs: retries, timeouts, and degraded answers
// ---------------------------------------------------------------------------

/// Rebuilds `instance`'s catalog with every source wrapped in a
/// FaultInjectingSource configured by `spec`.
SourceCatalog WrapAll(const workload::GeneratedInstance& instance,
                      const FaultSpec& spec) {
  SourceCatalog catalog;
  for (const SourceView& view : instance.views) {
    auto inner = std::make_unique<InMemorySource>(InMemorySource::MakeUnsafe(
        view, instance.full_data.at(view.name())));
    catalog.RegisterUnsafe(
        std::make_unique<FaultInjectingSource>(std::move(inner), spec));
  }
  return catalog;
}

workload::GeneratedInstance ChainInstance(uint64_t seed) {
  workload::CatalogSpec spec;
  spec.topology = workload::CatalogSpec::Topology::kChain;
  spec.seed = seed;
  spec.num_views = 6;
  spec.tuples_per_view = 25;
  spec.domain_size = 10;
  return workload::GenerateInstance(spec);
}

Result<planner::Query> SourceExercisingQuery(
    const workload::GeneratedInstance& instance) {
  exec::QueryAnswerer probe(&instance.catalog, instance.domains);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    workload::QuerySpec query_spec;
    query_spec.seed = seed;
    auto candidate = workload::GenerateQuery(instance, query_spec);
    if (!candidate.ok()) continue;
    auto run = probe.Answer(*candidate);
    if (!run.ok() || run->exec.log.total_queries() == 0) continue;
    return candidate;
  }
  return Status::NotFound("no source-exercising query found");
}

TEST(ReplayRoundTripTest, FailThenRecoverWithRetriesReplays) {
  workload::GeneratedInstance instance = ChainInstance(11);
  Result<planner::Query> query = SourceExercisingQuery(instance);
  ASSERT_TRUE(query.ok()) << query.status();

  FaultSpec faults;
  faults.fail_first_per_query = 2;
  SourceCatalog flaky = WrapAll(instance, faults);

  exec::ExecOptions options;
  options.continue_on_source_error = true;
  options.runtime.retry.max_attempts = 3;
  ExpectRoundTrip(flaky, instance.domains, *query, options);
}

TEST(ReplayRoundTripTest, PermanentFaultsYieldDegradedReplayedAnswer) {
  workload::GeneratedInstance instance = ChainInstance(13);
  Result<planner::Query> query = SourceExercisingQuery(instance);
  ASSERT_TRUE(query.ok()) << query.status();

  // Every call fails, forever: the live run degrades; the replay must
  // re-raise every recorded fault and degrade identically.
  FaultSpec faults;
  faults.fail_first_calls = 1u << 20;
  SourceCatalog dead = WrapAll(instance, faults);

  exec::ExecOptions options;
  options.continue_on_source_error = true;

  exec::AnswerReport live;
  Result<std::string> bytes =
      RecordRun(dead, instance.domains, *query, options, &live);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_TRUE(live.exec.fetch_report.degraded());

  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  EXPECT_TRUE(artifact->manifest.degraded);
  Result<ReplayRunReport> replayed = ReplayArtifactData(*artifact);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed->fingerprint_match) << replayed->rendered;
  EXPECT_EQ(replayed->replay_misses, 0u);
  EXPECT_GT(replayed->replayed_faults, 0u);
  EXPECT_TRUE(replayed->answer.exec.fetch_report.degraded());
}

TEST(ReplayRoundTripTest, ConcurrentDispatchReplays) {
  workload::GeneratedInstance instance = ChainInstance(17);
  Result<planner::Query> query = SourceExercisingQuery(instance);
  ASSERT_TRUE(query.ok()) << query.status();

  FaultSpec faults;
  faults.fail_first_per_query = 1;
  faults.latency_spike_rate = 0.3;
  faults.latency_spike_ms = 40;
  faults.seed = 5;
  SourceCatalog flaky = WrapAll(instance, faults);

  exec::ExecOptions options;
  options.continue_on_source_error = true;
  options.runtime.concurrent = true;
  options.runtime.max_in_flight = 4;
  options.runtime.retry.max_attempts = 2;
  ExpectRoundTrip(flaky, instance.domains, *query, options);
}

// ---------------------------------------------------------------------------
// Miss semantics: a divergence is a finding, not a fallback
// ---------------------------------------------------------------------------

TEST(ReplayRoundTripTest, MissingRecordedCallFailsLoudly) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  exec::AnswerReport live;
  Result<std::string> bytes = RecordRun(example.catalog, example.domains,
                                        example.query, {}, &live);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  ASSERT_FALSE(artifact->calls.empty());

  // Drop the recorded traffic: the replayed planner's first source
  // query has no recorded answer. The replay must fail with the miss
  // diagnostic, not serve an empty answer.
  artifact->calls.clear();
  Result<ReplayRunReport> replayed = ReplayArtifactData(*artifact);
  ASSERT_FALSE(replayed.ok());
  EXPECT_NE(replayed.status().message().find("replay miss"),
            std::string::npos)
      << replayed.status();
}

// ---------------------------------------------------------------------------
// Artifact codec
// ---------------------------------------------------------------------------

TEST(ReplayArtifactTest, ValueCodecIsExact) {
  const std::vector<Value> values = {
      Value(),
      Value::Int64(0),
      Value::Int64(-9223372036854775807LL - 1),
      Value::Int64(9223372036854775807LL),
      Value::Double(0.1),
      Value::Double(-1.5e-300),
      Value::Double(12345678901234567.0),
      Value::String(""),
      Value::String("plain"),
      Value::String("with \"quotes\" and\nnewline\tand \x1f unit sep"),
  };
  for (const Value& value : values) {
    Result<Value> round = ValueFromJson(ValueToJson(value));
    ASSERT_TRUE(round.ok()) << round.status();
    EXPECT_EQ(*round, value) << value.ToString();
  }
}

/// Lays `manifest` and `body` out the way EncodeArtifact does, so a test
/// can hand-edit either half and reach the decoders with it. The body's
/// line count and hash are whatever `manifest` says.
std::string Frame(const Json& manifest, const std::string& body) {
  const std::string text = manifest.Dump();
  std::string out = "LCAP";
  for (uint32_t word :
       {kReplayArtifactVersion, static_cast<uint32_t>(text.size())}) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>((word >> shift) & 0xff));
    }
  }
  return out + text + body;
}

/// The JSON number texts no recorded count or enum may hold: negative,
/// fractional, huge, and 2^64 (one past the largest uint64).
const std::vector<std::string>& BadNumbers() {
  static const std::vector<std::string> numbers = {
      "-1", "1.5", "1e300", "18446744073709551616"};
  return numbers;
}

/// `json` with the member at `path` (object keys, outermost first)
/// replaced by the number `text`.
Json WithNumber(Json json, const std::vector<std::string>& path,
                const std::string& text) {
  Json* node = &json;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    node = &node->object()[path[i]];
  }
  EXPECT_TRUE(node->Has(path.back())) << path.back();
  node->Set(path.back(), Json::Parse(text).value());
  return json;
}

TEST(ReplayArtifactTest, VerifyManifestDetectsCorruption) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  Result<std::string> bytes = RecordRun(example.catalog, example.domains,
                                        example.query, {}, nullptr);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_TRUE(VerifyManifest(*bytes).ok());

  // Bad magic.
  std::string bad_magic = *bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(VerifyManifest(bad_magic).ok());

  // Unknown version.
  std::string bad_version = *bytes;
  bad_version[7] = static_cast<char>(99);
  EXPECT_FALSE(VerifyManifest(bad_version).ok());

  // A flipped byte in the body breaks the body hash.
  std::string bad_body = *bytes;
  bad_body[bad_body.size() - 2] ^= 0x20;
  EXPECT_FALSE(VerifyManifest(bad_body).ok());

  // Truncation loses body lines.
  const std::string truncated = bytes->substr(0, bytes->size() - 10);
  EXPECT_FALSE(VerifyManifest(truncated).ok());

  // Garbage is rejected before any parse.
  EXPECT_FALSE(VerifyManifest("not an artifact").ok());
  EXPECT_FALSE(VerifyManifest("").ok());

  // Every recorded count and enum is read with checks: a number no cast
  // to its integer type keeps defined is InvalidArgument naming the field.
  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  const Json manifest = ManifestToJson(artifact->manifest);
  std::string body;
  for (const auto& call : artifact->calls) {
    body += FetchToJson(call).Dump() + "\n";
  }
  ASSERT_EQ(Frame(manifest, body), *bytes);
  const std::vector<std::vector<std::string>> fields = {
      {"version"},
      {"answer_rows"},
      {"source_queries"},
      {"rounds"},
      {"body_lines"},
      {"options", "max_rule_body_atoms"},
      {"options", "static_analysis"},
      {"options", "mode"},
      {"options", "strategy"},
      {"options", "max_source_queries"},
      {"options", "min_answers"},
      {"options", "runtime", "max_in_flight"},
      {"options", "runtime", "per_source_max_in_flight"},
      {"options", "runtime", "retry", "attempts"},
      {"options", "runtime", "retry", "breaker_threshold"},
  };
  // Enum values outside their enumerators, and thread counts above the
  // replay's cap, are rejected too.
  std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"options", "static_analysis"}, "4"},
      {{"options", "mode"}, "2"},
      {{"options", "strategy"}, "2"},
      {{"options", "runtime", "max_in_flight"}, "1025"},
  };
  for (const std::vector<std::string>& path : fields) {
    for (const std::string& number : BadNumbers()) {
      cases.emplace_back(path, number);
    }
  }
  for (const auto& [path, number] : cases) {
    Result<ReplayManifest> verified =
        VerifyManifest(Frame(WithNumber(manifest, path, number), body));
    ASSERT_FALSE(verified.ok()) << path.back() << " = " << number;
    EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(verified.status().message().find(path.back() + " must be"),
              std::string::npos)
        << verified.status().message();
  }
  // The cap itself and 0 (automatic) pass.
  const std::vector<std::string> max_in_flight = {"options", "runtime",
                                                  "max_in_flight"};
  for (const char* number : {"0", "1024"}) {
    EXPECT_TRUE(
        VerifyManifest(Frame(WithNumber(manifest, max_in_flight, number), body))
            .ok())
        << "max_in_flight = " << number;
  }
}

TEST(ReplayArtifactTest, DecodeRejectsBadBodyNumbers) {
  // The body's numbers — a value's kind `k`, a failed attempt's status
  // `code` and a call's positions — are read with the same checks.
  paperdata::PaperExample example = paperdata::MakeExample21();
  Result<std::string> bytes = RecordRun(example.catalog, example.domains,
                                        example.query, {}, nullptr);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  ASSERT_FALSE(artifact->calls.empty());
  ASSERT_FALSE(artifact->calls[0].values.empty());
  const Json call = FetchToJson(artifact->calls[0]);

  // A one-call artifact whose body is `line`, restamped to match.
  auto decode = [&](const Json& line) {
    const std::string body = line.Dump() + "\n";
    ReplayManifest manifest = artifact->manifest;
    manifest.body_lines = 1;
    manifest.body_hash = StableHash64(body);
    return DecodeArtifact(Frame(ManifestToJson(manifest), body));
  };
  ASSERT_TRUE(decode(call).ok());

  auto with_kind = [&](const std::string& number) {
    Json line = call;
    line.object()["v"].array()[0].Set("k", Json::Parse(number).value());
    return line;
  };
  auto with_code = [&](const std::string& number) {
    Json failed = Json::MakeObject();
    failed.Set("lat", call.Get("a").array()[0].Get("lat"));
    failed.Set("code", Json::Parse(number).value());
    failed.Set("msg", "refused");
    Json line = call;
    line.Set("a", Json::Array{failed});
    return line;
  };
  auto with_position = [&](const std::string& number) {
    Json line = call;
    line.object()["p"].array()[0] = Json::Parse(number).value();
    return line;
  };
  ASSERT_TRUE(decode(with_code("9")).ok());  // kUnavailable
  for (const std::string& number : BadNumbers()) {
    for (const auto& [field, line] :
         {std::pair<std::string, Json>{"k", with_kind(number)},
          std::pair<std::string, Json>{"code", with_code(number)},
          std::pair<std::string, Json>{"position", with_position(number)}}) {
      Result<ReplayArtifact> decoded = decode(line);
      ASSERT_FALSE(decoded.ok()) << field << " = " << number;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(decoded.status().message().find(field + " must be"),
                std::string::npos)
          << decoded.status().message();
    }
  }
  // Enumerators end at kString and kProtocolError.
  EXPECT_FALSE(decode(with_kind("4")).ok());
  EXPECT_FALSE(decode(with_code("13")).ok());
}

TEST(ReplayArtifactTest, FileRoundTrip) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  TraceRecorder recorder;
  exec::ExecOptions options;
  options.runtime.recorder = &recorder;
  ReplayManifest manifest = MakeReplayManifest(
      example.query, example.catalog, example.domains, options);
  exec::QueryAnswerer answerer(&example.catalog, example.domains);
  Result<exec::AnswerReport> live = answerer.Answer(example.query, options);
  ASSERT_TRUE(live.ok()) << live.status();
  StampExecution(live->exec, &manifest);

  const std::string path =
      testing::TempDir() + "/replay_file_round_trip.lcap";
  ASSERT_TRUE(recorder.WriteArtifact(path, manifest).ok());
  Result<ReplayRunReport> replayed = ReplayFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed->fingerprint_match);
  EXPECT_EQ(replayed->replay_misses, 0u);
  std::remove(path.c_str());
}

TEST(ReplayArtifactTest, CatalogFingerprintMismatchIsRejected) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  Result<std::string> bytes = RecordRun(example.catalog, example.domains,
                                        example.query, {}, nullptr);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  artifact->manifest.catalog_fingerprint ^= 1;
  Result<ReplayBundle> bundle = LoadBundle(*artifact);
  ASSERT_FALSE(bundle.ok());
  EXPECT_NE(bundle.status().message().find("inconsistent"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden: the --replay report
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Adaptive dispatch: recording an adaptive run captures only the
// dispatched calls, and the replay re-derives the same skips, hedges
// and ordering from the manifest's adaptive options.
// ---------------------------------------------------------------------------

TEST(ReplayRoundTripTest, AdaptiveDispatchReplays) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  exec::ExecOptions options;
  options.runtime.adaptive.enabled = true;
  ExpectRoundTrip(example.catalog, example.domains, example.query, options);
}

TEST(ReplayRoundTripTest, AdaptiveManifestWithoutTuningValuesReplays) {
  // The adaptive manifest holds only the four mechanism switches: the
  // dispatcher's tuning values are constants, and a manifest that carries
  // them (as older recordings do) has them ignored.
  paperdata::PaperExample example = paperdata::MakeExample21();
  exec::ExecOptions options;
  options.runtime.adaptive.enabled = true;
  Result<std::string> bytes = RecordRun(example.catalog, example.domains,
                                        example.query, options, nullptr);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  std::string body;
  for (const auto& call : artifact->calls) {
    body += FetchToJson(call).Dump() + "\n";
  }
  Json manifest = ManifestToJson(artifact->manifest);
  Json& adaptive =
      manifest.object()["options"].object()["runtime"].object()["adaptive"];
  Json switches = Json::MakeObject();
  for (const char* key :
       {"enabled", "dynamic_pruning", "reorder", "batch", "hedge"}) {
    switches.Set(key, adaptive.Get(key));
  }
  adaptive = std::move(switches);

  Result<ReplayArtifact> stripped = DecodeArtifact(Frame(manifest, body));
  ASSERT_TRUE(stripped.ok()) << stripped.status();
  EXPECT_TRUE(stripped->manifest.options.runtime.adaptive.enabled);
  Result<ReplayRunReport> replayed = ReplayArtifactData(*stripped);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed->fingerprint_match) << replayed->rendered;
  EXPECT_EQ(replayed->replay_misses, 0u);
}

TEST(ReplayRoundTripTest, AdaptiveFaultInjectedRunReplays) {
  workload::GeneratedInstance instance = ChainInstance(11);
  Result<planner::Query> query = SourceExercisingQuery(instance);
  ASSERT_TRUE(query.ok()) << query.status();

  FaultSpec faults;
  faults.fail_first_per_query = 1;
  SourceCatalog flaky = WrapAll(instance, faults);

  exec::ExecOptions options;
  options.continue_on_source_error = true;
  options.runtime.retry.max_attempts = 3;
  options.runtime.adaptive.enabled = true;
  ExpectRoundTrip(flaky, instance.domains, *query, options);
}

// ---------------------------------------------------------------------------
// Committed-corpus regression gate: small `.lcap` artifacts checked in
// under tests/corpus/. Each must (a) still replay bit-identically with
// today's code, and (b) match a fresh live recording of the same
// scenario — so any behavior drift in planning, scheduling or adaptive
// dispatch fails here before it ships. Regenerate intentionally with
// (one command line)
//   LIMCAP_REGEN_GOLDEN=1 build/tests/replay_test
//       --gtest_filter='ReplayCorpusTest.*'
// ---------------------------------------------------------------------------

#ifndef LIMCAP_CORPUS_DIR
#error "LIMCAP_CORPUS_DIR must be defined by the build"
#endif

void ExpectCorpusGate(const std::string& file,
                      const std::function<Result<std::string>()>& record) {
  const std::string path = std::string(LIMCAP_CORPUS_DIR) + "/" + file;
  if (std::getenv("LIMCAP_REGEN_GOLDEN") != nullptr) {
    Result<std::string> bytes = record();
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << *bytes;
    GTEST_SKIP() << "regenerated " << path;
  }
  // The committed artifact still replays faithfully...
  Result<ReplayRunReport> replayed = ReplayFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed->fingerprint_match) << replayed->rendered;
  EXPECT_EQ(replayed->replay_misses, 0u);
  // ...and today's code still produces that exact run live.
  Result<std::string> bytes = record();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<ReplayArtifact> live = DecodeArtifact(*bytes);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live->manifest.recorded_fingerprint,
            replayed->bundle.manifest.recorded_fingerprint)
      << file << ": live execution diverged from the committed corpus; "
      << "regenerate with LIMCAP_REGEN_GOLDEN=1 if the change is intended";
}

TEST(ReplayCorpusTest, Example21Serial) {
  ExpectCorpusGate("example21.lcap", [] {
    paperdata::PaperExample example = paperdata::MakeExample21();
    return RecordRun(example.catalog, example.domains, example.query, {},
                     nullptr);
  });
}

TEST(ReplayCorpusTest, Example41ConcurrentFetch) {
  ExpectCorpusGate("example41_concurrent.lcap", [] {
    paperdata::PaperExample example = paperdata::MakeExample41();
    exec::ExecOptions options;
    options.runtime.concurrent = true;
    options.runtime.max_in_flight = 8;
    options.runtime.per_source_max_in_flight = 8;
    return RecordRun(example.catalog, example.domains, example.query,
                     options, nullptr);
  });
}

TEST(ReplayCorpusTest, Example21Degraded) {
  ExpectCorpusGate("example21_degraded.lcap", [] {
    paperdata::PaperExample example = paperdata::MakeExample21();
    SourceCatalog flaky;
    for (const SourceView& view : example.views) {
      auto* source = dynamic_cast<InMemorySource*>(
          example.catalog.Find(view.name()).value());
      auto copy = std::make_unique<InMemorySource>(
          InMemorySource::MakeUnsafe(view, source->data()));
      if (view.name() == "v4") {
        FaultSpec spec;
        spec.fail_first_calls = 1u << 20;  // v4 down for the whole run
        flaky.RegisterUnsafe(std::make_unique<FaultInjectingSource>(
            std::move(copy), spec));
      } else {
        flaky.RegisterUnsafe(std::move(copy));
      }
    }
    exec::ExecOptions options;
    options.continue_on_source_error = true;
    return RecordRun(flaky, example.domains, example.query, options,
                     nullptr);
  });
}

TEST(ReplayCorpusTest, Example21Adaptive) {
  ExpectCorpusGate("example21_adaptive.lcap", [] {
    paperdata::PaperExample example = paperdata::MakeExample21();
    exec::ExecOptions options;
    options.runtime.adaptive.enabled = true;
    return RecordRun(example.catalog, example.domains, example.query,
                     options, nullptr);
  });
}

TEST(ReplayGoldenTest, Example21RenderedReport) {
  paperdata::PaperExample example = paperdata::MakeExample21();
  Result<std::string> bytes = RecordRun(example.catalog, example.domains,
                                        example.query, {}, nullptr);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<ReplayArtifact> artifact = DecodeArtifact(*bytes);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  Result<ReplayRunReport> replayed = ReplayArtifactData(*artifact);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_TRUE(replayed->fingerprint_match);

  const std::string golden_path =
      std::string(LIMCAP_GOLDEN_DIR) + "/replay_example21.out";
  if (std::getenv("LIMCAP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    out << replayed->rendered;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "cannot read " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(replayed->rendered, golden.str())
      << "regenerate with LIMCAP_REGEN_GOLDEN=1 (see file header)";
}

}  // namespace
}  // namespace limcap::replay
