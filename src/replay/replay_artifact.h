#ifndef LIMCAP_REPLAY_REPLAY_ARTIFACT_H_
#define LIMCAP_REPLAY_REPLAY_ARTIFACT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "exec/source_driven_evaluator.h"
#include "runtime/fetch_recorder.h"

namespace limcap::replay {

/// The `.lcap` capture artifact: a versioned binary header
///
///   "LCAP" · version (4 bytes, big-endian) · manifest length (4 bytes,
///   big-endian) · canonical manifest JSON
///
/// followed by a JSON-lines body, one line per recorded source call in
/// dispatch (batch) order. The manifest carries everything needed to
/// rebuild the run's inputs — query text, catalog views, domains,
/// ExecOptions/RuntimeOptions, seeds — plus integrity fields (body line
/// count and hash) and the recorded OrderedFingerprint's hash, which the
/// replay asserts against. Values are recorded exactly: doubles travel
/// as hexfloat strings, 64-bit fingerprints/seeds as strings (JSON
/// numbers are doubles and would round them).
inline constexpr uint32_t kReplayArtifactVersion = 1;

/// Rebuildable description of one catalog view (capability surface only;
/// the extent lives behind the recorded calls).
struct ReplayViewSpec {
  std::string name;
  std::vector<std::string> attributes;
  /// Adornment strings, e.g. {"bff", "fbf"}.
  std::vector<std::string> templates;
};

/// The header's payload: inputs, provenance, integrity.
struct ReplayManifest {
  uint32_t version = kReplayArtifactVersion;
  /// planner::ParseQuery round-trip of the recorded query.
  std::string query_text;
  /// Catalog views in registration order (fixes rule order, and with it
  /// the execution order the replay must reproduce).
  std::vector<ReplayViewSpec> views;
  /// DomainMap overrides (attribute → domain predicate).
  std::map<std::string, std::string> domains;
  uint64_t catalog_fingerprint = 0;
  /// The recorded run's execution knobs. Only the serializable subset
  /// travels: builder options, static analysis mode, evaluator mode,
  /// strategy, budgets, error policy, and the full RuntimeOptions (minus
  /// the non-owning pointers). session_dict, plan_cache, governor,
  /// tracer, metrics and recorder stay null — the replay wires its own.
  exec::ExecOptions options;
  /// Provenance, not replay input: the workload seed and scenario the
  /// run came from (when it came from one), and the serve request tag.
  uint64_t workload_seed = 0;
  std::string scenario;
  std::string request_id;
  /// StableHash64 of the recorded run's OrderedFingerprint — the value
  /// the replay must reproduce bit-identically.
  uint64_t recorded_fingerprint = 0;
  /// Human-facing echo of what the run produced.
  uint64_t answer_rows = 0;
  uint64_t source_queries = 0;
  uint64_t rounds = 0;
  bool degraded = false;
  /// Body integrity, stamped by EncodeArtifact: line count and
  /// StableHash64 over the body bytes.
  uint64_t body_lines = 0;
  uint64_t body_hash = 0;
};

/// A fully decoded artifact.
struct ReplayArtifact {
  ReplayManifest manifest;
  /// Recorded source calls in dispatch order.
  std::vector<runtime::FetchRecorder::Fetch> calls;
};

/// Exact-round-trip Value codec: {"k": kind} plus a payload string —
/// int64 decimal, double hexfloat ("%a"), string verbatim.
Json ValueToJson(const Value& value);
Result<Value> ValueFromJson(const Json& json);

/// One body line: the call's source, canonical positions/values, the
/// cross-coalesced flag, and the attempt list.
Json FetchToJson(const runtime::FetchRecorder::Fetch& fetch);
Result<runtime::FetchRecorder::Fetch> FetchFromJson(const Json& json);

Json ManifestToJson(const ReplayManifest& manifest);
Result<ReplayManifest> ManifestFromJson(const Json& json);

/// Serializes header + manifest + body. Stamps `manifest.body_lines` /
/// `body_hash` (the copy inside the returned bytes — the argument is
/// taken by value).
std::string EncodeArtifact(ReplayManifest manifest,
                           const std::vector<runtime::FetchRecorder::Fetch>&
                               calls);

/// Parses and integrity-checks the header + manifest without decoding
/// the body rows: magic, version, manifest JSON, body line count and
/// hash. This is the cheap half of DecodeArtifact.
Result<ReplayManifest> VerifyManifest(std::string_view bytes);

/// Full decode: VerifyManifest, then every body line.
Result<ReplayArtifact> DecodeArtifact(std::string_view bytes);

Status WriteArtifactFile(const std::string& path,
                         const ReplayManifest& manifest,
                         const std::vector<runtime::FetchRecorder::Fetch>&
                             calls);
Result<ReplayArtifact> ReadArtifactFile(const std::string& path);

}  // namespace limcap::replay

#endif  // LIMCAP_REPLAY_REPLAY_ARTIFACT_H_
