#include "replay/replay_artifact.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "capability/catalog_fingerprint.h"

namespace limcap::replay {

namespace {

using capability::FingerprintToString;
using capability::StableHash64;
using runtime::FetchRecorder;

// --- exact scalar codecs ---------------------------------------------------

/// Doubles travel as hexfloat: "%a" renders the exact binary value and
/// strtod parses it back bit-for-bit, which decimal shortest-round-trip
/// printing only promises when both ends round correctly.
std::string DoubleToHex(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

Result<double> DoubleFromHex(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty double payload");
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("bad double payload: " + text);
  }
  return value;
}

std::string U64ToString(uint64_t value) { return std::to_string(value); }

Result<uint64_t> U64FromString(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty uint64 payload");
  char* end = nullptr;
  uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("bad uint64 payload: " + text);
  }
  return value;
}

/// Fingerprints render "0x..." (the repo-wide convention) for human
/// greppability; parsed with base 16.
Result<uint64_t> FingerprintFromString(const std::string& text) {
  if (text.size() < 3 || text[0] != '0' || text[1] != 'x') {
    return Status::InvalidArgument("bad fingerprint: " + text);
  }
  char* end = nullptr;
  uint64_t value = std::strtoull(text.c_str() + 2, &end, 16);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("bad fingerprint: " + text);
  }
  return value;
}

// --- checked numbers -------------------------------------------------------

/// The largest thread count a replay accepts: it sizes the fetch
/// scheduler's pool from max_in_flight, so a crafted artifact must not be
/// able to demand more threads.
constexpr uint64_t kMaxReplayThreads = 1024;

/// Reads a recorded count: `fallback` when absent, InvalidArgument naming
/// `key` unless it is a whole number in [0, max]. Artifact numbers are
/// doubles, and casting a negative, NaN or out-of-range double to an
/// integer is undefined behaviour.
Result<uint64_t> GetCount(const Json& json, std::string_view key,
                          uint64_t fallback,
                          uint64_t max = std::numeric_limits<uint64_t>::max()) {
  LIMCAP_ASSIGN_OR_RETURN(const uint64_t value,
                          json.GetUnsigned(key, fallback));
  if (value > max) {
    return Status::InvalidArgument(std::string(key) + " must be at most " +
                                   std::to_string(max) + ", got " +
                                   std::to_string(value));
  }
  return value;
}

/// Reads a recorded enum: `fallback` when absent, InvalidArgument naming
/// `key` unless it is one of the enumerators up to `last`.
template <typename Enum>
Result<Enum> GetEnum(const Json& json, std::string_view key, Enum fallback,
                     Enum last) {
  LIMCAP_ASSIGN_OR_RETURN(const uint64_t value,
                          GetCount(json, key, static_cast<uint64_t>(fallback),
                                   static_cast<uint64_t>(last)));
  return static_cast<Enum>(value);
}

/// Budgets use SIZE_MAX as "unlimited"; the artifact stores 0 for it (a
/// zero budget is meaningless, and JSON numbers cannot hold SIZE_MAX).
uint64_t BudgetToJson(std::size_t budget) {
  return budget == std::numeric_limits<std::size_t>::max() ? 0 : budget;
}

std::size_t BudgetFromJson(uint64_t value) {
  return value == 0 ? std::numeric_limits<std::size_t>::max()
                    : static_cast<std::size_t>(value);
}

/// Deadlines use +inf as "none"; stored as 0 (JSON has no infinities).
double DeadlineToJson(double deadline_ms) {
  return deadline_ms == std::numeric_limits<double>::infinity() ? 0
                                                                : deadline_ms;
}

double DeadlineFromJson(double value) {
  return value == 0 ? std::numeric_limits<double>::infinity() : value;
}

// --- retry policy / runtime options ----------------------------------------

Json RetryPolicyToJson(const runtime::RetryPolicy& policy) {
  Json json = Json::MakeObject();
  json.Set("attempts", static_cast<uint64_t>(policy.max_attempts));
  json.Set("backoff_base", DoubleToHex(policy.backoff_base_ms));
  json.Set("backoff_max", DoubleToHex(policy.backoff_max_ms));
  json.Set("jitter", DoubleToHex(policy.jitter));
  json.Set("deadline", DoubleToHex(DeadlineToJson(policy.deadline_ms)));
  json.Set("breaker_threshold",
           static_cast<uint64_t>(policy.breaker.failure_threshold));
  json.Set("breaker_cooldown", DoubleToHex(policy.breaker.cooldown_ms));
  return json;
}

Result<runtime::RetryPolicy> RetryPolicyFromJson(const Json& json) {
  runtime::RetryPolicy policy;
  LIMCAP_ASSIGN_OR_RETURN(policy.max_attempts, GetCount(json, "attempts", 1));
  LIMCAP_ASSIGN_OR_RETURN(policy.backoff_base_ms,
                          DoubleFromHex(json.GetString("backoff_base")));
  LIMCAP_ASSIGN_OR_RETURN(policy.backoff_max_ms,
                          DoubleFromHex(json.GetString("backoff_max")));
  LIMCAP_ASSIGN_OR_RETURN(policy.jitter,
                          DoubleFromHex(json.GetString("jitter")));
  LIMCAP_ASSIGN_OR_RETURN(double deadline,
                          DoubleFromHex(json.GetString("deadline")));
  policy.deadline_ms = DeadlineFromJson(deadline);
  LIMCAP_ASSIGN_OR_RETURN(policy.breaker.failure_threshold,
                          GetCount(json, "breaker_threshold", 0));
  LIMCAP_ASSIGN_OR_RETURN(policy.breaker.cooldown_ms,
                          DoubleFromHex(json.GetString("breaker_cooldown")));
  return policy;
}

Json RuntimeOptionsToJson(const runtime::RuntimeOptions& runtime) {
  Json json = Json::MakeObject();
  json.Set("concurrent", runtime.concurrent);
  json.Set("max_in_flight", static_cast<uint64_t>(runtime.max_in_flight));
  json.Set("per_source_max_in_flight",
           static_cast<uint64_t>(runtime.per_source_max_in_flight));
  json.Set("coalesce", runtime.coalesce);
  json.Set("seed", U64ToString(runtime.seed));
  json.Set("retry", RetryPolicyToJson(runtime.retry));
  Json per_source = Json::MakeObject();
  for (const auto& [name, policy] : runtime.per_source) {
    per_source.Set(name, RetryPolicyToJson(policy));
  }
  json.Set("per_source", std::move(per_source));
  Json latency = Json::MakeObject();
  latency.Set("default", DoubleToHex(runtime.latency.default_latency_ms));
  Json per_source_ms = Json::MakeObject();
  for (const auto& [name, ms] : runtime.latency.per_source_ms) {
    per_source_ms.Set(name, DoubleToHex(ms));
  }
  latency.Set("per_source", std::move(per_source_ms));
  json.Set("latency", std::move(latency));
  if (runtime.adaptive.enabled) {
    // Written only when on, so pre-adaptive artifacts stay byte-stable.
    Json adaptive = Json::MakeObject();
    adaptive.Set("enabled", true);
    adaptive.Set("dynamic_pruning", runtime.adaptive.dynamic_pruning);
    adaptive.Set("reorder", runtime.adaptive.reorder);
    adaptive.Set("batch", runtime.adaptive.batch);
    adaptive.Set("hedge", runtime.adaptive.hedge);
    json.Set("adaptive", std::move(adaptive));
  }
  return json;
}

Result<runtime::RuntimeOptions> RuntimeOptionsFromJson(const Json& json) {
  runtime::RuntimeOptions runtime;
  runtime.concurrent = json.GetBool("concurrent");
  LIMCAP_ASSIGN_OR_RETURN(
      runtime.max_in_flight,
      GetCount(json, "max_in_flight", 16, kMaxReplayThreads));
  LIMCAP_ASSIGN_OR_RETURN(runtime.per_source_max_in_flight,
                          GetCount(json, "per_source_max_in_flight", 4));
  runtime.coalesce = json.GetBool("coalesce", true);
  LIMCAP_ASSIGN_OR_RETURN(runtime.seed,
                          U64FromString(json.GetString("seed", "0")));
  LIMCAP_ASSIGN_OR_RETURN(runtime.retry,
                          RetryPolicyFromJson(json.Get("retry")));
  if (json.Get("per_source").is_object()) {
    for (const auto& [name, policy_json] : json.Get("per_source").object()) {
      LIMCAP_ASSIGN_OR_RETURN(runtime.per_source[name],
                              RetryPolicyFromJson(policy_json));
    }
  }
  const Json& latency = json.Get("latency");
  LIMCAP_ASSIGN_OR_RETURN(runtime.latency.default_latency_ms,
                          DoubleFromHex(latency.GetString("default")));
  if (latency.Get("per_source").is_object()) {
    for (const auto& [name, ms_json] : latency.Get("per_source").object()) {
      LIMCAP_ASSIGN_OR_RETURN(runtime.latency.per_source_ms[name],
                              DoubleFromHex(ms_json.AsString()));
    }
  }
  if (json.Get("adaptive").is_object()) {
    const Json& adaptive = json.Get("adaptive");
    runtime.adaptive.enabled = adaptive.GetBool("enabled");
    runtime.adaptive.dynamic_pruning =
        adaptive.GetBool("dynamic_pruning", true);
    runtime.adaptive.reorder = adaptive.GetBool("reorder", true);
    runtime.adaptive.batch = adaptive.GetBool("batch", true);
    runtime.adaptive.hedge = adaptive.GetBool("hedge", true);
  }
  return runtime;
}

Json ExecOptionsToJson(const exec::ExecOptions& options) {
  Json json = Json::MakeObject();
  json.Set("goal", options.builder.goal_predicate);
  json.Set("alpha_suffix", options.builder.alpha_suffix);
  json.Set("per_connection_goals", options.builder.per_connection_goals);
  json.Set("max_rule_body_atoms",
           static_cast<uint64_t>(options.builder.max_rule_body_atoms));
  json.Set("static_analysis", static_cast<int>(options.static_analysis));
  json.Set("mode", static_cast<int>(options.mode));
  json.Set("strategy", static_cast<int>(options.strategy));
  json.Set("max_source_queries", BudgetToJson(options.max_source_queries));
  json.Set("min_answers", BudgetToJson(options.min_answers));
  json.Set("continue_on_source_error", options.continue_on_source_error);
  json.Set("runtime", RuntimeOptionsToJson(options.runtime));
  return json;
}

Result<exec::ExecOptions> ExecOptionsFromJson(const Json& json) {
  exec::ExecOptions options;
  options.builder.goal_predicate = json.GetString("goal", "ans");
  options.builder.alpha_suffix = json.GetString("alpha_suffix", "^");
  options.builder.per_connection_goals =
      json.GetBool("per_connection_goals");
  LIMCAP_ASSIGN_OR_RETURN(options.builder.max_rule_body_atoms,
                          GetCount(json, "max_rule_body_atoms", 3));
  LIMCAP_ASSIGN_OR_RETURN(
      options.static_analysis,
      GetEnum(json, "static_analysis", exec::StaticAnalysisMode::kOff,
              exec::StaticAnalysisMode::kPrune));
  LIMCAP_ASSIGN_OR_RETURN(
      options.mode,
      GetEnum(json, "mode", datalog::Evaluator::Mode::kSemiNaive,
              datalog::Evaluator::Mode::kSemiNaive));
  LIMCAP_ASSIGN_OR_RETURN(
      options.strategy,
      GetEnum(json, "strategy", exec::FetchStrategy::kRoundBased,
              exec::FetchStrategy::kEager));
  LIMCAP_ASSIGN_OR_RETURN(const uint64_t max_source_queries,
                          GetCount(json, "max_source_queries", 0));
  options.max_source_queries = BudgetFromJson(max_source_queries);
  LIMCAP_ASSIGN_OR_RETURN(const uint64_t min_answers,
                          GetCount(json, "min_answers", 0));
  options.min_answers = BudgetFromJson(min_answers);
  options.continue_on_source_error =
      json.GetBool("continue_on_source_error");
  LIMCAP_ASSIGN_OR_RETURN(options.runtime,
                          RuntimeOptionsFromJson(json.Get("runtime")));
  return options;
}

// --- attempts --------------------------------------------------------------

Json AttemptToJson(const FetchRecorder::Attempt& attempt) {
  Json json = Json::MakeObject();
  json.Set("lat", DoubleToHex(attempt.added_latency_ms));
  if (attempt.discarded) {
    json.Set("to", true);
    return json;
  }
  if (attempt.ok) {
    json.Set("ok", true);
    Json rows = Json::MakeArray();
    for (const relational::Row& row : attempt.rows) {
      Json row_json = Json::MakeArray();
      for (const Value& value : row) row_json.Append(ValueToJson(value));
      rows.Append(std::move(row_json));
    }
    json.Set("rows", std::move(rows));
    return json;
  }
  json.Set("code", static_cast<int>(attempt.code));
  json.Set("msg", attempt.message);
  return json;
}

Result<FetchRecorder::Attempt> AttemptFromJson(const Json& json) {
  FetchRecorder::Attempt attempt;
  LIMCAP_ASSIGN_OR_RETURN(attempt.added_latency_ms,
                          DoubleFromHex(json.GetString("lat")));
  if (json.GetBool("to")) {
    attempt.discarded = true;
    return attempt;
  }
  if (json.GetBool("ok")) {
    attempt.ok = true;
    const Json& rows = json.Get("rows");
    if (!rows.is_array()) {
      return Status::InvalidArgument("ok attempt without rows");
    }
    for (const Json& row_json : rows.array()) {
      if (!row_json.is_array()) {
        return Status::InvalidArgument("row is not an array");
      }
      relational::Row row;
      row.reserve(row_json.array().size());
      for (const Json& value_json : row_json.array()) {
        LIMCAP_ASSIGN_OR_RETURN(Value value, ValueFromJson(value_json));
        row.push_back(std::move(value));
      }
      attempt.rows.push_back(std::move(row));
    }
    return attempt;
  }
  LIMCAP_ASSIGN_OR_RETURN(attempt.code,
                          GetEnum(json, "code", StatusCode::kOk,
                                  StatusCode::kProtocolError));
  attempt.message = json.GetString("msg");
  return attempt;
}

// --- header ----------------------------------------------------------------

constexpr char kMagic[4] = {'L', 'C', 'A', 'P'};
constexpr std::size_t kHeaderSize = 12;  // magic + version + manifest length

void PutU32(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>((value >> 24) & 0xff));
  out->push_back(static_cast<char>((value >> 16) & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
  out->push_back(static_cast<char>(value & 0xff));
}

uint32_t GetU32(std::string_view bytes, std::size_t offset) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset]))
          << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 1]))
          << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 2]))
          << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 3]));
}

/// Splits header from body; validates magic/version/lengths and parses
/// the manifest JSON. Returns (manifest, body bytes).
Result<std::pair<ReplayManifest, std::string_view>> SplitArtifact(
    std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("replay artifact truncated: " +
                                   std::to_string(bytes.size()) +
                                   " bytes, header needs 12");
  }
  if (bytes.substr(0, 4) != std::string_view(kMagic, 4)) {
    return Status::InvalidArgument(
        "not a replay artifact: bad magic (want \"LCAP\")");
  }
  const uint32_t version = GetU32(bytes, 4);
  if (version != kReplayArtifactVersion) {
    return Status::Unsupported(
        "replay artifact version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kReplayArtifactVersion) + ")");
  }
  const uint32_t manifest_length = GetU32(bytes, 8);
  if (bytes.size() < kHeaderSize + manifest_length) {
    return Status::InvalidArgument(
        "replay artifact truncated: manifest declares " +
        std::to_string(manifest_length) + " bytes, " +
        std::to_string(bytes.size() - kHeaderSize) + " remain");
  }
  LIMCAP_ASSIGN_OR_RETURN(
      Json manifest_json,
      Json::Parse(bytes.substr(kHeaderSize, manifest_length)));
  LIMCAP_ASSIGN_OR_RETURN(ReplayManifest manifest,
                          ManifestFromJson(manifest_json));
  return std::make_pair(std::move(manifest),
                        bytes.substr(kHeaderSize + manifest_length));
}

Status CheckBody(const ReplayManifest& manifest, std::string_view body) {
  uint64_t lines = 0;
  for (char c : body) {
    if (c == '\n') ++lines;
  }
  if (lines != manifest.body_lines) {
    return Status::InvalidArgument(
        "replay artifact body corrupt: manifest declares " +
        std::to_string(manifest.body_lines) + " call(s), body holds " +
        std::to_string(lines));
  }
  const uint64_t hash = StableHash64(body);
  if (hash != manifest.body_hash) {
    return Status::InvalidArgument(
        "replay artifact body corrupt: hash " + FingerprintToString(hash) +
        " != manifest " + FingerprintToString(manifest.body_hash));
  }
  return Status::OK();
}

}  // namespace

Json ValueToJson(const Value& value) {
  Json json = Json::MakeObject();
  json.Set("k", static_cast<int>(value.kind()));
  switch (value.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kInt64:
      json.Set("v", std::to_string(value.int64()));
      break;
    case Value::Kind::kDouble:
      json.Set("v", DoubleToHex(value.dbl()));
      break;
    case Value::Kind::kString:
      json.Set("v", value.str());
      break;
  }
  return json;
}

Result<Value> ValueFromJson(const Json& json) {
  if (!json.Has("k")) return Status::InvalidArgument("value without a kind");
  LIMCAP_ASSIGN_OR_RETURN(
      const Value::Kind kind,
      GetEnum(json, "k", Value::Kind::kNull, Value::Kind::kString));
  switch (kind) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kInt64: {
      const std::string text = json.GetString("v");
      char* end = nullptr;
      const long long parsed = std::strtoll(text.c_str(), &end, 10);
      if (text.empty() || end != text.c_str() + text.size()) {
        return Status::InvalidArgument("bad int64 payload: " + text);
      }
      return Value::Int64(parsed);
    }
    case Value::Kind::kDouble: {
      LIMCAP_ASSIGN_OR_RETURN(double parsed,
                              DoubleFromHex(json.GetString("v")));
      return Value::Double(parsed);
    }
    case Value::Kind::kString:
      return Value::String(json.GetString("v"));
  }
  return Status::InvalidArgument("bad value kind");
}

Json FetchToJson(const runtime::FetchRecorder::Fetch& fetch) {
  Json json = Json::MakeObject();
  json.Set("s", fetch.source);
  Json positions = Json::MakeArray();
  for (uint32_t position : fetch.positions) {
    positions.Append(static_cast<uint64_t>(position));
  }
  json.Set("p", std::move(positions));
  Json values = Json::MakeArray();
  for (const Value& value : fetch.values) {
    values.Append(ValueToJson(value));
  }
  json.Set("v", std::move(values));
  if (fetch.cross_coalesced) json.Set("x", true);
  Json attempts = Json::MakeArray();
  for (const FetchRecorder::Attempt& attempt : fetch.attempts) {
    attempts.Append(AttemptToJson(attempt));
  }
  json.Set("a", std::move(attempts));
  return json;
}

Result<runtime::FetchRecorder::Fetch> FetchFromJson(const Json& json) {
  FetchRecorder::Fetch fetch;
  fetch.source = json.GetString("s");
  if (fetch.source.empty()) {
    return Status::InvalidArgument("recorded call without a source");
  }
  const Json& positions = json.Get("p");
  const Json& values = json.Get("v");
  if (!positions.is_array() || !values.is_array() ||
      positions.array().size() != values.array().size()) {
    return Status::InvalidArgument(
        "recorded call with mismatched positions/values");
  }
  for (const Json& position : positions.array()) {
    const double number = position.AsNumber(-1);
    if (!(number >= 0 && number <= std::numeric_limits<uint32_t>::max() &&
          number == std::floor(number))) {
      return Status::InvalidArgument(
          "recorded call position must be a whole number in [0, 2^32)");
    }
    fetch.positions.push_back(static_cast<uint32_t>(number));
  }
  for (const Json& value_json : values.array()) {
    LIMCAP_ASSIGN_OR_RETURN(Value value, ValueFromJson(value_json));
    fetch.values.push_back(std::move(value));
  }
  fetch.cross_coalesced = json.GetBool("x");
  const Json& attempts = json.Get("a");
  if (!attempts.is_array() || attempts.array().empty()) {
    return Status::InvalidArgument("recorded call without attempts");
  }
  for (const Json& attempt_json : attempts.array()) {
    LIMCAP_ASSIGN_OR_RETURN(FetchRecorder::Attempt attempt,
                            AttemptFromJson(attempt_json));
    fetch.attempts.push_back(std::move(attempt));
  }
  return fetch;
}

Json ManifestToJson(const ReplayManifest& manifest) {
  Json json = Json::MakeObject();
  json.Set("version", manifest.version);
  json.Set("query", manifest.query_text);
  Json views = Json::MakeArray();
  for (const ReplayViewSpec& view : manifest.views) {
    Json view_json = Json::MakeObject();
    view_json.Set("name", view.name);
    Json attributes = Json::MakeArray();
    for (const std::string& attribute : view.attributes) {
      attributes.Append(attribute);
    }
    view_json.Set("attrs", std::move(attributes));
    Json templates = Json::MakeArray();
    for (const std::string& pattern : view.templates) {
      templates.Append(pattern);
    }
    view_json.Set("templates", std::move(templates));
    views.Append(std::move(view_json));
  }
  json.Set("views", std::move(views));
  Json domains = Json::MakeObject();
  for (const auto& [attribute, domain] : manifest.domains) {
    domains.Set(attribute, domain);
  }
  json.Set("domains", std::move(domains));
  json.Set("catalog_fingerprint",
           FingerprintToString(manifest.catalog_fingerprint));
  json.Set("options", ExecOptionsToJson(manifest.options));
  json.Set("workload_seed", U64ToString(manifest.workload_seed));
  json.Set("scenario", manifest.scenario);
  json.Set("request_id", manifest.request_id);
  json.Set("recorded_fingerprint",
           FingerprintToString(manifest.recorded_fingerprint));
  json.Set("answer_rows", manifest.answer_rows);
  json.Set("source_queries", manifest.source_queries);
  json.Set("rounds", manifest.rounds);
  json.Set("degraded", manifest.degraded);
  json.Set("body_lines", manifest.body_lines);
  json.Set("body_hash", FingerprintToString(manifest.body_hash));
  return json;
}

Result<ReplayManifest> ManifestFromJson(const Json& json) {
  ReplayManifest manifest;
  LIMCAP_ASSIGN_OR_RETURN(
      manifest.version,
      GetCount(json, "version", 0, std::numeric_limits<uint32_t>::max()));
  manifest.query_text = json.GetString("query");
  if (manifest.query_text.empty()) {
    return Status::InvalidArgument("manifest without a query");
  }
  const Json& views = json.Get("views");
  if (!views.is_array() || views.array().empty()) {
    return Status::InvalidArgument("manifest without views");
  }
  for (const Json& view_json : views.array()) {
    ReplayViewSpec view;
    view.name = view_json.GetString("name");
    for (const Json& attribute : view_json.Get("attrs").array()) {
      view.attributes.push_back(attribute.AsString());
    }
    for (const Json& pattern : view_json.Get("templates").array()) {
      view.templates.push_back(pattern.AsString());
    }
    if (view.name.empty() || view.attributes.empty() ||
        view.templates.empty()) {
      return Status::InvalidArgument("manifest view incomplete: " +
                                     view.name);
    }
    manifest.views.push_back(std::move(view));
  }
  if (json.Get("domains").is_object()) {
    for (const auto& [attribute, domain] : json.Get("domains").object()) {
      manifest.domains[attribute] = domain.AsString();
    }
  }
  LIMCAP_ASSIGN_OR_RETURN(
      manifest.catalog_fingerprint,
      FingerprintFromString(json.GetString("catalog_fingerprint")));
  LIMCAP_ASSIGN_OR_RETURN(manifest.options,
                          ExecOptionsFromJson(json.Get("options")));
  LIMCAP_ASSIGN_OR_RETURN(
      manifest.workload_seed,
      U64FromString(json.GetString("workload_seed", "0")));
  manifest.scenario = json.GetString("scenario");
  manifest.request_id = json.GetString("request_id");
  LIMCAP_ASSIGN_OR_RETURN(
      manifest.recorded_fingerprint,
      FingerprintFromString(json.GetString("recorded_fingerprint")));
  LIMCAP_ASSIGN_OR_RETURN(manifest.answer_rows,
                          GetCount(json, "answer_rows", 0));
  LIMCAP_ASSIGN_OR_RETURN(manifest.source_queries,
                          GetCount(json, "source_queries", 0));
  LIMCAP_ASSIGN_OR_RETURN(manifest.rounds, GetCount(json, "rounds", 0));
  manifest.degraded = json.GetBool("degraded");
  LIMCAP_ASSIGN_OR_RETURN(manifest.body_lines,
                          GetCount(json, "body_lines", 0));
  LIMCAP_ASSIGN_OR_RETURN(manifest.body_hash,
                          FingerprintFromString(json.GetString("body_hash")));
  return manifest;
}

std::string EncodeArtifact(
    ReplayManifest manifest,
    const std::vector<runtime::FetchRecorder::Fetch>& calls) {
  std::string body;
  for (const FetchRecorder::Fetch& fetch : calls) {
    body += FetchToJson(fetch).Dump();
    body += '\n';
  }
  manifest.body_lines = calls.size();
  manifest.body_hash = StableHash64(body);
  const std::string manifest_bytes = ManifestToJson(manifest).Dump();
  std::string out;
  out.reserve(kHeaderSize + manifest_bytes.size() + body.size());
  out.append(kMagic, 4);
  PutU32(&out, kReplayArtifactVersion);
  PutU32(&out, static_cast<uint32_t>(manifest_bytes.size()));
  out += manifest_bytes;
  out += body;
  return out;
}

Result<ReplayManifest> VerifyManifest(std::string_view bytes) {
  LIMCAP_ASSIGN_OR_RETURN(auto split, SplitArtifact(bytes));
  LIMCAP_RETURN_NOT_OK(CheckBody(split.first, split.second));
  return std::move(split.first);
}

Result<ReplayArtifact> DecodeArtifact(std::string_view bytes) {
  LIMCAP_ASSIGN_OR_RETURN(auto split, SplitArtifact(bytes));
  LIMCAP_RETURN_NOT_OK(CheckBody(split.first, split.second));
  ReplayArtifact artifact;
  artifact.manifest = std::move(split.first);
  std::string_view body = split.second;
  std::size_t line_number = 0;
  while (!body.empty()) {
    const std::size_t newline = body.find('\n');
    std::string_view line = body.substr(0, newline);
    body.remove_prefix(newline + 1);
    ++line_number;
    LIMCAP_ASSIGN_OR_RETURN(Json line_json, Json::Parse(line));
    auto fetch = FetchFromJson(line_json);
    if (!fetch.ok()) {
      return Status::InvalidArgument(
          "replay artifact call " + std::to_string(line_number) + ": " +
          fetch.status().message());
    }
    artifact.calls.push_back(std::move(*fetch));
  }
  return artifact;
}

Status WriteArtifactFile(
    const std::string& path, const ReplayManifest& manifest,
    const std::vector<runtime::FetchRecorder::Fetch>& calls) {
  const std::string bytes = EncodeArtifact(manifest, calls);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<ReplayArtifact> ReadArtifactFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DecodeArtifact(buffer.str());
}

}  // namespace limcap::replay
