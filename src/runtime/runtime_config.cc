#include "runtime/runtime_config.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/text_table.h"

namespace limcap::runtime {

namespace {

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#' || c == '%') break;
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

Status LineError(std::size_t line_number, const std::string& what) {
  return Status::InvalidArgument("runtime config line " +
                                 std::to_string(line_number) + ": " + what);
}

Result<double> ParseNumber(const std::string& token, std::size_t line_number) {
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) {
    return LineError(line_number, "malformed number '" + token + "'");
  }
  return value;
}

Result<bool> ParseSwitch(const std::string& token, std::size_t line_number) {
  if (token == "on" || token == "true" || token == "1") return true;
  if (token == "off" || token == "false" || token == "0") return false;
  return LineError(line_number, "expected on|off, got '" + token + "'");
}

/// Applies one `key=value` policy setting.
Status ApplyPolicyKey(const std::string& setting, RetryPolicy* policy,
                      std::size_t line_number) {
  auto eq = setting.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == setting.size()) {
    return LineError(line_number,
                     "expected key=value, got '" + setting + "'");
  }
  const std::string key = setting.substr(0, eq);
  double value = 0;
  LIMCAP_ASSIGN_OR_RETURN(value,
                          ParseNumber(setting.substr(eq + 1), line_number));
  if (value < 0) {
    return LineError(line_number, "'" + key + "' must be non-negative");
  }
  if (key == "attempts") {
    if (value < 1) return LineError(line_number, "attempts must be >= 1");
    policy->max_attempts = static_cast<std::size_t>(value);
  } else if (key == "backoff_ms") {
    policy->backoff_base_ms = value;
  } else if (key == "backoff_max_ms") {
    policy->backoff_max_ms = value;
  } else if (key == "jitter") {
    policy->jitter = value;
  } else if (key == "deadline_ms") {
    policy->deadline_ms =
        value == 0 ? std::numeric_limits<double>::infinity() : value;
  } else if (key == "breaker_failures") {
    policy->breaker.failure_threshold = static_cast<std::size_t>(value);
  } else if (key == "breaker_cooldown_ms") {
    policy->breaker.cooldown_ms = value;
  } else {
    return LineError(line_number, "unknown policy key '" + key + "'");
  }
  return Status::OK();
}

std::string FormatNumber(double value) {
  if (std::isinf(value)) return "none";
  char buffer[48];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%g", value);
  }
  return buffer;
}

}  // namespace

Result<RuntimeOptions> ParseRuntimeConfig(std::string_view text) {
  RuntimeOptions options;
  std::istringstream stream{std::string(text)};
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    if (directive == "concurrent" || directive == "coalesce") {
      if (tokens.size() != 2) {
        return LineError(line_number, directive + " takes one on|off value");
      }
      bool value = false;
      LIMCAP_ASSIGN_OR_RETURN(value, ParseSwitch(tokens[1], line_number));
      (directive == "concurrent" ? options.concurrent : options.coalesce) =
          value;
    } else if (directive == "max_in_flight" ||
               directive == "per_source_max_in_flight" ||
               directive == "seed") {
      if (tokens.size() != 2) {
        return LineError(line_number, directive + " takes one number");
      }
      double value = 0;
      LIMCAP_ASSIGN_OR_RETURN(value, ParseNumber(tokens[1], line_number));
      if (value < 0) {
        return LineError(line_number, directive + " must be non-negative");
      }
      if (directive == "max_in_flight") {
        options.max_in_flight = static_cast<std::size_t>(value);
      } else if (directive == "per_source_max_in_flight") {
        options.per_source_max_in_flight = static_cast<std::size_t>(value);
      } else {
        options.seed = static_cast<uint64_t>(value);
      }
    } else if (directive == "latency") {
      if (tokens.size() != 3) {
        return LineError(line_number, "latency takes a view name (or "
                                      "'default') and a millisecond value");
      }
      double value = 0;
      LIMCAP_ASSIGN_OR_RETURN(value, ParseNumber(tokens[2], line_number));
      if (value < 0) {
        return LineError(line_number, "latency must be non-negative");
      }
      if (tokens[1] == "default") {
        options.latency.default_latency_ms = value;
      } else {
        options.latency.per_source_ms[tokens[1]] = value;
      }
    } else if (directive == "default") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        LIMCAP_RETURN_NOT_OK(
            ApplyPolicyKey(tokens[i], &options.retry, line_number));
      }
    } else if (directive == "view") {
      if (tokens.size() < 2) {
        return LineError(line_number, "view takes a view name");
      }
      // Start from the default policy as configured so far.
      auto [it, inserted] =
          options.per_source.try_emplace(tokens[1], options.retry);
      (void)inserted;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        LIMCAP_RETURN_NOT_OK(ApplyPolicyKey(tokens[i], &it->second,
                                            line_number));
      }
    } else {
      return LineError(line_number, "unknown directive '" + directive + "'");
    }
  }
  return options;
}

std::string RenderRuntimePolicies(const std::vector<std::string>& views,
                                  const RuntimeOptions& options, bool json) {
  if (json) {
    // A deadline of "none" (infinity) dumps as null.
    Json rows = Json::MakeArray();
    for (const std::string& view : views) {
      const RetryPolicy& policy = options.PolicyFor(view);
      Json row = Json::MakeObject();
      row.Set("view", view);
      row.Set("attempts", static_cast<std::uint64_t>(policy.max_attempts));
      row.Set("backoff_ms", policy.backoff_base_ms);
      row.Set("backoff_max_ms", policy.backoff_max_ms);
      row.Set("jitter", policy.jitter);
      row.Set("deadline_ms", policy.deadline_ms);
      row.Set("breaker_failures",
              static_cast<std::uint64_t>(policy.breaker.failure_threshold));
      row.Set("breaker_cooldown_ms", policy.breaker.cooldown_ms);
      row.Set("latency_ms", options.latency.LatencyOf(view));
      rows.Append(std::move(row));
    }
    return rows.Dump() + "\n";
  }
  TextTable table({"View", "Attempts", "Backoff ms", "Max ms", "Jitter",
                   "Deadline ms", "Breaker", "Cooldown ms", "Latency ms"});
  for (const std::string& view : views) {
    const RetryPolicy& policy = options.PolicyFor(view);
    table.AddRow({view, std::to_string(policy.max_attempts),
                  FormatNumber(policy.backoff_base_ms),
                  FormatNumber(policy.backoff_max_ms),
                  FormatNumber(policy.jitter),
                  FormatNumber(policy.deadline_ms),
                  policy.breaker.enabled()
                      ? std::to_string(policy.breaker.failure_threshold)
                      : "off",
                  FormatNumber(policy.breaker.cooldown_ms),
                  FormatNumber(options.latency.LatencyOf(view))});
  }
  std::string out = table.ToString();
  out += "dispatch: ";
  out += options.concurrent ? "concurrent" : "serial";
  out += ", max_in_flight=" + std::to_string(options.max_in_flight);
  out += ", per_source_max_in_flight=" +
         std::to_string(options.per_source_max_in_flight);
  out += options.coalesce ? ", coalesce=on" : ", coalesce=off";
  out += ", seed=" + std::to_string(options.seed);
  out += ", default latency=" +
         FormatNumber(options.latency.default_latency_ms) + " ms\n";
  return out;
}

}  // namespace limcap::runtime
