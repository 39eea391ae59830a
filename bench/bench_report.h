// The shared benchmark reporter: every bench_*.cc writes one
// machine-readable BENCH_<name>.json next to whatever it prints for
// humans, so CI (and regression tooling) consumes every benchmark the
// same way. Two shapes:
//
//   * self-checking harnesses use Reporter — named rows of fields plus
//     pass/fail invariants, built as one common/Json value and dumped
//     (keys sorted) on Write();
//   * google-benchmark binaries use LIMCAP_BENCHMARK_MAIN_WITH_REPORT
//     (in place of BENCHMARK_MAIN), which injects gbench's native JSON
//     writer targeting the same BENCH_<name>.json naming scheme unless
//     the caller already passed --benchmark_out.
//
// LIMCAP_BENCH_OUT_DIR overrides the output directory (default:
// bench/out/ under the working directory, created on demand — keeps
// local runs from littering the repo root; the four committed
// paper-example baselines at the root are regenerated deliberately
// with LIMCAP_BENCH_OUT_DIR=.).

#ifndef LIMCAP_BENCH_BENCH_REPORT_H_
#define LIMCAP_BENCH_BENCH_REPORT_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace limcap::benchreport {

inline std::string OutputPath(const std::string& bench_name) {
  std::string path;
  if (const char* dir = std::getenv("LIMCAP_BENCH_OUT_DIR")) {
    path = dir;
    if (!path.empty() && path.back() != '/') path += '/';
  } else {
    path = "bench/out/";
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    // On failure (read-only cwd) fall back to the working directory
    // rather than losing the report.
    if (ec) path.clear();
  }
  return path + "BENCH_" + bench_name + ".json";
}

/// Collects one harness run's results and writes them as one JSON
/// object through common/Json:
///
///   {"bench":"...","failures":0,
///    "invariants":[{"name":"...","passed":true},...],
///    "rows":[{"name":"...",k:v,...},...]}
///
/// Keys come out sorted (Json objects are canonical), rows and
/// invariants keep their insertion order, and a non-finite number is
/// written as null.
class Reporter {
 public:
  explicit Reporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  class Row {
   public:
    Row& Set(const std::string& key, double value) {
      fields_.Set(key, value);
      return *this;
    }
    Row& Set(const std::string& key, std::string value) {
      fields_.Set(key, std::move(value));
      return *this;
    }

   private:
    friend class Reporter;
    Json fields_ = Json::MakeObject();
  };

  Row& AddRow(const std::string& name) {
    rows_.emplace_back();
    rows_.back().fields_.Set("name", name);
    return rows_.back();
  }

  /// Records a self-check outcome; a failed invariant also counts as a
  /// failure in the summary.
  void Invariant(const std::string& name, bool passed) {
    invariants_.emplace_back(name, passed);
    if (!passed) ++failures_;
  }
  void AddFailures(int count) { failures_ += count; }
  /// Overrides the failure count — for harnesses whose own counter also
  /// covers checks that never became invariants.
  void SetFailures(int count) { failures_ = count; }
  int failures() const { return failures_; }

  /// Writes BENCH_<name>.json. Returns false (and reports on stderr)
  /// when the file cannot be written.
  bool Write() const {
    const std::string path = OutputPath(bench_name_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs(Render().c_str(), out);
    std::fclose(out);
    return true;
  }

  std::string Render() const {
    Json report = Json::MakeObject();
    report.Set("bench", bench_name_);
    Json rows = Json::MakeArray();
    for (const Row& row : rows_) rows.Append(row.fields_);
    report.Set("rows", std::move(rows));
    Json invariants = Json::MakeArray();
    for (const auto& [name, passed] : invariants_) {
      Json invariant = Json::MakeObject();
      invariant.Set("name", name);
      invariant.Set("passed", passed);
      invariants.Append(std::move(invariant));
    }
    report.Set("invariants", std::move(invariants));
    report.Set("failures", failures_);
    return report.Dump() + "\n";
  }

 private:
  std::string bench_name_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, bool>> invariants_;
  int failures_ = 0;
};

}  // namespace limcap::benchreport

// Only meaningful in translation units that already include
// benchmark/benchmark.h (the timing benchmarks).
#ifdef BENCHMARK_BENCHMARK_H_
namespace limcap::benchreport {

/// BENCHMARK_MAIN with the BENCH_<name>.json contract: unless the user
/// passed --benchmark_out, gbench's JSON writer targets the shared
/// naming scheme (console output is unchanged).
inline int GBenchMainWithReport(const char* bench_name, int argc,
                                char** argv) {
  std::vector<std::string> storage(argv, argv + argc);
  bool has_out = false;
  for (const std::string& arg : storage) {
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    storage.push_back("--benchmark_out=" + OutputPath(bench_name));
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& arg : storage) args.push_back(arg.data());
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace limcap::benchreport

#define LIMCAP_BENCHMARK_MAIN_WITH_REPORT(name)                       \
  int main(int argc, char** argv) {                                   \
    return limcap::benchreport::GBenchMainWithReport(name, argc, argv); \
  }
#endif  // BENCHMARK_BENCHMARK_H_

#endif  // LIMCAP_BENCH_BENCH_REPORT_H_
