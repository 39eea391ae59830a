#ifndef LIMCAP_EXEC_SOURCE_DRIVEN_EVALUATOR_H_
#define LIMCAP_EXEC_SOURCE_DRIVEN_EVALUATOR_H_

#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dynamic_relevance.h"
#include "capability/access_log.h"
#include "capability/source_catalog.h"
#include "common/result.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/fact_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/domain_map.h"
#include "planner/program_builder.h"
#include "planner/query.h"
#include "relational/relation.h"
#include "runtime/adaptive_state.h"
#include "runtime/fetch_report.h"
#include "runtime/options.h"

namespace limcap::planner {
class PlanCache;
}  // namespace limcap::planner

namespace limcap::exec {

/// How the evaluator schedules source queries between Datalog rounds.
enum class FetchStrategy {
  /// Each round issues every currently formable query, then derives —
  /// maximizes per-round parallelism (see runtime/latency_model.h).
  kRoundBased,
  /// Issue one query, immediately derive, repeat — the depth-first style
  /// of the paper's Table 2 narration. Same fixpoint, different order;
  /// with early stopping (budgets, min_answers) it can need fewer
  /// queries, at the price of fully sequential rounds.
  kEager,
};

/// Whether (and how strictly) QueryAnswerer runs the static program
/// verifier (analysis/analyzer.h) over a program before executing it.
enum class StaticAnalysisMode {
  /// No analysis (default).
  kOff,
  /// Run the analyzer and attach its findings to the AnswerReport;
  /// execute regardless.
  kWarn,
  /// Refuse to execute a program with error-severity diagnostics (e.g.
  /// an unbindable view atom). The strict bind-join contract: every
  /// source-view atom must admit an executable ordering.
  kReject,
  /// Drop every rule the analyzer proves can never fire, then execute.
  /// Sound: pruned rules are evaluation-inert, the answer is unchanged.
  kPrune,
};

/// Execution knobs.
struct ExecOptions {
  planner::BuilderOptions builder;
  /// Static verification before execution; see StaticAnalysisMode.
  StaticAnalysisMode static_analysis = StaticAnalysisMode::kOff;
  datalog::Evaluator::Mode mode = datalog::Evaluator::Mode::kSemiNaive;
  FetchStrategy strategy = FetchStrategy::kRoundBased;
  /// Source-access budget (Section 7.2 partial answers): the evaluator
  /// stops issuing source queries once this many have been sent and
  /// finishes deriving from what it has.
  std::size_t max_source_queries = std::numeric_limits<std::size_t>::max();
  /// Result target (Section 7.2: "we decide how many source queries to
  /// send based on how many results the user is interested in"): stop
  /// fetching as soon as the goal predicate holds at least this many
  /// facts. The final answer may exceed the target (a fetch round can
  /// add several answers at once).
  std::size_t min_answers = std::numeric_limits<std::size_t>::max();
  /// When true, a source query that fails (e.g. the source is down) is
  /// logged with its error and treated as returning no tuples, and the
  /// evaluation continues — the answer is then a sound partial answer
  /// whose ExecResult::fetch_report names the failed views. When false
  /// (default) the first permanent failure aborts the evaluation. Either
  /// way a query fails permanently only after `runtime.retry` (or the
  /// per-source override) is out of attempts.
  bool continue_on_source_error = false;
  /// The source-access runtime: concurrency, coalescing, retry/backoff,
  /// deadlines, circuit breakers, and the simulated LatencyModel clock.
  /// The defaults reproduce the legacy serial single-attempt fetch loop
  /// bit for bit.
  runtime::RuntimeOptions runtime;
  /// The session dictionary every relation, fact and source query of this
  /// execution encodes against. Null (default) creates a fresh one; the
  /// mediator passes its own so the answer stays decodable after the
  /// evaluator is gone.
  ValueDictionaryPtr session_dict;
  /// Fetch channels — (view name, template index) pairs — the evaluator
  /// must not schedule queries for. Filled by QueryAnswerer under
  /// StaticAnalysisMode::kPrune from the binding-flow verdicts
  /// (analysis/binding_flow.h): every listed channel is statically
  /// irrelevant or unreachable, so dropping it is answer-preserving.
  std::vector<std::pair<std::string, std::size_t>> pruned_channels;
  /// Compiled-plan cache (optional, non-owning, must outlive the call).
  /// When set, QueryAnswerer::Answer and AnswerUnoptimized look their
  /// (catalog fingerprint, query signature) key up before planning: a hit
  /// skips FIND_REL, program construction, Section 6 optimization and the
  /// static gate; a miss plans as usual and publishes the artifact.
  /// AnswerWithCache never uses it (its program holds the cached
  /// tuples). The evaluator itself ignores this — execution always runs.
  /// The mediator wires its session cache in here; standalone
  /// QueryAnswerer users may share one cache across answerers (it is
  /// thread-safe).
  planner::PlanCache* plan_cache = nullptr;
  /// Observability (both optional, non-owning, must outlive the
  /// execution; both belong to the driver thread only). `tracer` records
  /// the hierarchical span timeline — plan stages, per-round evaluation,
  /// per-fetch source calls; `metrics` receives the named counters of
  /// obs/metrics.h, reconciled exactly with EvalStats and FetchReport.
  /// Null (the default) keeps the hot path at a branch per emission
  /// point; tracing never changes answers (enforced by property tests).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// What an execution produced.
struct ExecResult {
  /// The obtainable answer: the goal predicate's facts, with the query's
  /// output attributes as schema.
  relational::Relation answer;
  /// The full source-access trace (the paper's Table 2).
  capability::AccessLog log;
  /// All derived facts — the alpha-predicates, domain predicates and goal
  /// (the paper's Table 3).
  datalog::FactStore store;
  datalog::EvalStats datalog_stats;
  /// Fetch-evaluate rounds executed.
  std::size_t rounds = 0;
  /// True when max_source_queries or min_answers stopped fetching early,
  /// making `answer` a (possibly) partial answer.
  bool budget_exhausted = false;
  /// What the fetch scheduler did: per-source attempts/retries/timeouts/
  /// breaker accounting, simulated makespans, and — when sources failed
  /// permanently under continue_on_source_error — the degraded-answer
  /// annotation naming the failed views (fetch_report.degraded()).
  runtime::FetchReport fetch_report;
  /// The dictionary `answer`, `store` and the log's interned records
  /// encode against (shared with the store).
  ValueDictionaryPtr session_dict;
  /// One machine-checkable certificate per fetch the adaptive
  /// dispatcher's dynamic relevance check suppressed (empty unless
  /// RuntimeOptions::adaptive is on), in suppression order. Each is
  /// re-checkable via analysis::VerifySkipCertificate.
  std::vector<analysis::SkipCertificate> skip_certificates;
  /// The dynamic relevance checker's inputs (filled only when adaptive
  /// dynamic pruning ran): the executed program and the channel
  /// metadata. Together with `store` they let anyone rebuild a checker
  /// and independently re-verify every skip certificate — frozen-ness
  /// and frozen extents are monotone across rounds, so the final store
  /// upholds every certificate issued mid-run.
  datalog::Program adaptive_program;
  std::vector<analysis::DynamicChannelInfo> adaptive_channels;
  /// The per-source latency/rows/failure profiles the adaptive
  /// dispatcher learned over this execution (empty when adaptive is
  /// off); rendered by explain's "Adaptive dispatch" section.
  std::map<std::string, runtime::SourceProfile> adaptive_profiles;
  /// Value↔id translations the session dictionary performed on the hot
  /// path after plan compilation, excluding source ingest (each source's
  /// Execute and any re-keying of foreign-dictionary answers). The
  /// single-translation invariant of the interned execution path makes
  /// this 0: once a tuple enters the session dictionary it flows as ids
  /// to the final answer. Tests assert on it.
  uint64_t post_ingest_translations = 0;
};

/// Evaluates a program Π(Q, V) against live capability-restricted sources
/// (Section 3.3). The program's EDB predicates are the view predicates;
/// they cannot be scanned, so the evaluator alternates:
///
///   1. run the Datalog program to fixpoint over the facts obtained so
///      far (deriving alpha-predicate facts, domain values, and answers);
///   2. for every view whose EDB predicate the program uses, form each
///      not-yet-issued source query from the current values of the bound
///      attributes' domain predicates, send it, and add the returned
///      tuples as EDB facts.
///
/// Every issued query satisfies the source's binding requirements by
/// construction. The loop ends when a fetch pass issues no new query —
/// then the goal predicate holds the maximal obtainable answer
/// (Proposition 3.2).
class SourceDrivenEvaluator {
 public:
  /// `catalog` must outlive the evaluator.
  SourceDrivenEvaluator(const capability::SourceCatalog* catalog,
                        planner::DomainMap domains, ExecOptions options = {})
      : catalog_(catalog),
        domains_(std::move(domains)),
        options_(std::move(options)) {}

  /// Runs `program` to completion. `query` supplies the goal's output
  /// schema.
  Result<ExecResult> Execute(const datalog::Program& program,
                             const planner::Query& query);

  /// The same, evaluating `compiled` — `program` compiled by
  /// datalog::Evaluator::Compile, e.g. a plan-cache entry's — instead of
  /// compiling `program` afresh. Null compiles, as the overload above.
  Result<ExecResult> Execute(
      const datalog::Program& program,
      std::shared_ptr<const datalog::CompiledProgram> compiled,
      const planner::Query& query);

 private:
  const capability::SourceCatalog* catalog_;
  planner::DomainMap domains_;
  ExecOptions options_;
};

/// Folds an execution's EvalStats / FetchReport / answer shape into
/// `metrics` under the canonical names of obs/metrics.h. No-op on null.
/// Called by SourceDrivenEvaluator::Execute; exposed so tools and tests
/// can aggregate hand-driven executions the same way.
void RecordExecMetrics(const ExecResult& result,
                       obs::MetricsRegistry* metrics);

/// The semi-naive frontier of one fetch spec. A source query becomes
/// formable only when a new domain value arrives, so the evaluator keeps,
/// per bound position, a watermark below which every combination of
/// domain rows has been asked, and each round visits only the rest.
/// Calls `fn(pick)` (a span of k row indices) for every tuple of
/// [0, extents[0]) × … × [0, extents[k-1]) with at least one coordinate at
/// or past its watermark, in odometer order, position 0 fastest: exactly
/// the full cross product's odometer sequence with the already-asked box
/// [0, watermarks) filtered out. The walk never enters a sub-box without
/// a new coordinate, so its cost is proportional to what it emits. Zero
/// positions or a zero extent emit nothing; every watermark must be at
/// most its extent.
template <typename Fn>
void ForEachDeltaCombo(std::span<const std::size_t> extents,
                       std::span<const std::size_t> watermarks, Fn&& fn) {
  const std::size_t k = extents.size();
  bool any_new = false;
  for (std::size_t i = 0; i < k; ++i) {
    if (extents[i] == 0) return;
    if (watermarks[i] < extents[i]) any_new = true;
  }
  if (!any_new) return;
  // new_below[j]: some position below j still has unasked rows, so a pick
  // whose positions j.. all lie inside the box can still become new.
  // inside[j]: positions j..k-1 of the current pick all lie inside it.
  std::vector<std::size_t> pick(k);
  std::vector<char> new_below(k, 0);
  std::vector<char> inside(k + 1, 1);
  for (std::size_t j = 1; j < k; ++j) {
    new_below[j] = new_below[j - 1] || watermarks[j - 1] < extents[j - 1];
  }
  // Restarts positions [0, top) at their lowest index that can still
  // reach a new combo.
  auto restart_below = [&](std::size_t top) {
    for (std::size_t j = top; j-- > 0;) {
      pick[j] = inside[j + 1] && !new_below[j] ? watermarks[j] : 0;
      inside[j] = inside[j + 1] && pick[j] < watermarks[j];
    }
  };
  restart_below(k);
  while (true) {
    fn(std::span<const std::size_t>(pick));
    std::size_t i = 0;
    while (i < k && ++pick[i] == extents[i]) ++i;
    if (i == k) return;
    inside[i] = inside[i + 1] && pick[i] < watermarks[i];
    restart_below(i);
  }
}

}  // namespace limcap::exec

#endif  // LIMCAP_EXEC_SOURCE_DRIVEN_EVALUATOR_H_
