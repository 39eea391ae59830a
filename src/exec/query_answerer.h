#ifndef LIMCAP_EXEC_QUERY_ANSWERER_H_
#define LIMCAP_EXEC_QUERY_ANSWERER_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "analysis/analyzer.h"
#include "exec/query_context.h"
#include "exec/source_driven_evaluator.h"
#include "planner/plan_cache.h"
#include "planner/program_optimizer.h"
#include "relational/relation.h"

namespace limcap::exec {

/// What the plan cache did for one answer (all zero/false when no cache
/// was wired in or the path does not cache).
struct PlanCacheReport {
  /// A cache was consulted: options.plan_cache was set and the answer
  /// was not given Section 7.1 tuples (AnswerWithCache never caches).
  bool attempted = false;
  /// The plan was served from the cache; planning and the static gate
  /// were skipped.
  bool hit = false;
  /// The catalog half of the key (SourceCatalog::fingerprint()).
  uint64_t catalog_fingerprint = 0;
  /// The query half of the key (QuerySignature::hash).
  uint64_t key_fingerprint = 0;
  /// The canonical signature text behind key_fingerprint.
  std::string signature;
};

/// Everything produced by answering one query end-to-end.
struct AnswerReport {
  /// The plan: FIND_REL analysis, Π(Q, V_r), optimized program (never
  /// Π(Q, V); see planner::BuildFullProgram). Built once by the answer
  /// that planned it and shared, never copied, with its plan-cache entry
  /// and every answer that hits it.
  std::shared_ptr<const planner::PlanResult> plan;
  /// The static verifier's findings, when options.static_analysis was
  /// not kOff (see `analysis_ran`). Under kPrune, `executability` names
  /// the rules that were dropped before execution. On a plan-cache hit
  /// these are the cached verdicts — valid because the program they
  /// describe is byte-identical.
  analysis::AnalysisResult analysis;
  bool analysis_ran = false;
  /// Plan-cache outcome for this answer.
  PlanCacheReport cache;
  /// Execution of the gated program against the sources.
  ExecResult exec;
};

/// The mediator facade: plan with FIND_REL + useless-rule removal
/// (Section 6), then evaluate the optimized program against the sources
/// (Section 3.3). This is the paper's full pipeline and the library's
/// front door:
///
///   QueryAnswerer answerer(&catalog, domains);
///   auto report = answerer.Answer(query);
///   report->exec.answer;  // the maximal obtainable answer
class QueryAnswerer {
 public:
  /// `catalog` must outlive the answerer.
  QueryAnswerer(const capability::SourceCatalog* catalog,
                planner::DomainMap domains)
      : catalog_(catalog), domains_(std::move(domains)) {}

  /// Validates, plans, and executes `query`.
  Result<AnswerReport> Answer(const planner::Query& query,
                              const ExecOptions& options = {}) const;

  /// The re-entrant core of Answer(): all per-query state lives in
  /// `context`, the answerer itself is immutable, so any number of
  /// threads may call this on ONE answerer concurrently — each with its
  /// own context — as long as shared handles the contexts carry
  /// (plan cache, fetch governor) are themselves thread-safe. This is
  /// what the multi-query server runs per request.
  Result<AnswerReport> Answer(const planner::Query& query,
                              QueryContext& context) const;

  /// Plans and executes the *unoptimized* Π(Q, V) — used by benches to
  /// measure what FIND_REL saves. The only answer path that builds
  /// Π(Q, V) (planner::BuildFullProgram, under a "plan.build" span after
  /// "plan"). Its plan-cache entries are keyed apart from Answer()'s.
  Result<AnswerReport> AnswerUnoptimized(const planner::Query& query,
                                         const ExecOptions& options = {}) const;

  /// Section 7.1: answers `query` with cached data folded in. Each entry
  /// of `cached` maps a view name to previously obtained tuples of that
  /// view (e.g. CachingSource::ObservedTuples() from an earlier session);
  /// every tuple becomes an alpha-predicate fact plus domain facts in the
  /// program, potentially unlocking sources and answers the cold start
  /// cannot reach. Fails when a cached view is unknown or a tuple's arity
  /// mismatches. Never consults options.plan_cache: the compiled program
  /// contains the tuples.
  Result<AnswerReport> AnswerWithCache(
      const planner::Query& query,
      const std::map<std::string, relational::Relation>& cached,
      const ExecOptions& options = {}) const;

 private:
  /// The one pipeline behind every entry point: plan-cache lookup,
  /// planning, the program choice (Π(Q, V), built here, when
  /// `full_program`, else the optimized Π(Q, V_r)), Section 7.1 tuples
  /// folded in when `cached` is set, the static gate, cache publication,
  /// execution, and the degraded-connection annotation. `query` must
  /// already be validated.
  Result<AnswerReport> RunPipeline(
      const planner::Query& query, QueryContext& context, bool full_program,
      const std::map<std::string, relational::Relation>* cached) const;

  const capability::SourceCatalog* catalog_;
  planner::DomainMap domains_;
};

/// The strict static gate: runs the verifier over `program` (the one
/// about to execute) against `views` and applies
/// `options.static_analysis` — kOff passes the program through
/// untouched; kWarn analyzes and attaches the findings to `report`;
/// kReject returns CapabilityViolation when the analysis has
/// error-severity findings; kPrune returns the program with every
/// provably never-firing rule removed (answer-preserving). Exposed so
/// tests and tools can gate hand-written programs exactly the way
/// QueryAnswerer gates planned ones.
Result<datalog::Program> ApplyStaticAnalysisGate(
    const datalog::Program& program,
    const std::vector<capability::SourceView>& views,
    const planner::DomainMap& domains, const ExecOptions& options,
    AnswerReport* report);

/// Reads back per-connection answers from an execution whose program was
/// built with options.builder.per_connection_goals: maps each
/// connection's ToString() to the relation of answers that connection
/// contributed. `connections` must be the list the program was built
/// from — for QueryAnswerer::Answer that is
/// report.plan->relevance.queryable_connections.
Result<std::map<std::string, relational::Relation>> PerConnectionAnswers(
    const ExecResult& exec,
    const std::vector<planner::Connection>& connections,
    const planner::Query& query,
    const planner::BuilderOptions& options = {});

}  // namespace limcap::exec

#endif  // LIMCAP_EXEC_QUERY_ANSWERER_H_
