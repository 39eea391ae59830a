#ifndef LIMCAP_PLANNER_PLAN_CACHE_H_
#define LIMCAP_PLANNER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "capability/source_catalog.h"
#include "common/result.h"
#include "datalog/evaluator.h"
#include "planner/domain_map.h"
#include "planner/program_builder.h"
#include "planner/program_optimizer.h"
#include "planner/query.h"

namespace limcap::planner {

/// The canonical adorned signature of a connection query: the query half
/// of the plan-cache key. Two queries get the same signature exactly when
/// the planner would compile them into interchangeable plans —
/// the signature is invariant under
///
///   * connection order (the answer is a union over connections),
///   * view order within a connection (a connection is a set),
///   * consistent renaming of the global attributes ("variables" of the
///     connection-query calculus): attributes are replaced by $0, $1, ...
///     in canonical traversal order, so isomorphic queries collide,
///
/// and sensitive to everything that changes the compiled artifact: the
/// adorned shape of the referenced views (templates fold into the view
/// atoms), input values and their multiplicities (connection rules embed
/// the constants), output order (the answer schema), the program-builder
/// knobs, and the caller-supplied `config_tag` (the exec layer folds its
/// static-analysis mode in through it).
struct QuerySignature {
  /// Human-readable canonical form, e.g.
  ///   "C:{v1/bf($0,$1),v3/bff($1,$2,$3)}|I:$0=s:t1|O:$3|B:goal=ans,..."
  /// — shown by limcap_explain for cache debugging.
  std::string canonical;
  /// capability::StableHash64(canonical): process-independent.
  uint64_t hash = 0;

  bool operator==(const QuerySignature& other) const {
    return hash == other.hash && canonical == other.canonical;
  }
};

/// Computes the signature of `query` against `catalog`. Fails when a
/// connection names an unknown view (the same queries Validate rejects).
Result<QuerySignature> MakeQuerySignature(const Query& query,
                                          const capability::SourceCatalog& catalog,
                                          const DomainMap& domains,
                                          const BuilderOptions& builder = {},
                                          std::string_view config_tag = {});

/// Stable fingerprint of a DomainMap's attribute→domain overrides; folded
/// into the catalog half of the cache key (a mediator's domain grouping
/// changes which programs the planner emits exactly like a capability
/// change would).
uint64_t DomainMapFingerprint(const DomainMap& domains);

/// A compiled, reusable query plan: everything Mediator::Answer computes
/// between parse and execution, keyed by (catalog fingerprint, query
/// signature). Entries are immutable once inserted and shared by
/// reference — a warm query shares the plan with its AnswerReport, binds
/// the compiled program to its own fact store, and executes, skipping
/// FIND_REL, program construction, Section 6 optimization, the
/// static-analysis gate and Datalog compilation.
struct CachedPlan {
  /// The full planning artifact (relevance closure, Π(Q,V), Π(Q,V_r),
  /// optimized program, removed rules), shared with every answer that
  /// planned or hit it.
  std::shared_ptr<const PlanResult> plan;
  /// The program execution actually runs: the optimized program after the
  /// static-analysis gate (equal to plan->optimized_program when the gate
  /// was off or non-pruning).
  datalog::Program executable_program;
  /// executable_program compiled against a fresh store over the session
  /// dictionary of the answer that planned it. Every later answer of the
  /// same key interns the same inputs in the same order into a fresh
  /// dictionary, so binding it hands out the compiled ids unchanged (a
  /// caller-supplied dictionary already holding other values makes the
  /// bind compile afresh for that answer's store).
  std::shared_ptr<const datalog::CompiledProgram> compiled;
  /// The static verifier's verdicts, opaque to this layer (the exec layer
  /// stores its analysis::AnalysisResult here; planner cannot name that
  /// type without a dependency cycle). Null when analysis never ran.
  std::shared_ptr<const void> verdicts;
  bool analysis_ran = false;
  /// The key this entry was compiled under, echoed for debugging.
  uint64_t catalog_fingerprint = 0;
  QuerySignature signature;
};

/// A bounded, thread-safe LRU cache of compiled plans. Thread safety is
/// ahead of today's one-session-one-thread mediator on purpose: the
/// future multi-query `limcap_serve` shares one cache across query
/// threads, and the property tests already exercise concurrent lookups
/// and inserts.
///
/// Invalidation: the catalog fingerprint is part of the key, so a mutated
/// catalog can never serve a stale plan — lookups under the new
/// fingerprint miss and recompile. Invalidate(fingerprint) additionally
/// reclaims the memory of a retired catalog generation's entries (exactly
/// those entries, nothing else).
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    /// Every consulted-but-not-served lookup — including lookups against
    /// a capacity-0 (disabled) cache and repeated misses of a
    /// reject-gated query, which can never be inserted. The hit+miss sum
    /// therefore equals the number of Lookup calls, which is what the
    /// serve status endpoint and limcap_explain report hit rates from.
    uint64_t misses = 0;
    uint64_t inserts = 0;
    /// Entries dropped by the LRU bound.
    uint64_t evictions = 0;
    /// Entries dropped by Invalidate().
    uint64_t invalidations = 0;
    /// Point-in-time occupancy, filled by stats() at snapshot time.
    std::size_t size = 0;
    std::size_t capacity = 0;
  };

  /// `capacity` bounds the number of cached plans; 0 disables the cache
  /// (every lookup misses, inserts are dropped).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  static constexpr std::size_t kDefaultCapacity = 128;

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The entry compiled under (catalog_fingerprint, signature), freshened
  /// to most-recently-used — or null (a miss).
  std::shared_ptr<const CachedPlan> Lookup(uint64_t catalog_fingerprint,
                                           const QuerySignature& signature);

  /// Inserts `entry` under its embedded key, evicting the least recently
  /// used entry when full. Re-inserting an existing key replaces the
  /// entry (last writer wins — both compiled the same plan).
  void Insert(std::shared_ptr<const CachedPlan> entry);

  /// Drops every entry compiled under `catalog_fingerprint`; returns how
  /// many were dropped. Entries of other catalog generations are
  /// untouched.
  std::size_t Invalidate(uint64_t catalog_fingerprint);

  /// Generation tracking: callers that answer against a live catalog
  /// (the mediator, serve sessions) report the catalog's current
  /// fingerprint before each answer. When the fingerprint changed since
  /// the last call — a source registered, or Deregister retired one —
  /// the previous generation's entries are invalidated (they can never
  /// be looked up again; keeping them only wastes capacity). Entries of
  /// *other* fingerprints are untouched, so standalone users may still
  /// share one cache across catalogs. Returns how many entries were
  /// dropped.
  std::size_t NoteCatalogGeneration(uint64_t catalog_fingerprint);

  void Clear();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Counter totals plus the point-in-time size/capacity — one locked
  /// snapshot, so the numbers are mutually consistent even while other
  /// threads keep hitting the cache.
  Stats stats() const;

 private:
  /// Map key: fingerprint || signature hash || canonical text (the text
  /// guards against 64-bit hash collisions).
  static std::string MapKey(uint64_t catalog_fingerprint,
                            const QuerySignature& signature);

  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const CachedPlan>>>;

  /// Invalidate() body, callable with mutex_ already held.
  std::size_t InvalidateLocked(uint64_t catalog_fingerprint);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// NoteCatalogGeneration state: the live catalog fingerprint, valid
  /// once has_generation_ is set.
  uint64_t generation_ = 0;
  bool has_generation_ = false;
  /// Front = most recently used.
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> by_key_;
  Stats stats_;
};

}  // namespace limcap::planner

#endif  // LIMCAP_PLANNER_PLAN_CACHE_H_
