#ifndef LIMCAP_DATALOG_EVALUATOR_H_
#define LIMCAP_DATALOG_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "datalog/ast.h"
#include "datalog/fact_store.h"
#include "obs/trace.h"

namespace limcap::datalog {

/// Counters exposed by an evaluation, used by the ablation benches.
struct EvalStats {
  uint64_t iterations = 0;       ///< fixpoint rounds
  uint64_t rule_activations = 0; ///< (rule, delta-position) match passes
  uint64_t matches = 0;          ///< complete body substitutions found
  uint64_t facts_derived = 0;    ///< new facts inserted into the store
  uint64_t probes = 0;           ///< index lookups issued for body atoms
  uint64_t probe_rows = 0;       ///< rows enumerated from index chains
  uint64_t scan_rows = 0;        ///< rows enumerated by delta/full scans
  /// One-time bytes allocated for match scratch (bindings, probe keys,
  /// head rows) when the program is bound; the match inner loop performs no
  /// per-substitution heap allocation.
  uint64_t scratch_bytes = 0;
  /// Activations per fixpoint round, index = round number.
  std::vector<uint64_t> round_activations;
};

/// A Program compiled for the Evaluator (Evaluator::Compile): every rule's
/// atoms over dense PredicateIds and ValueIds, and the match plans of
/// every (rule, delta-atom) order. Immutable once built, so one compiled
/// program may be bound by any number of evaluators — concurrently, each
/// over its own store. The ids are those of the store it was compiled
/// against; it records the predicate declarations and constant interning
/// that produced them, in order, so a bind can replay them and check that
/// a new store hands out the same ids (Evaluator::Create).
class CompiledProgram {
 private:
  friend class Evaluator;

  struct CompiledTerm {
    bool is_var;
    uint32_t var;      // valid when is_var
    ValueId constant;  // valid when !is_var
  };
  struct CompiledAtom {
    PredicateId pred = kNoPredicate;
    std::vector<CompiledTerm> terms;
  };

  /// A step's row actions: a bind writes a first-occurrence variable
  /// from the row, a check rejects rows that disagree with a constant or
  /// an already-bound variable, and a key part fills one slot of the
  /// probe key (its column is the matching entry of probe_cols).
  struct Bind {
    uint32_t pos;
    uint32_t var;
  };
  struct Check {
    uint32_t pos;
    bool is_const;
    ValueId constant;
    uint32_t var;
  };
  struct KeyPart {
    bool is_const;
    ValueId constant;
    uint32_t var;
  };

  /// One body atom of a match plan with its fixed runtime behavior: its
  /// binds, checks and key parts, as ranges of the plan's arrays (no key
  /// parts → scan). Which variables are bound at each step is static for
  /// a fixed atom order, so none of this is decided per row.
  struct MatchStep {
    PredicateId pred = kNoPredicate;
    uint32_t binds_begin = 0;
    uint32_t num_binds = 0;
    uint32_t checks_begin = 0;
    uint32_t num_checks = 0;
    /// The step's key parts and probe columns start here, which is also
    /// the slot of its key in the key scratch.
    uint32_t key_offset = 0;
    uint32_t num_keys = 0;
  };
  /// The steps of one atom order, with every step's actions in four flat
  /// arrays (a plan is a handful of allocations, however many steps).
  struct MatchPlan {
    std::vector<MatchStep> steps;
    std::vector<Bind> binds;
    std::vector<Check> checks;
    std::vector<KeyPart> key_parts;
    std::vector<uint32_t> probe_cols;
  };
  struct CompiledRule {
    CompiledAtom head;
    std::vector<CompiledAtom> body;
    uint32_t num_vars = 0;
    // plans[d] starts with body atom d (the delta atom); plans[body
    // .size()] is the order used by naive evaluation.
    std::vector<MatchPlan> plans;
  };
  struct DeclaredPredicate {
    std::string name;
    std::size_t arity;
    PredicateId id;
  };

  CompiledProgram() = default;

  static std::vector<std::size_t> GreedyOrder(const CompiledRule& rule,
                                              std::size_t first_atom);
  static MatchPlan BuildPlan(const CompiledRule& rule,
                             const std::vector<std::size_t>& order);
  /// Derives everything below `rules_`' atoms from them: each rule's match
  /// plans, the body predicates, the probed indexes and the scratch sizes.
  void BuildPlans();

  /// Predicates in declaration order (sorted by name), with their ids.
  std::vector<DeclaredPredicate> predicates_;
  /// Distinct rule constants in interning order (per rule, body atoms
  /// then head; facts in rule order), with their ids.
  std::vector<std::pair<Value, ValueId>> constants_;
  std::vector<CompiledRule> rules_;
  std::vector<std::pair<PredicateId, IdRow>> ground_facts_;
  /// Distinct body predicates, the domain of snapshots and watermarks.
  std::vector<PredicateId> body_preds_;
  /// Every (predicate, columns) index a plan probes, in first-use order.
  std::vector<std::pair<PredicateId, std::vector<uint32_t>>> probed_indexes_;
  std::size_t max_vars_ = 0;
  std::size_t max_keys_ = 0;
  std::size_t max_head_ = 0;
};

/// Bottom-up evaluator for positive (negation-free) Datalog, with two
/// strategies:
///
/// * kNaive — every iteration re-derives from the full relations; the
///   textbook baseline.
/// * kSemiNaive — delta-driven: each rule is re-evaluated only against the
///   facts that appeared since it was last processed, joining the delta of
///   one body atom with the full extent of the others.
///
/// Rules compile to match plans (CompiledProgram): predicate names intern
/// to dense PredicateIds, and for each (rule, delta-atom) order the bind/
/// check/probe structure of every step is fixed at compile time. An
/// evaluator binds a compiled program to its store, so a program compiled
/// once can be evaluated many times without recompiling. Matching runs
/// against the fact store's flat arenas through the allocation-free
/// ProbeEach cursor; derived facts are buffered per activation and merged
/// after it, so the store is never mutated mid-scan.
///
/// Run() is resumable: callers may insert extensional facts into the store
/// between calls and re-run; semi-naive watermarks persist across calls,
/// so only new facts are reprocessed. The paper's source-driven evaluation
/// (Section 3.3) relies on this to interleave Datalog rounds with source
/// queries.
class Evaluator {
 public:
  enum class Mode { kNaive, kSemiNaive };

  struct Options {
    Mode mode = Mode::kSemiNaive;
    /// Observability: when set (and enabled), every fixpoint round emits
    /// one "eval.round" span with its activation / derived-fact counters;
    /// tracing cannot perturb evaluation. Null: the hot path pays two
    /// branches per round. Must outlive the evaluator.
    obs::Tracer* tracer = nullptr;
  };

  /// Compiles `program` against `store`: checks that it is safe
  /// (Proposition 3.1's precondition) and uses every predicate with one
  /// arity, declares every predicate into the store (so facts arriving
  /// from outside, such as source results, are arity-checked against the
  /// program), interns every rule constant, and builds the match plans.
  static Result<std::shared_ptr<const CompiledProgram>> Compile(
      const Program& program, FactStore* store);

  /// Binds `compiled` to `store`: replays its predicate declarations and
  /// constant interning in compile order, pre-builds every index the
  /// plans probe, and sizes the match scratch. A store that hands out
  /// other ids than the one `compiled` was compiled against (its
  /// dictionary already held other values) gets the same program compiled
  /// afresh over its own ids.
  /// `store` must outlive the evaluator.
  static Result<std::unique_ptr<Evaluator>> Create(
      std::shared_ptr<const CompiledProgram> compiled, FactStore* store,
      const Options& options);

  /// Compile() against `store`, then bind.
  static Result<std::unique_ptr<Evaluator>> Create(
      const Program& program, FactStore* store,
      Mode mode = Mode::kSemiNaive);
  static Result<std::unique_ptr<Evaluator>> Create(const Program& program,
                                                   FactStore* store,
                                                   const Options& options);

  /// Runs to fixpoint over the store's current contents.
  Status Run();

  const EvalStats& stats() const { return stats_; }

 private:
  using CompiledRule = CompiledProgram::CompiledRule;
  using MatchPlan = CompiledProgram::MatchPlan;
  using MatchStep = CompiledProgram::MatchStep;
  using CompiledTerm = CompiledProgram::CompiledTerm;

  /// Reusable match buffers; sized once at bind so the match loop never
  /// allocates.
  struct MatchScratch {
    std::vector<ValueId> binding;
    std::vector<ValueId> keys;
    std::vector<ValueId> head_row;
  };

  /// Arity-strided buffer of derived rows with open-addressing dedup,
  /// reused across activations.
  struct DerivedBuffer {
    std::vector<ValueId> arena;
    std::vector<uint32_t> slots;
    std::size_t arity = 0;
    std::size_t num_rows = 0;

    void Reset(std::size_t row_arity);
    bool Add(RowView row);  // false when already buffered
    RowView RowAt(std::size_t i) const {
      return RowView(arena.data() + i * arity, arity);
    }
  };

  Evaluator(FactStore* store, const Options& options)
      : store_(store), options_(options) {}

  /// `compiled` over the ids `store` handed out when it replayed
  /// `compiled`'s declarations and interning.
  static std::shared_ptr<const CompiledProgram> Rebind(
      const CompiledProgram& compiled, const FactStore& store);

  void SeedFacts();
  void RefreshSnapshot();
  Status RunNaive();
  Status RunSemiNaive();

  /// Matches one activation — `rule` under `plan`, its first atom over
  /// rows [scan_lo, scan_hi) — against the store, collecting the derived
  /// rows the store does not hold yet, deduped, in `buffer_`.
  void MatchActivation(const CompiledRule& rule, const MatchPlan& plan,
                       std::size_t scan_lo, std::size_t scan_hi);

  template <typename Sink>
  void MatchStepRec(const CompiledRule& rule, const MatchPlan& plan,
                    std::size_t k, std::size_t scan_lo, std::size_t scan_hi,
                    Sink& sink);

  /// Inserts `buffer_` into the store, updating facts_derived; sets
  /// *derived_new when any row was new.
  Status MergeBuffer(const CompiledRule& rule, bool* derived_new);

  FactStore* store_;
  Options options_;
  std::shared_ptr<const CompiledProgram> compiled_;
  bool facts_seeded_ = false;
  /// Per-predicate row-count snapshot taken at the top of each round; the
  /// limit for every non-delta atom range.
  std::vector<std::size_t> snapshot_;
  /// Semi-naive: per-predicate count of rows already processed as delta.
  std::vector<std::size_t> processed_;
  MatchScratch scratch_;
  /// The current activation's derived rows. Buffered, not inserted as
  /// found, so a self-recursive rule never scans its own inserts.
  DerivedBuffer buffer_;
  EvalStats stats_;
};

}  // namespace limcap::datalog

#endif  // LIMCAP_DATALOG_EVALUATOR_H_
