#ifndef LIMCAP_ANALYSIS_DIAGNOSTICS_H_
#define LIMCAP_ANALYSIS_DIAGNOSTICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace limcap::analysis {

/// Severity of a diagnostic. Errors make `limcap_lint` exit non-zero and
/// trip the strict mediator gate; warnings and notes are advisory.
enum class Severity { kError, kWarning, kNote };

/// "error" / "warning" / "note".
const char* SeverityToString(Severity severity);

/// Escapes `text` for inclusion in a JSON string literal.
std::string JsonEscape(const std::string& text);

/// Stable diagnostic codes. The numeric value is the code's LC number and
/// must never be reused or renumbered: golden files, CI greps and user
/// scripts key on them. Gaps group the codes by family (00x structural,
/// 01x catalog-aware, 02x executability).
enum class Code {
  /// A predicate is used with two different arities.
  kArityClash = 1,
  /// A head variable does not occur in the rule's (positive) body —
  /// range restriction, Ullman's safety used by Proposition 3.1.
  kUnsafeHeadVariable = 2,
  /// A fact (empty-body rule) contains a variable. Covers the Section 7
  /// requirement that cached-tuple and domain-knowledge facts be ground.
  kNonGroundFact = 3,
  /// A body predicate has no rules, no facts, and is not a catalog view:
  /// its relation is necessarily empty.
  kUndeclaredPredicate = 4,
  /// A variable occurs exactly once in its rule: either dead (projected
  /// away on arrival) or, in hand-written programs, a likely typo.
  kSingletonVariable = 5,
  /// The rule's head predicate is not reachable from the goal predicate
  /// in the dependency graph; Section 6's RemoveUselessRules drops it.
  kGoalUnreachableRule = 6,
  /// The program is recursive (informational; Π(Q, V) always is).
  kRecursiveProgram = 7,
  /// A body atom over a catalog view has the wrong number of arguments.
  kViewArityMismatch = 10,
  /// No body ordering binds a source-view atom's required-bound
  /// attributes (by head input adornment, constants, or earlier atoms)
  /// under any of the view's templates — the adorned executability
  /// failure of Sections 2-3.
  kUnbindableViewAtom = 20,
  /// The rule can never derive a fact: some body atom's relation is
  /// provably empty in every source-driven evaluation. Pruning such a
  /// rule never changes the answer.
  kRuleNeverFires = 21,
  /// An IDB predicate none of whose rules can ever fire.
  kUnproduciblePredicate = 22,
  /// A source view none of whose templates can ever be queried: some
  /// required-bound attribute's domain predicate is never populated.
  kUnfetchableView = 23,
  /// Binding-flow verdict (03x family): a fetch channel (view,
  /// template) is reachable — the evaluator will form queries for it —
  /// but nothing it returns can ever feed the goal. Strictly stronger
  /// than `can_fire`; carries a machine-checkable irrelevance
  /// certificate (the closed needed-set the channel's view is outside).
  kStaticallyIrrelevantChannel = 30,
  /// A fetch channel whose required-bound domains are never populated
  /// under the query's input bindings: no query can ever be formed for
  /// it. Carries an unreachability refutation (the forward-closed
  /// populated set missing a bound domain).
  kUnreachableChannel = 31,
  /// Static per-source bounds: frontier depth (first fetch wave a query
  /// for the source can be formed) and, when all feeding domains are
  /// constant-only, an upper bound on the number of distinct queries.
  kStaticBounds = 32,
};

/// "LC001", "LC020", ...
std::string CodeName(Code code);

/// The severity a code is reported at.
Severity DefaultSeverity(Code code);

/// Where a diagnostic points. All fields are optional; `rule` and `atom`
/// index into the analyzed program, `line`/`column` come from the parser
/// source map when the program was parsed from text (1-based, 0 =
/// unknown).
struct Location {
  static constexpr int kNone = -1;
  /// Rule index in program order, or kNone.
  int rule = kNone;
  /// Body atom index within the rule; kNone = the head or the whole rule.
  int atom = kNone;
  int line = 0;
  int column = 0;
  /// The rule (or other construct) rendered as text, for display.
  std::string context;
};

/// One diagnostic: a coded finding with a message, a location, and
/// optional attached notes (extra explanatory lines).
struct Diagnostic {
  Code code = Code::kArityClash;
  Severity severity = Severity::kError;
  std::string message;
  Location location;
  std::vector<std::string> notes;
};

/// An ordered collection of diagnostics with stable rendering. Passes
/// append in discovery order; `Sort()` orders by (rule, atom, code,
/// insertion) so renders are deterministic regardless of pass order.
class DiagnosticBag {
 public:
  /// Appends a fully built diagnostic.
  void Add(Diagnostic diagnostic);

  /// Appends `message` under `code` at its default severity.
  Diagnostic& Report(Code code, std::string message, Location location = {});

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  /// Mutable access for post-processing passes that decorate earlier
  /// findings (e.g. attaching a domain-fact note to an LC003).
  std::vector<Diagnostic>& mutable_diagnostics() { return diagnostics_; }
  std::size_t size() const { return diagnostics_.size(); }
  bool empty() const { return diagnostics_.empty(); }

  std::size_t count(Severity severity) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }
  std::size_t notes() const { return count(Severity::kNote); }
  bool has_errors() const { return errors() > 0; }

  /// Stable-sorts by (rule index, atom index, code, insertion order).
  void Sort();

  /// Human-readable report, one block per diagnostic:
  ///
  ///   error[LC020] no body ordering binds ... of view atom v6(...)
  ///     --> rule 4, body atom 1 (line 5): v6^(Isbn, Price) :- ...
  ///     note: template 'bf' is missing {Isbn}
  ///   1 error, 0 warnings, 0 notes
  std::string RenderText() const;

  /// Machine-readable report:
  /// {"diagnostics":[{"code":"LC020","severity":"error",...}],
  ///  "errors":1,"warnings":0,"notes":0}
  std::string RenderJson() const;

  /// An error Status carrying the first error's message (prefixed with
  /// its code) and the total error count; OK when there are no errors.
  Status ToStatus() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace limcap::analysis

#endif  // LIMCAP_ANALYSIS_DIAGNOSTICS_H_
