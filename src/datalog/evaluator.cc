#include "datalog/evaluator.h"

#include <algorithm>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "datalog/safety.h"

namespace limcap::datalog {

namespace {

constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

}  // namespace

void Evaluator::DerivedBuffer::Reset(std::size_t row_arity) {
  arity = row_arity;
  num_rows = 0;
  arena.clear();
  slots.assign(std::max<std::size_t>(16, slots.size()), kEmptySlot);
}

bool Evaluator::DerivedBuffer::Add(RowView row) {
  const std::size_t mask = slots.size() - 1;
  std::size_t slot = HashSpan(row.data(), row.size()) & mask;
  while (true) {
    const uint32_t occupant = slots[slot];
    if (occupant == kEmptySlot) break;
    RowView stored = RowAt(occupant);
    if (std::equal(row.begin(), row.end(), stored.begin())) return false;
    slot = (slot + 1) & mask;
  }
  slots[slot] = static_cast<uint32_t>(num_rows);
  arena.insert(arena.end(), row.begin(), row.end());
  ++num_rows;
  if (10 * (num_rows + 1) > 7 * slots.size()) {
    // Rehash at double capacity.
    std::vector<uint32_t> grown(slots.size() * 2, kEmptySlot);
    const std::size_t grown_mask = grown.size() - 1;
    for (std::size_t i = 0; i < num_rows; ++i) {
      RowView r = RowAt(i);
      std::size_t s = HashSpan(r.data(), r.size()) & grown_mask;
      while (grown[s] != kEmptySlot) s = (s + 1) & grown_mask;
      grown[s] = static_cast<uint32_t>(i);
    }
    slots = std::move(grown);
  }
  return true;
}

Result<std::shared_ptr<const CompiledProgram>> Evaluator::Compile(
    const Program& program, FactStore* store) {
  LIMCAP_RETURN_NOT_OK(CheckSafety(program));
  // Pre-declare every predicate's arity so facts arriving from outside
  // (source results) are arity-checked against the program instead of
  // silently defining a conflicting shape. This also interns every
  // predicate to its dense id.
  LIMCAP_ASSIGN_OR_RETURN(auto arities, program.PredicateArities());
  auto compiled = std::shared_ptr<CompiledProgram>(new CompiledProgram());
  compiled->predicates_.reserve(arities.size());
  for (auto& [predicate, arity] : arities) {
    LIMCAP_ASSIGN_OR_RETURN(PredicateId id, store->DeclareId(predicate, arity));
    compiled->predicates_.push_back({std::move(predicate), arity, id});
  }
  std::unordered_set<ValueId> interned;
  auto intern = [&](const Value& value) {
    const ValueId id = store->dict().Intern(value);
    if (interned.insert(id).second) {
      compiled->constants_.emplace_back(value, id);
    }
    return id;
  };

  for (const Rule& rule : program.rules()) {
    // Variable name -> dense index within the rule.
    std::unordered_map<std::string, uint32_t> var_ids;
    auto compile_atom = [&](const Atom& atom) {
      CompiledProgram::CompiledAtom compiled_atom;
      compiled_atom.pred = store->FindPredicate(atom.predicate);
      for (const Term& term : atom.terms) {
        CompiledTerm ct;
        if (term.is_variable()) {
          ct.is_var = true;
          auto [it, inserted] = var_ids.emplace(
              term.var(), static_cast<uint32_t>(var_ids.size()));
          ct.var = it->second;
          ct.constant = 0;
        } else {
          ct.is_var = false;
          ct.var = 0;
          ct.constant = intern(term.constant());
        }
        compiled_atom.terms.push_back(ct);
      }
      return compiled_atom;
    };

    if (rule.is_fact()) {
      // Ground facts are seeded directly; safety guarantees groundness.
      IdRow row;
      row.reserve(rule.head.terms.size());
      for (const Term& term : rule.head.terms) {
        row.push_back(intern(term.constant()));
      }
      compiled->ground_facts_.emplace_back(
          store->FindPredicate(rule.head.predicate), std::move(row));
      continue;
    }

    CompiledRule compiled_rule;
    compiled_rule.body.reserve(rule.body.size());
    for (const Atom& atom : rule.body) {
      compiled_rule.body.push_back(compile_atom(atom));
    }
    compiled_rule.head = compile_atom(rule.head);
    compiled_rule.num_vars = static_cast<uint32_t>(var_ids.size());
    compiled->rules_.push_back(std::move(compiled_rule));
  }
  compiled->BuildPlans();
  return std::shared_ptr<const CompiledProgram>(std::move(compiled));
}

Result<std::unique_ptr<Evaluator>> Evaluator::Create(const Program& program,
                                                     FactStore* store,
                                                     Mode mode) {
  Options options;
  options.mode = mode;
  return Create(program, store, options);
}

Result<std::unique_ptr<Evaluator>> Evaluator::Create(const Program& program,
                                                     FactStore* store,
                                                     const Options& options) {
  LIMCAP_ASSIGN_OR_RETURN(auto compiled, Compile(program, store));
  return Create(std::move(compiled), store, options);
}

Result<std::unique_ptr<Evaluator>> Evaluator::Create(
    std::shared_ptr<const CompiledProgram> compiled, FactStore* store,
    const Options& options) {
  // Replay the compile-time declarations and interning in their order, so
  // the store and its dictionary evolve exactly as if the program were
  // compiled here. Where they hand out the recorded ids — always, for a
  // fresh store whose dictionary holds what the compiling one held — the
  // plans run as compiled.
  bool same_ids = true;
  for (const CompiledProgram::DeclaredPredicate& predicate :
       compiled->predicates_) {
    LIMCAP_ASSIGN_OR_RETURN(PredicateId id,
                            store->DeclareId(predicate.name, predicate.arity));
    if (id != predicate.id) same_ids = false;
  }
  for (const auto& [value, id] : compiled->constants_) {
    if (store->dict().Intern(value) != id) same_ids = false;
  }
  if (!same_ids) compiled = Rebind(*compiled, *store);

  auto evaluator =
      std::unique_ptr<Evaluator>(new Evaluator(store, options));
  // Pre-build every index the plans probe: a probe without its index
  // falls back to scanning the whole range.
  for (const auto& [pred, columns] : compiled->probed_indexes_) {
    store->EnsureIndex(pred, columns);
  }
  MatchScratch& scratch = evaluator->scratch_;
  scratch.binding.assign(compiled->max_vars_, 0);
  scratch.keys.assign(compiled->max_keys_, 0);
  scratch.head_row.assign(compiled->max_head_, 0);
  evaluator->stats_.scratch_bytes =
      (compiled->max_vars_ + compiled->max_keys_ + compiled->max_head_) *
      sizeof(ValueId);
  evaluator->compiled_ = std::move(compiled);
  return evaluator;
}

std::shared_ptr<const CompiledProgram> Evaluator::Rebind(
    const CompiledProgram& compiled, const FactStore& store) {
  // Recorded id -> this store's id, through the names and values the
  // tables recorded; then the atoms are re-keyed and the plans rebuilt.
  std::unordered_map<PredicateId, PredicateId> pred_ids;
  std::unordered_map<ValueId, ValueId> value_ids;
  auto rebound = std::shared_ptr<CompiledProgram>(new CompiledProgram());
  rebound->predicates_ = compiled.predicates_;
  for (CompiledProgram::DeclaredPredicate& predicate : rebound->predicates_) {
    const PredicateId id = store.FindPredicate(predicate.name);
    pred_ids.emplace(predicate.id, id);
    predicate.id = id;
  }
  rebound->constants_ = compiled.constants_;
  for (auto& [value, id] : rebound->constants_) {
    ValueId now = 0;
    store.dict().Lookup(value, &now);
    value_ids.emplace(id, now);
    id = now;
  }
  auto rekey = [&](const CompiledProgram::CompiledAtom& atom) {
    CompiledProgram::CompiledAtom out = atom;
    out.pred = pred_ids.at(atom.pred);
    for (CompiledTerm& term : out.terms) {
      if (!term.is_var) term.constant = value_ids.at(term.constant);
    }
    return out;
  };
  for (const CompiledRule& rule : compiled.rules_) {
    CompiledRule copy;
    copy.head = rekey(rule.head);
    for (const auto& atom : rule.body) copy.body.push_back(rekey(atom));
    copy.num_vars = rule.num_vars;
    rebound->rules_.push_back(std::move(copy));
  }
  for (const auto& [pred, row] : compiled.ground_facts_) {
    IdRow copy;
    for (ValueId id : row) copy.push_back(value_ids.at(id));
    rebound->ground_facts_.emplace_back(pred_ids.at(pred), std::move(copy));
  }
  rebound->BuildPlans();
  return rebound;
}

void CompiledProgram::BuildPlans() {
  std::set<std::pair<PredicateId, std::vector<uint32_t>>> probed;
  for (CompiledRule& rule : rules_) {
    rule.plans.clear();
    for (std::size_t d = 0; d <= rule.body.size(); ++d) {
      rule.plans.push_back(BuildPlan(rule, GreedyOrder(rule, d)));
    }
    for (const CompiledAtom& atom : rule.body) {
      body_preds_.push_back(atom.pred);
    }
    max_vars_ = std::max<std::size_t>(max_vars_, rule.num_vars);
    max_head_ = std::max<std::size_t>(max_head_, rule.head.terms.size());
    for (const MatchPlan& plan : rule.plans) {
      max_keys_ = std::max<std::size_t>(max_keys_, plan.key_parts.size());
      for (const MatchStep& step : plan.steps) {
        if (step.num_keys == 0) continue;
        auto columns = plan.probe_cols.begin() + step.key_offset;
        std::pair<PredicateId, std::vector<uint32_t>> index(
            step.pred, std::vector<uint32_t>(columns, columns + step.num_keys));
        if (probed.insert(index).second) {
          probed_indexes_.push_back(std::move(index));
        }
      }
    }
  }
  // The set of body predicates drives snapshots and delta watermarks.
  std::sort(body_preds_.begin(), body_preds_.end());
  body_preds_.erase(std::unique(body_preds_.begin(), body_preds_.end()),
                    body_preds_.end());
}

std::vector<std::size_t> CompiledProgram::GreedyOrder(
    const CompiledRule& rule, std::size_t first_atom) {
  std::vector<std::size_t> order;
  std::vector<bool> used(rule.body.size(), false);
  std::vector<bool> bound(rule.num_vars, false);

  auto bind_atom = [&](std::size_t index) {
    for (const CompiledTerm& term : rule.body[index].terms) {
      if (term.is_var) bound[term.var] = true;
    }
  };
  if (first_atom < rule.body.size()) {
    order.push_back(first_atom);
    used[first_atom] = true;
    bind_atom(first_atom);
  }
  while (order.size() < rule.body.size()) {
    // Pick the unused atom with the most bound argument positions
    // (constants count as bound); ties resolve to program order.
    std::size_t best = rule.body.size();
    std::size_t best_score = 0;
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (used[i]) continue;
      std::size_t score = 1;  // so the first candidate wins over "none"
      for (const CompiledTerm& term : rule.body[i].terms) {
        if (!term.is_var || bound[term.var]) ++score;
      }
      if (best == rule.body.size() || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    order.push_back(best);
    used[best] = true;
    bind_atom(best);
  }
  return order;
}

CompiledProgram::MatchPlan CompiledProgram::BuildPlan(
    const CompiledRule& rule, const std::vector<std::size_t>& order) {
  MatchPlan plan;
  std::vector<bool> bound(rule.num_vars, false);
  auto size32 = [](const auto& items) {
    return static_cast<uint32_t>(items.size());
  };
  for (std::size_t k = 0; k < order.size(); ++k) {
    const CompiledAtom& atom = rule.body[order[k]];
    MatchStep step;
    step.pred = atom.pred;
    step.binds_begin = size32(plan.binds);
    step.checks_begin = size32(plan.checks);
    step.key_offset = size32(plan.key_parts);
    // Variables bound by earlier steps may serve as probe-key parts; a
    // variable first bound by this very atom may not (its value comes
    // from the row being examined), so repeats within the atom become
    // equality checks instead.
    const std::vector<bool> bound_before = bound;
    for (std::size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const CompiledTerm& term = atom.terms[pos];
      const uint32_t pos32 = static_cast<uint32_t>(pos);
      if (!term.is_var) {
        if (k == 0) {
          plan.checks.push_back({pos32, true, term.constant, 0});
        } else {
          plan.probe_cols.push_back(pos32);
          plan.key_parts.push_back({true, term.constant, 0});
        }
      } else if (!bound[term.var]) {
        bound[term.var] = true;
        plan.binds.push_back({pos32, term.var});
      } else if (k > 0 && bound_before[term.var]) {
        plan.probe_cols.push_back(pos32);
        plan.key_parts.push_back({false, 0, term.var});
      } else {
        // Step 0 scans; and repeated variables within one atom check
        // against the binding their first occurrence just wrote.
        plan.checks.push_back({pos32, false, 0, term.var});
      }
    }
    step.num_binds = size32(plan.binds) - step.binds_begin;
    step.num_checks = size32(plan.checks) - step.checks_begin;
    step.num_keys = size32(plan.key_parts) - step.key_offset;
    plan.steps.push_back(step);
  }
  return plan;
}

void Evaluator::SeedFacts() {
  if (facts_seeded_) return;
  const uint64_t facts_before = stats_.facts_derived;
  for (const auto& [pred, row] : compiled_->ground_facts_) {
    auto inserted = store_->InsertIds(pred, RowView(row));
    if (inserted.ok() && inserted.value()) ++stats_.facts_derived;
  }
  facts_seeded_ = true;
  // Seeded ground facts count into facts_derived but fall outside every
  // "eval.round" span; this instant keeps the trace's fact accounting
  // complete (round facts + seed facts == facts_derived).
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    const obs::SpanId span = options_.tracer->Instant("eval.seed");
    options_.tracer->Counter(
        span, "facts", static_cast<double>(stats_.facts_derived - facts_before));
  }
}

Status Evaluator::Run() {
  SeedFacts();
  switch (options_.mode) {
    case Mode::kNaive:
      return RunNaive();
    case Mode::kSemiNaive:
      return RunSemiNaive();
  }
  return Status::InvalidArgument("unknown evaluation mode");
}

void Evaluator::RefreshSnapshot() {
  snapshot_.assign(store_->NumPredicates(), 0);
  if (processed_.size() < snapshot_.size()) {
    processed_.resize(snapshot_.size(), 0);
  }
  for (PredicateId pred : compiled_->body_preds_) {
    snapshot_[pred] = store_->Count(pred);
  }
}

template <typename Sink>
void Evaluator::MatchStepRec(const CompiledRule& rule, const MatchPlan& plan,
                             std::size_t k, std::size_t scan_lo,
                             std::size_t scan_hi, Sink& sink) {
  if (k == plan.steps.size()) {
    ++stats_.matches;
    for (std::size_t i = 0; i < rule.head.terms.size(); ++i) {
      const CompiledTerm& term = rule.head.terms[i];
      scratch_.head_row[i] =
          term.is_var ? scratch_.binding[term.var] : term.constant;
    }
    sink(RowView(scratch_.head_row.data(), rule.head.terms.size()));
    return;
  }

  const MatchStep& step = plan.steps[k];
  const std::span<const CompiledProgram::Bind> binds(
      plan.binds.data() + step.binds_begin, step.num_binds);
  const std::span<const CompiledProgram::Check> checks(
      plan.checks.data() + step.checks_begin, step.num_checks);

  // Applies one row: writes first-occurrence bindings, then verifies
  // equality checks. Binds-before-checks is correct even for repeated
  // variables within the atom (the check reads the binding the bind just
  // wrote). Nothing to undo: bind sets are static per step, so stale
  // bindings are never read.
  auto apply_row = [&](RowView row) {
    for (const CompiledProgram::Bind& bind : binds) {
      scratch_.binding[bind.var] = row[bind.pos];
    }
    for (const CompiledProgram::Check& check : checks) {
      const ValueId expect =
          check.is_const ? check.constant : scratch_.binding[check.var];
      if (row[check.pos] != expect) return;
    }
    MatchStepRec(rule, plan, k + 1, scan_lo, scan_hi, sink);
  };

  if (k == 0) {
    // First atom: contiguous scan — the delta range for delta plans, the
    // full snapshot extent for the naive plan.
    const FactSpan facts = store_->Facts(step.pred);
    for (std::size_t pos = scan_lo; pos < scan_hi; ++pos) {
      ++stats_.scan_rows;
      apply_row(facts[pos]);
    }
    return;
  }

  const std::size_t limit = snapshot_[step.pred];
  if (step.num_keys == 0) {
    const FactSpan facts = store_->Facts(step.pred);
    const std::size_t bound = std::min(limit, facts.size());
    for (std::size_t pos = 0; pos < bound; ++pos) {
      ++stats_.scan_rows;
      apply_row(facts[pos]);
    }
    return;
  }

  // Assemble the probe key in this step's fixed scratch slot.
  ValueId* key = scratch_.keys.data() + step.key_offset;
  for (uint32_t i = 0; i < step.num_keys; ++i) {
    const CompiledProgram::KeyPart& part = plan.key_parts[step.key_offset + i];
    key[i] = part.is_const ? part.constant : scratch_.binding[part.var];
  }
  ++stats_.probes;
  const FactSpan facts = store_->Facts(step.pred);
  store_->ProbeEach(step.pred,
                    std::span<const uint32_t>(
                        plan.probe_cols.data() + step.key_offset,
                        step.num_keys),
                    RowView(key, step.num_keys), limit,
                    [&](std::size_t pos) {
                      ++stats_.probe_rows;
                      apply_row(facts[pos]);
                      return true;
                    });
}

void Evaluator::MatchActivation(const CompiledRule& rule,
                                const MatchPlan& plan, std::size_t scan_lo,
                                std::size_t scan_hi) {
  buffer_.Reset(rule.head.terms.size());
  auto sink = [&](RowView head_row) {
    // Dedup against the store first (cheap membership probe), then within
    // the buffer.
    if (store_->Contains(rule.head.pred, head_row)) return;
    buffer_.Add(head_row);
  };
  MatchStepRec(rule, plan, 0, scan_lo, scan_hi, sink);
}

Status Evaluator::MergeBuffer(const CompiledRule& rule, bool* derived_new) {
  for (std::size_t i = 0; i < buffer_.num_rows; ++i) {
    LIMCAP_ASSIGN_OR_RETURN(
        bool inserted, store_->InsertIds(rule.head.pred, buffer_.RowAt(i)));
    if (inserted) {
      ++stats_.facts_derived;
      *derived_new = true;
    }
  }
  return Status::OK();
}

Status Evaluator::RunNaive() {
  const std::vector<CompiledRule>& rules = compiled_->rules_;
  while (true) {
    obs::ScopedSpan round_span(options_.tracer, "eval.round");
    ++stats_.iterations;
    RefreshSnapshot();
    stats_.round_activations.push_back(0);
    const uint64_t facts_before = stats_.facts_derived;
    bool derived_new = false;
    for (const CompiledRule& rule : rules) {
      ++stats_.rule_activations;
      ++stats_.round_activations.back();
      const MatchPlan& plan = rule.plans.back();
      MatchActivation(rule, plan, 0,
                      rule.body.empty() ? 0 : snapshot_[plan.steps[0].pred]);
      LIMCAP_RETURN_NOT_OK(MergeBuffer(rule, &derived_new));
    }
    round_span.Counter("activations",
                       static_cast<double>(stats_.round_activations.back()));
    round_span.Counter(
        "facts", static_cast<double>(stats_.facts_derived - facts_before));
    if (!derived_new) return Status::OK();
  }
}

Status Evaluator::RunSemiNaive() {
  const std::vector<CompiledRule>& rules = compiled_->rules_;
  while (true) {
    RefreshSnapshot();
    bool has_delta = false;
    for (PredicateId pred : compiled_->body_preds_) {
      if (processed_[pred] < snapshot_[pred]) {
        has_delta = true;
        break;
      }
    }
    if (!has_delta) return Status::OK();
    obs::ScopedSpan round_span(options_.tracer, "eval.round");
    ++stats_.iterations;
    stats_.round_activations.push_back(0);
    const uint64_t facts_before = stats_.facts_derived;

    bool derived_new = false;
    for (const CompiledRule& rule : rules) {
      for (std::size_t d = 0; d < rule.body.size(); ++d) {
        const PredicateId pred = rule.body[d].pred;
        const std::size_t lo = processed_[pred];
        const std::size_t hi = snapshot_[pred];
        if (lo >= hi) continue;
        ++stats_.rule_activations;
        ++stats_.round_activations.back();
        MatchActivation(rule, rule.plans[d], lo, hi);
        LIMCAP_RETURN_NOT_OK(MergeBuffer(rule, &derived_new));
      }
    }
    for (PredicateId pred : compiled_->body_preds_) {
      processed_[pred] = std::max(processed_[pred], snapshot_[pred]);
    }
    round_span.Counter("activations",
                       static_cast<double>(stats_.round_activations.back()));
    round_span.Counter(
        "facts", static_cast<double>(stats_.facts_derived - facts_before));
  }
}

}  // namespace limcap::datalog
