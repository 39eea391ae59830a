#include "exec/source_driven_evaluator.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dynamic_relevance.h"
#include "capability/source.h"
#include "relational/schema.h"
#include "runtime/adaptive_dispatcher.h"
#include "runtime/fetch_scheduler.h"

namespace limcap::exec {

namespace {

using capability::AccessRecord;
using capability::Source;
using capability::SourceQuery;
using datalog::kNoPredicate;
using datalog::PredicateId;
using relational::Relation;

/// Marks `id` in a bitmap over dense session ids; true when it was
/// already marked.
bool TestAndSet(std::vector<bool>& seen, ValueId id) {
  if (id >= seen.size()) seen.resize(std::size_t{id} + 1);
  const bool was_seen = seen[id];
  seen[id] = true;
  return was_seen;
}

/// Per-(view, template) fetch state, every name resolved to its id once
/// per execution.
struct FetchSpec {
  Source* source = nullptr;
  /// Shared copy for access records, which outlive the execution.
  std::shared_ptr<const capability::SourceView> view;
  PredicateId view_predicate = kNoPredicate;
  // The template's bound positions in schema order, with their domain
  // predicates (kNoPredicate: absent from the program, never formable).
  std::vector<uint32_t> bound_positions;
  std::vector<PredicateId> bound_domains;
  // The template's free positions, with the domain tracker of each.
  std::vector<uint32_t> free_positions;
  std::vector<std::size_t> free_trackers;
  // Semi-naive state. Every combo of domain rows inside the box
  // [0, watermarks) has been asked; `swept` is set once a round has
  // dispatched the spec's whole delta (for a template without bound
  // positions, its single query). `asked` is the spec's predicate in the
  // execution's asked-set store, declared by the first round that cuts
  // the spec's delta short (eager's one-query rounds, a budget): it holds
  // only the combos such rounds dispatched, which the watermarks cannot
  // express.
  std::vector<std::size_t> watermarks;
  bool swept = false;
  PredicateId asked = kNoPredicate;
  /// The domain extents this round's delta was enumerated against.
  std::vector<std::size_t> extents;
};

/// First-seen values of one domain, for the "New Binding(s)" column of
/// the trace: a bitmap over session ids fed by returned rows' free values
/// and by the domain predicate's rows appended since the last sync.
struct DomainTracker {
  PredicateId predicate = kNoPredicate;
  std::size_t synced = 0;
  std::vector<bool> seen;
};

}  // namespace

Result<ExecResult> SourceDrivenEvaluator::Execute(
    const datalog::Program& program, const planner::Query& query) {
  return Execute(program, nullptr, query);
}

Result<ExecResult> SourceDrivenEvaluator::Execute(
    const datalog::Program& program,
    std::shared_ptr<const datalog::CompiledProgram> compiled,
    const planner::Query& query) {
  obs::ScopedSpan exec_span(options_.tracer, "exec");
  ExecResult result;
  if (options_.session_dict != nullptr) {
    result.store = datalog::FactStore(options_.session_dict);
  }
  const ValueDictionaryPtr& dict = result.store.dict_ptr();
  result.session_dict = dict;

  datalog::Evaluator::Options eval_options;
  eval_options.mode = options_.mode;
  eval_options.tracer = options_.tracer;
  LIMCAP_ASSIGN_OR_RETURN(
      auto evaluator,
      compiled != nullptr
          ? datalog::Evaluator::Create(std::move(compiled), &result.store,
                                       eval_options)
          : datalog::Evaluator::Create(program, &result.store, eval_options));
  // The store is fresh, so its predicates are exactly the program's.
  datalog::FactStore& store = result.store;

  // Tracks the domain values already seen, for the "New Binding(s)"
  // column of the trace (updated eagerly as queries return, ahead of the
  // Datalog round that formally derives them). One tracker per distinct
  // domain of a free position; only unary rows are domain values.
  std::vector<DomainTracker> trackers;
  std::map<std::string, std::size_t> tracker_of;
  auto tracker_for = [&](const std::string& domain) {
    auto [it, inserted] = tracker_of.try_emplace(domain, trackers.size());
    if (inserted) {
      DomainTracker tracker;
      tracker.predicate = store.FindPredicate(domain);
      if (tracker.predicate != kNoPredicate &&
          store.Arity(tracker.predicate) != 1) {
        tracker.predicate = kNoPredicate;
      }
      trackers.push_back(std::move(tracker));
    }
    return it->second;
  };
  auto sync_domains = [&]() {
    for (DomainTracker& tracker : trackers) {
      if (tracker.predicate == kNoPredicate) continue;
      const std::size_t count = store.Count(tracker.predicate);
      for (; tracker.synced < count; ++tracker.synced) {
        TestAndSet(tracker.seen, store.Row(tracker.predicate,
                                           tracker.synced)[0]);
      }
    }
  };

  // Identify the views the program reads and prepare their fetch state.
  // Channels the static gate proved irrelevant (or unreachable) are
  // dropped before scheduling: the binding-flow soundness property
  // (analysis/binding_flow.h) guarantees the answer is unchanged.
  const std::set<std::pair<std::string, std::size_t>> pruned(
      options_.pruned_channels.begin(), options_.pruned_channels.end());
  std::size_t pruned_specs = 0;
  std::vector<FetchSpec> specs;
  // The specs' asked-sets (FetchSpec::asked): open-addressing row sets
  // over flat id arenas.
  datalog::FactStore asked(dict);
  // Channel metadata for the dynamic relevance checker: every (view,
  // template) of every mentioned view, statically pruned ones included
  // (their alpha rules still exist; the taint analysis must know their
  // binding shape), with spec_to_channel mapping the fetchable subset.
  std::vector<analysis::DynamicChannelInfo> channels;
  std::vector<std::size_t> spec_to_channel;
  // The views are the program's predicates that name a catalog view (a
  // view named like a domain predicate still counts), in registration
  // order: spec order is frontier order.
  std::vector<std::pair<std::size_t, PredicateId>> read_views;
  for (PredicateId p = 0; p < store.NumPredicates(); ++p) {
    if (auto index = catalog_->IndexOf(store.PredicateName(p))) {
      read_views.emplace_back(*index, p);
    }
  }
  std::sort(read_views.begin(), read_views.end());
  for (const auto& [index, view_predicate] : read_views) {
    const std::string& name = store.PredicateName(view_predicate);
    LIMCAP_ASSIGN_OR_RETURN(Source * source, catalog_->Find(name));
    const capability::SourceView& view = source->view();
    auto shared_view = std::make_shared<const capability::SourceView>(view);
    for (std::size_t t = 0; t < view.templates().size(); ++t) {
      analysis::DynamicChannelInfo channel;
      channel.view = name;
      channel.template_index = t;
      for (std::size_t i = 0; i < view.schema().arity(); ++i) {
        channel.attributes.push_back(view.schema().attribute(i));
        channel.domains.push_back(
            domains_.DomainOf(view.schema().attribute(i)));
      }
      for (std::size_t i : view.templates()[t].BoundPositions()) {
        channel.bound_positions.push_back(static_cast<uint32_t>(i));
      }
      channel.fetchable = pruned.count({name, t}) == 0;
      if (!channel.fetchable) {
        ++pruned_specs;
        channels.push_back(std::move(channel));
        continue;
      }
      FetchSpec spec;
      spec.source = source;
      spec.view = shared_view;
      spec.view_predicate = view_predicate;
      const capability::BindingPattern& pattern = view.templates()[t];
      for (std::size_t i = 0; i < pattern.arity(); ++i) {
        if (pattern.IsBound(i)) {
          spec.bound_positions.push_back(static_cast<uint32_t>(i));
          spec.bound_domains.push_back(
              store.FindPredicate(channel.domains[i]));
        } else {
          spec.free_positions.push_back(static_cast<uint32_t>(i));
          spec.free_trackers.push_back(tracker_for(channel.domains[i]));
        }
      }
      spec.watermarks.assign(spec.bound_positions.size(), 0);
      specs.push_back(std::move(spec));
      channels.push_back(std::move(channel));
      spec_to_channel.push_back(channels.size() - 1);
    }
  }
  if (pruned_specs > 0) {
    exec_span.Counter("pruned_channels", double(pruned_specs));
    if (options_.metrics != nullptr) {
      options_.metrics->Add(obs::metric::kAnalysisPrunedChannels,
                            double(pruned_specs));
    }
  }

  // Single-translation accounting: everything after plan compilation is
  // id-only except source ingest, which accrues into `ingest_allowance`.
  const uint64_t translations_at_start = dict->translation_count();
  uint64_t ingest_allowance = 0;

  // The source-access runtime. One scheduler serves the whole execution,
  // so circuit-breaker state and the simulated clock carry across rounds.
  runtime::FetchScheduler scheduler(options_.runtime, dict, options_.tracer,
                                    !options_.continue_on_source_error);

  // The runtime-adaptive layer (off by default). The checker re-derives
  // relevance against the actually-materialized bindings each round; it
  // needs the round's FULL frontier for its frozen fixpoint, so dynamic
  // pruning is disabled under the eager strategy (which truncates the
  // frontier before it is fully enumerated).
  const bool eager = options_.strategy == FetchStrategy::kEager;
  std::unique_ptr<runtime::AdaptiveDispatcher> dispatcher;
  std::unique_ptr<analysis::DynamicRelevanceChecker> checker;
  if (options_.runtime.adaptive.enabled) {
    dispatcher = std::make_unique<runtime::AdaptiveDispatcher>(options_.runtime,
                                                               &scheduler);
    if (options_.runtime.adaptive.dynamic_pruning && !eager) {
      analysis::DynamicRelevanceOptions checker_options;
      checker_options.goal_predicate = options_.builder.goal_predicate;
      checker_options.alpha_suffix = options_.builder.alpha_suffix;
      checker = std::make_unique<analysis::DynamicRelevanceChecker>(
          &program, channels, &result.store, checker_options);
    }
  }

  // Folds one answered (or failed) fetch into the store and the trace.
  // Called in frontier order on this thread, which is what makes
  // concurrent dispatch bit-identical to serial: store inserts, log
  // records, and any re-keying Interns happen in the serial order no
  // matter how the batch actually ran.
  auto commit = [&](const FetchSpec& spec, SourceQuery source_query,
                    runtime::FetchResult& fetched) -> Status {
    const capability::SourceView& view = *spec.view;
    AccessRecord record;
    record.source = view.name();
    record.query = std::move(source_query);
    record.view = spec.view;
    record.round = result.rounds;
    const bool source_failed = !fetched.tuples.ok();
    if (source_failed && !options_.continue_on_source_error) {
      return fetched.tuples.status();
    }
    if (source_failed) record.error = fetched.tuples.status().ToString();
    Relation tuples = source_failed ? Relation(view.schema(), dict)
                                    : std::move(fetched.tuples).value();
    if (tuples.dict_ptr() != dict) {
      // A source that ignores the dictionary contract (possible for
      // third-party Source implementations) pays one re-keying pass —
      // still ingest, not hot path.
      tuples = tuples.WithDictionary(dict);
    }
    record.tuples_returned = tuples.size();
    relational::IdRow row_ids;
    for (std::size_t pos = 0; pos < tuples.size(); ++pos) {
      tuples.GatherRowIds(pos, &row_ids);
      LIMCAP_ASSIGN_OR_RETURN(
          bool inserted,
          store.InsertIds(spec.view_predicate, datalog::RowView(row_ids)));
      if (!inserted) continue;
      ++record.new_tuples;
      record.returned_ids.push_back(row_ids);
      // Report first-seen values of free attributes as new bindings.
      for (std::size_t f = 0; f < spec.free_positions.size(); ++f) {
        const uint32_t i = spec.free_positions[f];
        if (!TestAndSet(trackers[spec.free_trackers[f]].seen, row_ids[i])) {
          record.new_binding_ids.emplace_back(view.schema().attribute(i),
                                              row_ids[i]);
        }
      }
    }
    result.log.Record(std::move(record));
    return Status::OK();
  };

  // One round's frontier: the formable, not-yet-asked source queries in
  // serial order (spec order × odometer order), the spec of each, and
  // where each enumerated spec's delta ends. The scheduler dispatches it;
  // the commit loop folds it back in this same order.
  std::vector<runtime::FetchRequest> requests;
  std::vector<std::size_t> request_spec;
  std::vector<std::pair<std::size_t, std::size_t>> delta_ends;
  std::vector<ValueId> combo;

  // Sets the spec's extents to its bound domains' sizes and returns the
  // size of its delta, the combos outside the watermark box: what
  // collect_delta emits at most (the asked-set may hold some). Extents
  // shorter than the bound positions mean some domain is empty, so
  // nothing is formable. Captures sizes, not row views: later inserts may
  // reallocate arenas.
  auto measure_delta = [&](FetchSpec& spec) -> std::size_t {
    spec.extents.clear();
    if (spec.bound_domains.empty()) return spec.swept ? 0 : 1;
    std::size_t box = 1;
    std::size_t asked_box = 1;
    bool overflow = false;
    for (std::size_t i = 0; i < spec.bound_domains.size(); ++i) {
      const PredicateId domain = spec.bound_domains[i];
      if (domain == kNoPredicate || store.Count(domain) == 0) return 0;
      const std::size_t extent = store.Count(domain);
      spec.extents.push_back(extent);
      overflow = overflow || box > std::numeric_limits<std::size_t>::max() /
                                       extent;
      box *= extent;
      asked_box *= spec.watermarks[i];
    }
    // A box past size_t could never be enumerated; reserve nothing for it.
    return overflow ? 0 : box - asked_box;
  };

  // Appends the delta of `spec_index` — its formable combos outside the
  // watermark box and the asked-set — to the frontier, against the
  // extents measure_delta set. Pure reads: the spec's semi-naive state
  // moves only once the frontier is cut to what will actually be
  // dispatched.
  auto collect_delta = [&](std::size_t spec_index) {
    FetchSpec& spec = specs[spec_index];
    if (spec.extents.size() != spec.bound_domains.size()) return;
    auto emit = [&](std::span<const ValueId> ids) {
      runtime::FetchRequest request;
      request.source = spec.source;
      request.query.positions = spec.bound_positions;
      request.query.ids.assign(ids.begin(), ids.end());
      request.query.dict = dict;
      requests.push_back(std::move(request));
      request_spec.push_back(spec_index);
    };
    if (spec.bound_domains.empty()) {
      // A view with no bound attribute has exactly one (empty) query.
      if (!spec.swept) emit({});
    } else {
      combo.resize(spec.bound_domains.size());
      ForEachDeltaCombo(
          spec.extents, spec.watermarks,
          [&](std::span<const std::size_t> pick) {
            for (std::size_t i = 0; i < pick.size(); ++i) {
              combo[i] = store.Row(spec.bound_domains[i], pick[i])[0];
            }
            if (spec.asked == kNoPredicate ||
                !asked.Contains(spec.asked, combo)) {
              emit(combo);
            }
          });
    }
    delta_ends.emplace_back(spec_index, requests.size());
  };

  const std::string& goal = options_.builder.goal_predicate;
  bool done = false;
  while (!done) {
    // The round number is the span's position among "exec.round"
    // siblings; no detail string, so the disabled path allocates nothing.
    obs::ScopedSpan round_span(options_.tracer, "exec.round");
    {
      obs::ScopedSpan eval_span(options_.tracer, "eval");
      LIMCAP_RETURN_NOT_OK(evaluator->Run());
    }
    sync_domains();
    if (store.Count(goal) >= options_.min_answers) {
      // Enough results for the user (Section 7.2); stop fetching.
      result.budget_exhausted = true;
      break;
    }

    // This round's frontier. Domain predicates only grow inside
    // evaluator->Run(), so the full frontier is determined here, before
    // any of its fetches executes — the scheduler may answer it in any
    // physical order and the ordered commit reproduces serial execution.
    requests.clear();
    request_spec.clear();
    delta_ends.clear();
    // Sized once from the deltas, so the frontier never regrows; to a
    // power of two, for the reason AccessLog::MakeRoomFor gives.
    std::size_t frontier_bound = 0;
    for (FetchSpec& spec : specs) frontier_bound += measure_delta(spec);
    if (frontier_bound > requests.capacity()) {
      requests.reserve(std::bit_ceil(frontier_bound));
      request_spec.reserve(std::bit_ceil(frontier_bound));
    }
    for (std::size_t s = 0; s < specs.size(); ++s) {
      collect_delta(s);
      // Eager strategy: one query per round, then go derive.
      if (eager && !requests.empty()) break;
    }
    if (checker != nullptr) {
      // The frozen fixpoint must see the FULL frontier's pending
      // channels — entries a budget truncation drops below still count
      // as pending (conservative: their predicates stay unfrozen).
      std::vector<bool> has_pending(channels.size(), false);
      for (std::size_t spec_index : request_spec) {
        has_pending[spec_to_channel[spec_index]] = true;
      }
      checker->BeginRound(has_pending);
    }
    std::size_t dispatched = requests.size();
    if (eager) dispatched = std::min<std::size_t>(dispatched, 1);
    // Source-access budget: dispatch only up to the budget's remainder;
    // any formable query beyond it makes the answer a partial one.
    const std::size_t remaining =
        options_.max_source_queries - result.log.total_queries();
    if (dispatched > remaining) {
      dispatched = remaining;
      result.budget_exhausted = true;
      done = true;
    }
    requests.resize(dispatched);
    request_spec.resize(dispatched);
    // What goes out counts as asked — a dynamically skipped fetch too (the
    // skip is final). A spec whose whole delta goes out moves its
    // watermarks up to this round's extents; the spec the cut falls
    // inside remembers its dispatched combos instead.
    std::size_t begin = 0;
    for (const auto& [spec_index, end] : delta_ends) {
      FetchSpec& spec = specs[spec_index];
      if (end <= dispatched) {
        spec.watermarks = spec.extents;
        spec.swept = true;
      } else if (begin < dispatched) {
        if (spec.asked == kNoPredicate) {
          LIMCAP_ASSIGN_OR_RETURN(
              spec.asked, asked.DeclareId(std::to_string(spec_index),
                                          spec.bound_positions.size()));
        }
        for (std::size_t i = begin; i < dispatched; ++i) {
          LIMCAP_RETURN_NOT_OK(
              asked.InsertIds(spec.asked, requests[i].query.ids).status());
        }
      }
      begin = end;
    }

    if (!requests.empty()) {
      // Everything the batch window translates — source ingest, private-
      // dictionary cloning under concurrent dispatch, re-keying — is
      // ingest, not hot path.
      const uint64_t before_batch = dict->translation_count();
      runtime::AdaptiveDispatcher::SkipProbe probe;
      if (checker != nullptr) {
        probe = [&](std::size_t i) {
          auto certificate = checker->TrySkip(
              spec_to_channel[request_spec[i]], requests[i].query.ids);
          if (!certificate.has_value()) return false;
          result.skip_certificates.push_back(*std::move(certificate));
          return true;
        };
      }
      std::vector<runtime::FetchResult> fetched =
          dispatcher != nullptr
              ? dispatcher->ExecuteFrontier(requests, probe)
              : scheduler.ExecuteBatch(requests);
      result.log.MakeRoomFor(requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        // A dynamically skipped fetch leaves no trace: no source call,
        // no access record, no store insert, no budget spend — only its
        // certificate.
        if (fetched[i].skipped_dynamic) continue;
        LIMCAP_RETURN_NOT_OK(commit(specs[request_spec[i]],
                                    std::move(requests[i].query),
                                    fetched[i]));
      }
      ingest_allowance += dict->translation_count() - before_batch;
    }
    if (done) {
      // Budget exhausted: derive what we can from the facts on hand.
      obs::ScopedSpan eval_span(options_.tracer, "eval");
      LIMCAP_RETURN_NOT_OK(evaluator->Run());
      break;
    }
    if (requests.empty()) {
      done = true;
    } else {
      ++result.rounds;
    }
  }

  result.fetch_report = scheduler.report();
  if (dispatcher != nullptr) {
    dispatcher->PublishShared();
    for (const auto& [source, count] : dispatcher->skipped_per_source()) {
      result.fetch_report.per_source[source].skipped_dynamic += count;
      result.fetch_report.skipped_dynamic += count;
    }
    result.adaptive_profiles = dispatcher->profiles();
  }
  if (checker != nullptr) {
    // The checker's inputs ride along so certificates stay re-verifiable
    // after the evaluator is gone (ExecResult::adaptive_program doc).
    result.adaptive_program = program;
    result.adaptive_channels = checker->channels();
  }
  result.datalog_stats = evaluator->stats();
  result.post_ingest_translations =
      dict->translation_count() - translations_at_start - ingest_allowance;

  // The goal predicate and the answer share the session dictionary, so
  // this copies ids without decoding.
  LIMCAP_ASSIGN_OR_RETURN(relational::Schema out_schema,
                          relational::Schema::Make(query.outputs()));
  LIMCAP_ASSIGN_OR_RETURN(
      result.answer,
      result.store.ToRelation(options_.builder.goal_predicate, out_schema));
  RecordExecMetrics(result, options_.metrics);
  return result;
}

void RecordExecMetrics(const ExecResult& result,
                       obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  const datalog::EvalStats& eval = result.datalog_stats;
  metrics->Add(obs::metric::kEvalRounds, double(eval.iterations));
  metrics->Add(obs::metric::kEvalActivations, double(eval.rule_activations));
  metrics->Add(obs::metric::kEvalFactsDerived, double(eval.facts_derived));
  metrics->Add(obs::metric::kEvalMatches, double(eval.matches));
  for (uint64_t activations : eval.round_activations) {
    metrics->Observe(obs::metric::kHistRoundActivations,
                     double(activations));
  }

  const runtime::FetchReport& fetch = result.fetch_report;
  metrics->Add(obs::metric::kFetchBatches, double(fetch.batches));
  metrics->Add(obs::metric::kFetchAttempts, double(fetch.total_attempts));
  metrics->Add(obs::metric::kFetchRetries, double(fetch.total_retries));
  metrics->Add(obs::metric::kFetchTimeouts, double(fetch.total_timeouts));
  metrics->Add(obs::metric::kFetchCoalesced, double(fetch.coalesced_hits));
  metrics->Add(obs::metric::kFetchSkippedDynamic,
               double(fetch.skipped_dynamic));
  metrics->Add(obs::metric::kFetchHedged, double(fetch.hedged));
  metrics->Add(obs::metric::kFetchBatched, double(fetch.batched_calls));
  metrics->Add(obs::metric::kFetchMakespanMs, fetch.simulated_makespan_ms);
  metrics->Add(obs::metric::kFetchFailedViews,
               double(fetch.failed_views.size()));
  std::size_t breaker_skips = 0;
  for (const auto& [name, stats] : fetch.per_source) {
    breaker_skips += stats.breaker_skips;
    if (stats.attempts + stats.breaker_skips > 0) {
      metrics->Observe(obs::metric::kHistFetchMs, stats.simulated_busy_ms);
    }
  }
  metrics->Add(obs::metric::kFetchBreakerSkips, double(breaker_skips));

  metrics->Add(obs::metric::kExecFetchRounds, double(result.rounds));
  metrics->Add(obs::metric::kExecSourceQueries,
               double(result.log.total_queries()));
  metrics->Add(obs::metric::kAnswerRows, double(result.answer.size()));
}

}  // namespace limcap::exec
