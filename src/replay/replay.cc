#include "replay/replay.h"

#include <memory>
#include <sstream>
#include <utility>

#include "capability/catalog_fingerprint.h"
#include "exec/fingerprint.h"
#include "planner/plan_cache.h"
#include "planner/query_parser.h"

namespace limcap::replay {

namespace {

using capability::FingerprintToString;

std::string RenderReplaySection(const ReplayRunReport& report) {
  const ReplayManifest& manifest = report.bundle.manifest;
  std::ostringstream out;
  out << "== Replay ==\n";
  out << "artifact version " << manifest.version << "  catalog "
      << FingerprintToString(manifest.catalog_fingerprint) << "  "
      << manifest.views.size() << " view(s)  " << manifest.body_lines
      << " recorded call(s)\n";
  if (!manifest.scenario.empty() || !manifest.request_id.empty()) {
    out << "captured from: "
        << (manifest.scenario.empty() ? "-" : manifest.scenario)
        << "  workload seed " << manifest.workload_seed;
    if (!manifest.request_id.empty()) {
      out << "  request " << manifest.request_id;
    }
    out << "\n";
  }
  out << "recorded: fingerprint "
      << FingerprintToString(manifest.recorded_fingerprint) << "  "
      << manifest.answer_rows << " answer row(s)  "
      << manifest.source_queries << " source quer(ies)  "
      << manifest.rounds << " round(s)"
      << (manifest.degraded ? "  [degraded]" : "") << "\n";
  out << "replayed: fingerprint "
      << FingerprintToString(report.replayed_fingerprint) << "  "
      << report.answer.exec.answer.size() << " answer row(s)  "
      << report.answer.exec.log.total_queries() << " source quer(ies)  "
      << report.answer.exec.rounds << " round(s)  [" << report.replay_calls
      << " call(s) served from recording, " << report.replayed_faults
      << " fault(s) re-raised, " << report.replay_misses << " miss(es)]\n";
  out << "verdict: "
      << (report.fingerprint_match
              ? "MATCH — the replay re-executed the recorded run "
                "bit-identically"
              : "MISMATCH — the replay diverged from the recorded run")
      << "\n\n";
  return out.str();
}

}  // namespace

Result<ReplayBundle> LoadBundle(const ReplayArtifact& artifact) {
  ReplayBundle bundle;
  bundle.manifest = artifact.manifest;
  LIMCAP_ASSIGN_OR_RETURN(bundle.query,
                          planner::ParseQuery(artifact.manifest.query_text));
  for (const auto& [attribute, domain] : artifact.manifest.domains) {
    bundle.domains.SetDomain(attribute, domain);
  }
  for (const ReplayViewSpec& spec : artifact.manifest.views) {
    std::vector<capability::BindingPattern> templates;
    for (const std::string& text : spec.templates) {
      LIMCAP_ASSIGN_OR_RETURN(capability::BindingPattern pattern,
                              capability::BindingPattern::Parse(text));
      templates.push_back(pattern);
    }
    LIMCAP_ASSIGN_OR_RETURN(
        capability::SourceView view,
        capability::SourceView::Make(
            spec.name, relational::Schema::MakeUnsafe(spec.attributes),
            std::move(templates)));
    auto source = std::make_unique<ReplaySource>(std::move(view));
    bundle.sources.push_back(source.get());
    LIMCAP_RETURN_NOT_OK(bundle.catalog.Register(std::move(source)));
  }
  if (bundle.catalog.fingerprint() != artifact.manifest.catalog_fingerprint) {
    return Status::InvalidArgument(
        "replay artifact inconsistent: rebuilt catalog fingerprint " +
        FingerprintToString(bundle.catalog.fingerprint()) +
        " != manifest " +
        FingerprintToString(artifact.manifest.catalog_fingerprint));
  }
  for (const runtime::FetchRecorder::Fetch& fetch : artifact.calls) {
    LIMCAP_ASSIGN_OR_RETURN(capability::Source * source,
                            bundle.catalog.Find(fetch.source));
    // Every registered source is a ReplaySource (we just built them).
    static_cast<ReplaySource*>(source)->AddCall(fetch);
  }
  return bundle;
}

Result<ReplayRunReport> ReplayArtifactData(const ReplayArtifact& artifact,
                                           bool include_timing) {
  LIMCAP_ASSIGN_OR_RETURN(ReplayBundle bundle, LoadBundle(artifact));

  ReplayRunReport report;
  exec::ExecOptions options = bundle.manifest.options;
  options.tracer = &report.tracer;
  options.metrics = &report.metrics;
  // A fresh one-shot cache: replay always plans cold, which the plan
  // cache's warm==cold bit-identity property makes equivalent to
  // whatever cache state the recorded run saw.
  planner::PlanCache local_cache;
  options.plan_cache = &local_cache;
  {
    // Scope the answerer so every span closes before rendering.
    exec::QueryAnswerer answerer(&bundle.catalog, bundle.domains);
    LIMCAP_ASSIGN_OR_RETURN(report.answer,
                            answerer.Answer(bundle.query, options));
  }
  report.replayed_fingerprint =
      capability::StableHash64(exec::OrderedFingerprint(report.answer.exec));
  report.fingerprint_match =
      report.replayed_fingerprint == bundle.manifest.recorded_fingerprint;
  for (const ReplaySource* source : bundle.sources) {
    const ReplaySource::Stats stats = source->stats();
    report.replay_calls += stats.calls;
    report.replay_misses += stats.misses;
    report.replayed_faults += stats.replayed_faults;
  }
  report.bundle = std::move(bundle);

  const std::vector<capability::SourceView>& views =
      report.bundle.catalog.Views();
  exec::ExplainRenderInputs render;
  render.answer = &report.answer;
  render.query = &report.bundle.query;
  render.views = &views;
  render.domains = &report.bundle.domains;
  render.builder = options.builder;
  render.cache_stats = local_cache.stats();
  render.tracer = &report.tracer;
  render.metrics = &report.metrics;
  render.include_timing = include_timing;
  render.adaptive = options.runtime.adaptive.enabled;
  render.preamble = RenderReplaySection(report);
  report.rendered = exec::RenderExplainText(render);
  return report;
}

Result<ReplayRunReport> ReplayFile(const std::string& path,
                                   bool include_timing) {
  LIMCAP_ASSIGN_OR_RETURN(ReplayArtifact artifact, ReadArtifactFile(path));
  return ReplayArtifactData(artifact, include_timing);
}

}  // namespace limcap::replay
