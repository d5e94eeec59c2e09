#include "stats/feedback.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "obs/metrics.h"
#include "stats/cardinality.h"
#include "util/fault_injector.h"

namespace htqo {

namespace {

// max/min ratio with both sides floored at 1 row: symmetric in over- and
// under-estimation, and never skewed by empty scans.
double ErrorFactor(double estimated, double actual) {
  const double e = std::max(1.0, estimated);
  const double a = std::max(1.0, actual);
  return std::max(e, a) / std::min(e, a);
}

}  // namespace

FeedbackReport FeedbackCollector::Reconcile(const ResolvedQuery& rq,
                                            const Tracer& tracer) {
  // Mine the actual scan cardinalities: op.scan spans carry the atom index
  // and rows_out. Later spans overwrite earlier ones — a replanned query
  // re-scans some atoms, with identical actuals.
  std::vector<std::size_t> actuals(
      rq.cq.atoms.size(), std::numeric_limits<std::size_t>::max());
  for (const Span& span : tracer.Snapshot()) {
    if (span.name != "op.scan") continue;
    std::size_t atom = std::numeric_limits<std::size_t>::max();
    std::size_t rows = std::numeric_limits<std::size_t>::max();
    for (const SpanAttr& attr : span.attrs) {
      if (attr.key == "atom") atom = std::stoull(attr.value);
      if (attr.key == "rows_out") rows = std::stoull(attr.value);
    }
    if (atom < actuals.size() &&
        rows != std::numeric_limits<std::size_t>::max()) {
      actuals[atom] = rows;
    }
  }
  return ReconcileActuals(rq.cq, actuals);
}

FeedbackReport FeedbackCollector::ReconcileActuals(
    const ConjunctiveQuery& cq, const std::vector<std::size_t>& actuals) {
  FeedbackReport report;
  const CardinalityEstimate estimate = BuildEdgeStats(cq, Estimator(stats_));
  MetricsRegistry& metrics = MetricsRegistry::Global();
  // Relations to refresh, deduplicated in first-divergence order so the
  // stats.feedback fault site sees a deterministic hit sequence.
  std::vector<std::string> to_refresh;
  std::set<std::string> marked;
  for (std::size_t a = 0; a < cq.atoms.size() && a < actuals.size(); ++a) {
    if (actuals[a] == std::numeric_limits<std::size_t>::max()) continue;
    FeedbackReport::AtomError err;
    err.atom_index = a;
    err.relation = cq.atoms[a].relation;
    err.estimated_rows = estimate.rows(a);
    err.actual_rows = actuals[a];
    err.error_factor =
        ErrorFactor(err.estimated_rows, static_cast<double>(actuals[a]));
    report.max_error_factor =
        std::max(report.max_error_factor, err.error_factor);
    metrics.GetHistogram(kMetricEstimateErrorFactor)
        ->Record(static_cast<uint64_t>(std::llround(err.error_factor)));
    if (err.error_factor >= options_.refresh_error_factor &&
        marked.insert(err.relation).second) {
      to_refresh.push_back(err.relation);
    }
    report.errors.push_back(std::move(err));
  }
  for (const std::string& relation : to_refresh) {
    const Relation* rel = catalog_->Find(relation);
    if (rel == nullptr) continue;  // derived/scratch relation: nothing to do
    if (FaultInjector::Instance().ShouldFail(kFaultSiteStatsFeedback)) {
      // Degrade cleanly: this refresh (and its epoch bump) is skipped; the
      // stale estimate simply survives until a later query reconciles.
      ++report.skipped;
      metrics.GetCounter(kMetricFeedbackSkippedTotal)->Increment();
      continue;
    }
    stats_->Put(relation, CollectStats(*rel, options_.histogram_buckets));
    report.refreshed.push_back(relation);
    metrics.GetCounter(kMetricFeedbackRefreshesTotal)->Increment();
  }
  return report;
}

}  // namespace htqo
