// Post-query reconciliation (DESIGN.md §6h): the feedback half of the
// adaptive re-optimization loop.
//
// EXPLAIN ANALYZE traces already record every operator's true cardinality;
// a FeedbackCollector mines the op.scan spans of a finished query, compares
// each atom's actual row count against its rows in the query's
// CardinalityEstimate under the current statistics, and — when the error
// factor crosses a threshold — re-analyzes the affected base relations.
// StatisticsRegistry::Put bumps the relation's stats epoch, so DecompCache
// entries planned from the stale estimates invalidate themselves on their
// next lookup: the plan cache self-corrects under data drift instead of
// serving a wrong-cost plan indefinitely.
//
// The stats.feedback fault site covers the refresh: a firing site skips
// that relation's refresh (and its epoch bump) cleanly; the query result
// that produced the trace is never affected.

#ifndef HTQO_STATS_FEEDBACK_H_
#define HTQO_STATS_FEEDBACK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cq/isolator.h"
#include "obs/trace.h"
#include "stats/statistics.h"
#include "storage/catalog.h"

namespace htqo {

struct FeedbackOptions {
  // Refresh a relation's statistics when some scan of it diverged from its
  // estimate by at least this factor (max/min ratio, so 1.0 = perfect and
  // over- and under-estimates are symmetric).
  double refresh_error_factor = 2.0;
  // Histogram resolution of the refreshed statistics (CollectStats).
  std::size_t histogram_buckets = 32;
};

struct FeedbackReport {
  struct AtomError {
    std::size_t atom_index = 0;
    std::string relation;
    double estimated_rows = 0;
    std::size_t actual_rows = 0;
    double error_factor = 1.0;  // max/min ratio, >= 1
  };
  // One entry per atom whose scan the trace recorded, in atom order.
  std::vector<AtomError> errors;
  // Relations re-analyzed (each Put bumped that relation's stats epoch).
  std::vector<std::string> refreshed;
  // Refreshes abandoned because the stats.feedback fault site fired.
  std::size_t skipped = 0;
  double max_error_factor = 1.0;
};

class FeedbackCollector {
 public:
  // Both pointees are borrowed and must outlive the collector. `stats` is
  // the registry the *next* optimization will read — refreshes land there.
  FeedbackCollector(const Catalog* catalog, StatisticsRegistry* stats,
                    FeedbackOptions options = FeedbackOptions())
      : catalog_(catalog), stats_(stats), options_(options) {}

  // Mines `tracer`'s op.scan spans for the resolved query `rq` (the run
  // must have been traced), reconciles actual vs. estimated cardinalities,
  // refreshes the statistics of every relation whose error crossed the
  // threshold, and records the htqo_feedback_* / estimate-error metrics.
  FeedbackReport Reconcile(const ResolvedQuery& rq, const Tracer& tracer);

  // As above on a pre-mined actual-rows list (parallel to cq.atoms; entries
  // of SIZE_MAX mean "scan not observed"). Lets callers without a tracer —
  // the replan rung has the observed cardinalities in hand — feed back.
  FeedbackReport ReconcileActuals(const ConjunctiveQuery& cq,
                                  const std::vector<std::size_t>& actuals);

 private:
  const Catalog* catalog_;
  StatisticsRegistry* stats_;
  FeedbackOptions options_;
};

}  // namespace htqo

#endif  // HTQO_STATS_FEEDBACK_H_
