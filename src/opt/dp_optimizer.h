// System-R-style dynamic-programming join-order optimizer — the stand-in for
// the commercial comparator ("CommDB") of Section 6. Enumerates bushy or
// left-deep plans over atom subsets, avoiding cross products whenever a
// connected split exists, and picks join algorithms per node.

#ifndef HTQO_OPT_DP_OPTIMIZER_H_
#define HTQO_OPT_DP_OPTIMIZER_H_

#include <memory>

#include "opt/cost_model.h"
#include "opt/join_graph.h"
#include "util/governor.h"
#include "util/status.h"

namespace htqo {

struct DpOptions {
  bool bushy = true;  // false restricts the search to left-deep trees
  // Nested loop is chosen when the estimated rows of the join's inner
  // (right) input are at or below this threshold; hash join otherwise.
  // 0 disables nested loops. Models the index-nestloop preference of
  // optimizers running on default statistics.
  double nested_loop_threshold = 0.0;
  // Optional search budget/deadline (one node charged per examined split);
  // a trip aborts the enumeration with DeadlineExceeded.
  ResourceGovernor* governor = nullptr;
};

// Optimal plan under the cost model. Supports up to 20 atoms. Each atom
// subset's rows are read once, straight from `graph` (the estimate `cost`
// is built over); PlanCostModel's memo serves GEQO's repeated reads.
Result<std::unique_ptr<JoinPlan>> DpOptimize(const JoinGraph& graph,
                                             const PlanCostModel& cost,
                                             const DpOptions& options =
                                                 DpOptions());

}  // namespace htqo

#endif  // HTQO_OPT_DP_OPTIMIZER_H_
