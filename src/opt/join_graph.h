// Join graph: the quantitative optimizer's view of a CQ — the query's
// CardinalityEstimate (stats/cardinality.h), which the decomposition search
// reads too. Atoms are adjacent when they share a variable:
// VarsOf(a).Intersects(VarsOf(b)).

#ifndef HTQO_OPT_JOIN_GRAPH_H_
#define HTQO_OPT_JOIN_GRAPH_H_

#include "cq/isolator.h"
#include "stats/cardinality.h"
#include "stats/estimator.h"

namespace htqo {

using JoinGraph = CardinalityEstimate;

// Builds the join graph from the CQ using `estimator` (which may be running
// on defaults when no statistics were gathered).
inline JoinGraph BuildJoinGraph(const ResolvedQuery& rq,
                                const Estimator& estimator) {
  return BuildEdgeStats(rq.cq, estimator);
}

}  // namespace htqo

#endif  // HTQO_OPT_JOIN_GRAPH_H_
