// The q-hypertree evaluator of Section 4.
//
// Given a q-hypertree decomposition of CQ(Q):
//   P':   at every node, join the relations of lambda(p) (smallest-first,
//         the quantitative optimization inside each vertex of the tight
//         PostgreSQL coupling) and project onto chi(p);
//   P'':  bottom-up along the tree, join every node with its children —
//         children recorded by Procedure Optimize first — projecting back
//         onto chi(p) after each join; projections deduplicate (CQ set
//         semantics), which is what yields the polynomial bound;
//   P''': project the root onto out(Q).

#ifndef HTQO_OPT_QHD_PLANNER_H_
#define HTQO_OPT_QHD_PLANNER_H_

#include "cq/isolator.h"
#include "decomp/qhd.h"
#include "exec/operators.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace htqo {

// Evaluates the CQ of `rq` against `catalog` using the decomposition `hd`
// (steps P', P'', P''' only — no decomposition search). HybridOptimizer's
// q-HD modes run it; the Fig. 10 ablation and tests call it directly.
Result<Relation> EvaluateDecomposition(const ResolvedQuery& rq,
                                       const Catalog& catalog,
                                       const Hypergraph& h,
                                       const Hypertree& hd, ExecContext* ctx);

}  // namespace htqo

#endif  // HTQO_OPT_QHD_PLANNER_H_
