// Yannakakis's algorithm (Section 3.2, paper ref [12]) and the classic
// decomposition-based evaluation pipeline (steps S2'/S2'').
//
// For an acyclic query, Yannakakis evaluates over a join forest in three
// passes: (i) bottom-up semijoins, (ii) top-down semijoins (after which
// every node relation is fully reduced: each tuple participates in some
// answer), and (iii) a bottom-up join pass projecting onto the output
// variables plus whatever connects a subtree to its parent.
//
// For a cyclic query, step S2' first materializes one relation per
// decomposition vertex (the join of lambda(p) projected onto chi(p)),
// forming an equivalent acyclic instance whose join tree is the
// decomposition tree; step S2'' then runs the three passes above.
//
// This is the evaluation the paper's q-hypertree decompositions *replace*
// with a single rooted bottom-up pass; benches compare the two.

#ifndef HTQO_OPT_YANNAKAKIS_H_
#define HTQO_OPT_YANNAKAKIS_H_

#include "cq/isolator.h"
#include "decomp/hypertree.h"
#include "exec/operators.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/join_tree.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace htqo {

// Evaluates an *acyclic* CQ by Yannakakis's algorithm over `forest`, a join
// forest of h = H(Q) (BuildJoinForest, which says NotFound when H(Q) is
// cyclic). Returns the CQ answer relation (columns = out(Q) variables).
Result<Relation> YannakakisEvaluate(const ResolvedQuery& rq,
                                    const Catalog& catalog,
                                    const Hypergraph& h,
                                    const JoinForest& forest,
                                    ExecContext* ctx);

// Classic decomposition-based evaluation (S2' + S2''): materializes the
// vertex relations of `hd` (which must be a complete decomposition of
// H(Q) — every atom anchored; QHypertreeDecomp output qualifies) and runs
// the three Yannakakis passes over the decomposition tree. Unlike the
// q-hypertree evaluator this needs no rooting at out(Q).
Result<Relation> EvaluateDecompositionClassic(const ResolvedQuery& rq,
                                              const Catalog& catalog,
                                              const Hypergraph& h,
                                              const Hypertree& hd,
                                              ExecContext* ctx);

}  // namespace htqo

#endif  // HTQO_OPT_YANNAKAKIS_H_
