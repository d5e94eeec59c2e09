// Algorithm q-HypertreeDecomp (Fig. 4): computes a good q-hypertree
// decomposition of a conjunctive query.
//
// Pipeline:
//   1. the normal-form search over H(Q) with the root forced to cover
//      out(Q) (Condition 2 of Definition 2): cost-k-decomp minimizing the
//      cost model, or its first-feasible objective (det-k-decomp) — one
//      SearchDecomposition call either way;
//   2. completion: every atom absorbed during the normal-form search (an
//      edge covered by some chi but present in no lambda) is attached as a
//      width-1 child below a covering node, so the evaluator touches every
//      relation exactly once;
//   3. Procedure Optimize (unless disabled), pruning redundant lambda
//      entries and recording evaluation priorities.
//
// The statistics cost model prices the search from BuildEdgeStats(cq,
// estimator), the query's CardinalityEstimate (stats/cardinality.h).

#ifndef HTQO_DECOMP_QHD_H_
#define HTQO_DECOMP_QHD_H_

#include "decomp/cost_k_decomp.h"
#include "decomp/hypertree.h"
#include "hypergraph/hypergraph.h"
#include "obs/trace.h"
#include "stats/cardinality.h"
#include "util/status.h"

namespace htqo {

struct QhdOptions {
  std::size_t max_width = 4;  // the fixed constant k ("typically k=4")
  bool run_optimize = true;   // feature (b); Fig. 10 ablates this
  // Run the search with the first-feasible objective of det-k-decomp
  // instead of the min-cost one (the cost model and the pool are then
  // ignored). First-feasible normal-form trees carry bounding copies of
  // separator atoms down the tree — the HD1 of Fig. 3 — which is precisely
  // what Procedure Optimize prunes; the min-cost objective tends to produce
  // guard-free trees directly.
  bool first_feasible = false;
  // Optional budget/deadline for the decomposition search and Procedure
  // Optimize; must outlive the call. A trip surfaces as DeadlineExceeded.
  ResourceGovernor* governor = nullptr;
  // Parallel search: with a pool and num_threads > 1, cost-k-decomp
  // evaluates the root's separator candidates concurrently (results stay
  // bit-identical to serial; see SearchDecomposition). Borrowed.
  ThreadPool* pool = nullptr;
  std::size_t num_threads = 1;
  // Tracing: with a tracer set, QHypertreeDecomp emits one span per phase —
  // search.cost-k-decomp / search.det-k-decomp and optimize — under the
  // calling thread's open span. Borrowed; null = off.
  Tracer* tracer = nullptr;
};

struct QhdResult {
  Hypertree hd;
  std::size_t width = 0;   // width before Optimize
  std::size_t pruned = 0;  // lambda entries removed by Optimize
};

// Attaches a child node (chi = edge's vars, lambda = {edge}) under a node
// covering each edge that appears in no lambda label. Returns the number of
// nodes added. Exposed for tests.
std::size_t CompleteDecomposition(const Hypergraph& h, Hypertree* hd);

// Runs the Fig. 4 algorithm on an explicit hypergraph + output set.
// NotFound ("Failure") when no width-<=k decomposition covering `out_vars`
// at the root exists.
Result<QhdResult> QHypertreeDecomp(const Hypergraph& h, const Bitset& out_vars,
                                   const DecompositionCostModel& model,
                                   const QhdOptions& options = QhdOptions());

}  // namespace htqo

#endif  // HTQO_DECOMP_QHD_H_
