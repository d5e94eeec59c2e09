// det-k-decomp: deterministic search for normal-form hypertree
// decompositions of width at most k (Gottlob–Samer style backtracking with
// memoization over (component, connector) subproblems). It is the
// first-feasible objective of the one search cost-k-decomp also runs
// (SearchDecomposition in cost_k_decomp.h): each subproblem keeps the first
// separator, in enumeration order, whose children all decompose.
//
// The optional `root_conn` argument forces the root lambda to cover a given
// variable set — with root_conn = out(Q) this yields exactly the rooted
// decompositions required by Condition 2 of Definition 2 (Fig. 4).

#ifndef HTQO_DECOMP_DET_K_DECOMP_H_
#define HTQO_DECOMP_DET_K_DECOMP_H_

#include "decomp/hypertree.h"
#include "hypergraph/hypergraph.h"
#include "util/governor.h"
#include "util/status.h"

namespace htqo {

// Returns a width-<=k hypertree decomposition of `h`, or NotFound when none
// exists. When `root_conn` is non-null, additionally requires
// *root_conn ⊆ chi(root). A non-null governor bounds the search: one node
// charged per enumerated separator candidate, memoized subproblems charged
// against the memory budget (and released when the search returns);
// DeadlineExceeded when a limit trips.
Result<Hypertree> DetKDecomp(const Hypergraph& h, std::size_t k,
                             const Bitset* root_conn = nullptr,
                             ResourceGovernor* governor = nullptr);

// Exact hypertree width of `h`, computed by trying k = 1..max_k; NotFound
// when hw(h) > max_k. Edgeless hypergraphs have width 0. DeadlineExceeded
// when the governor trips at any k. Each width's search releases its memo
// before the next starts, so the governor's peak is that of the largest.
Result<std::size_t> ComputeHypertreeWidth(const Hypergraph& h,
                                          std::size_t max_k,
                                          ResourceGovernor* governor =
                                              nullptr);

}  // namespace htqo

#endif  // HTQO_DECOMP_DET_K_DECOMP_H_
