// cost-k-decomp (the fundamental module of the paper's architecture,
// Fig. 5): search for a *minimum-cost* normal-form hypertree decomposition
// of width at most k, following the weighted-decomposition approach of
// Scarcello–Greco–Leone (PODS'04, the paper's ref [11]).
//
// One search walks the (component, connector) subproblem lattice of
// det-k-decomp for both modules; only its objective differs. With a cost
// model, every subproblem keeps the separator minimizing
//     VertexCost(sep, chi) + sum_children [ cost(child) +
//                                           JoinCost(rows(p), rows(child)) ]
// under a pluggable DecompositionCostModel (the first strict minimum in
// enumeration order). Without one, it keeps the first separator whose
// children all decompose — det-k-decomp (det_k_decomp.h). With statistics,
// the model prices intermediate results from the query's CardinalityEstimate
// (stats/cardinality.h); without, a purely structural model is used (the
// hybrid/structural axis of Section 6).

#ifndef HTQO_DECOMP_COST_K_DECOMP_H_
#define HTQO_DECOMP_COST_K_DECOMP_H_

#include <utility>

#include "decomp/hypertree.h"
#include "hypergraph/hypergraph.h"
#include "stats/cardinality.h"
#include "util/governor.h"
#include "util/status.h"

namespace htqo {

// Cost model interface for decomposition search.
class DecompositionCostModel {
 public:
  virtual ~DecompositionCostModel() = default;

  // Estimated rows of the vertex relation after step P' (join of lambda,
  // projected to chi).
  virtual double VertexRows(const Bitset& lambda, const Bitset& chi) const = 0;

  // Estimated work of computing that vertex relation.
  virtual double VertexCost(const Bitset& lambda, const Bitset& chi)
      const = 0;

  // Work of one P''-step join between a parent and child vertex relation.
  virtual double JoinCost(double parent_rows, double child_rows) const {
    return parent_rows + child_rows;
  }
};

// No-statistics model: every edge contributes the default cardinality
// (CardinalityEstimate::kDefaultRows); the cost is dominated by the number
// of joined edges per vertex, so the search degenerates to "prefer narrow
// lambda labels" — a purely structural method.
class StructuralCostModel : public DecompositionCostModel {
 public:
  double VertexRows(const Bitset& lambda, const Bitset& chi) const override;
  double VertexCost(const Bitset& lambda, const Bitset& chi) const override;
};

// Statistics-driven model: a vertex's rows are the estimate's JoinRows of
// lambda, capped by the product of the chi variables' distinct counts
// (projection onto chi). Atom index == edge index.
class StatsDecompositionCostModel : public DecompositionCostModel {
 public:
  StatsDecompositionCostModel(const Hypergraph& h, CardinalityEstimate estimate)
      : estimate_(std::move(estimate)) {
    HTQO_CHECK(estimate_.num_atoms() == h.NumEdges());
  }

  double VertexRows(const Bitset& lambda, const Bitset& chi) const override;
  double VertexCost(const Bitset& lambda, const Bitset& chi) const override;

  // Mid-query replanning's observed rows; never while a search runs.
  void Pin(std::size_t edge, double observed_rows) {
    estimate_.Pin(edge, observed_rows);
  }

 private:
  CardinalityEstimate estimate_;
};

class ThreadPool;

// The one normal-form search behind CostKDecomp and DetKDecomp. A non-null
// `model` selects the min-cost objective; a null one the first-feasible
// objective, which never consults a cost model. Returns NotFound when no
// decomposition of width <= k exists (with *root_conn ⊆ chi(root) when
// root_conn is non-null), or DeadlineExceeded when the optional governor
// trips (one node per enumerated separator candidate, memo growth charged
// against the memory budget; the memo's charges are released when the
// search returns, so only the peak keeps them).
//
// With a model, a pool and num_threads > 1, the root's separator
// candidates are evaluated in parallel over a shared memo table. The result
// is bit-identical to the serial search: candidates are collected in the
// serial enumeration order, the min-cost reduction keeps the first strict
// minimum in that order, and the memo computes every subproblem exactly
// once so governor charges (and therefore budget trips) are unchanged.
// The first-feasible objective always runs serially.
Result<Hypertree> SearchDecomposition(const Hypergraph& h, std::size_t k,
                                      const DecompositionCostModel* model,
                                      const Bitset* root_conn = nullptr,
                                      ResourceGovernor* governor = nullptr,
                                      ThreadPool* pool = nullptr,
                                      std::size_t num_threads = 1);

// The min-cost search: SearchDecomposition with `model`.
Result<Hypertree> CostKDecomp(const Hypergraph& h, std::size_t k,
                              const DecompositionCostModel& model,
                              const Bitset* root_conn = nullptr,
                              ResourceGovernor* governor = nullptr,
                              ThreadPool* pool = nullptr,
                              std::size_t num_threads = 1);

}  // namespace htqo

#endif  // HTQO_DECOMP_COST_K_DECOMP_H_
