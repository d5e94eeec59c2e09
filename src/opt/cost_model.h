// Plan-cost estimation for join plans (the quantitative side of the hybrid
// optimizer). Join cardinalities are the join graph's CardinalityEstimate,
// memoized per atom set (single-threaded); operator costs charge
// |L|+|R|+|out| for hash joins and |L|·|R| for nested loops — the units
// ExecContext meters at run time, so estimated and measured work compare.

#ifndef HTQO_OPT_COST_MODEL_H_
#define HTQO_OPT_COST_MODEL_H_

#include <map>

#include "exec/plan.h"
#include "opt/join_graph.h"

namespace htqo {

class PlanCostModel {
 public:
  explicit PlanCostModel(const JoinGraph& graph) : graph_(graph) {}

  // Estimated rows of the natural join of the given atom set (memoized).
  double RowsOf(const Bitset& atoms) const;

  // Work of one join operator application.
  double JoinWork(double left_rows, double right_rows, double out_rows,
                  JoinAlgo algo) const;

  // Total estimated work of a plan (scans + all join nodes).
  double PlanCost(const JoinPlan& plan) const;

 private:
  const JoinGraph& graph_;
  mutable std::map<Bitset, double> rows_memo_;
};

}  // namespace htqo

#endif  // HTQO_OPT_COST_MODEL_H_
