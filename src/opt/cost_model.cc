#include "opt/cost_model.h"

#include <algorithm>

namespace htqo {

double PlanCostModel::RowsOf(const Bitset& atoms) const {
  auto it = rows_memo_.find(atoms);
  if (it != rows_memo_.end()) return it->second;
  const double rows = graph_.JoinRows(atoms);
  rows_memo_.emplace(atoms, rows);
  return rows;
}

double PlanCostModel::JoinWork(double left_rows, double right_rows,
                               double out_rows, JoinAlgo algo) const {
  switch (algo) {
    case JoinAlgo::kNestedLoop:
      return left_rows * right_rows;
    case JoinAlgo::kHash:
      return left_rows + right_rows + out_rows;
  }
  return left_rows + right_rows + out_rows;
}

double PlanCostModel::PlanCost(const JoinPlan& plan) const {
  if (plan.IsLeaf()) {
    return std::max(1.0, graph_.rows(plan.atom));
  }
  std::vector<std::size_t> latoms, ratoms;
  plan.left->CollectAtoms(&latoms);
  plan.right->CollectAtoms(&ratoms);
  Bitset lset(graph_.num_atoms()), rset(graph_.num_atoms());
  for (std::size_t a : latoms) lset.Set(a);
  for (std::size_t a : ratoms) rset.Set(a);
  double lrows = RowsOf(lset);
  double rrows = RowsOf(rset);
  double orows = RowsOf(lset | rset);
  return PlanCost(*plan.left) + PlanCost(*plan.right) +
         JoinWork(lrows, rrows, orows, plan.algo);
}

}  // namespace htqo
