#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

namespace htqo {

double PlanCostModel::RowsOf(const Bitset& atoms) const {
  auto it = rows_memo_.find(atoms);
  if (it != rows_memo_.end()) return it->second;

  double rows = 1.0;
  for (std::size_t a = atoms.FirstSet(); a < atoms.size();
       a = atoms.NextSet(a)) {
    rows *= std::max(1.0, graph_.atom_rows[a]);
  }
  Bitset vars = graph_.VarsOf(atoms);
  for (std::size_t v = vars.FirstSet(); v < vars.size(); v = vars.NextSet(v)) {
    std::size_t occurrences = 0;
    double max_distinct = 1.0;
    for (std::size_t a = atoms.FirstSet(); a < atoms.size();
         a = atoms.NextSet(a)) {
      if (!graph_.atom_vars[a].Test(v)) continue;
      ++occurrences;
      auto d = graph_.distinct[a].find(v);
      double distinct =
          d != graph_.distinct[a].end() ? d->second : graph_.atom_rows[a];
      max_distinct = std::max(max_distinct, distinct);
    }
    if (occurrences >= 2) {
      rows /= std::pow(std::max(1.0, max_distinct),
                       static_cast<double>(occurrences - 1));
    }
  }
  rows = std::max(1.0, rows);
  rows_memo_.emplace(atoms, rows);
  return rows;
}

double PlanCostModel::JoinRows(const Bitset& left, const Bitset& right) const {
  return RowsOf(left | right);
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
    return std::max(1.0, graph_.atom_rows[plan.atom]);
  }
  std::vector<std::size_t> latoms, ratoms;
  plan.left->CollectAtoms(&latoms);
  plan.right->CollectAtoms(&ratoms);
  Bitset lset(graph_.num_atoms), rset(graph_.num_atoms);
  for (std::size_t a : latoms) lset.Set(a);
  for (std::size_t a : ratoms) rset.Set(a);
  double lrows = RowsOf(lset);
  double rrows = RowsOf(rset);
  double orows = RowsOf(lset | rset);
  return PlanCost(*plan.left) + PlanCost(*plan.right) +
         JoinWork(lrows, rrows, orows, plan.algo);
}

}  // namespace htqo
