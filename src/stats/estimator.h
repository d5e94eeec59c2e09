// Cardinality and selectivity estimation, following the textbook formulas of
// Garcia-Molina/Ullman/Widom and Ioannidis (paper refs [3, 4]).
//
// Two regimes:
//   * With statistics: equality selectivity 1/V(R,a), range selectivity from
//     min/max interpolation; join sizes are the CardinalityEstimate's
//     (stats/cardinality.h), built from these answers.
//   * Without statistics: PostgreSQL-style magic defaults (DEFAULT_EQ_SEL
//     etc.) and a default relation cardinality, reproducing the
//     "statistics disabled" optimizer regime of Section 6.

#ifndef HTQO_STATS_ESTIMATOR_H_
#define HTQO_STATS_ESTIMATOR_H_

#include <string>

#include "stats/statistics.h"
#include "storage/value.h"

namespace htqo {

struct EstimatorDefaults {
  double default_rows = 1000.0;      // unknown relation cardinality
  double eq_selectivity = 0.005;     // PostgreSQL DEFAULT_EQ_SEL
  double range_selectivity = 1.0 / 3.0;  // PostgreSQL DEFAULT_INEQ_SEL
};

class Estimator {
 public:
  // `registry` may be nullptr (or empty): every estimate then uses defaults.
  explicit Estimator(const StatisticsRegistry* registry,
                     EstimatorDefaults defaults = EstimatorDefaults())
      : registry_(registry), defaults_(defaults) {}

  bool has_statistics(const std::string& relation) const;

  // Estimated |relation|.
  double Rows(const std::string& relation) const;

  // Number of distinct values in relation.column; falls back to
  // rows * eq_selectivity guess when unknown.
  double DistinctCount(const std::string& relation, std::size_t column) const;

  // Selectivity of `relation.column <op> constant`. `op` uses the comparison
  // spelling of the SQL AST: "=", "<", "<=", ">", ">=", "<>".
  double ConstantSelectivity(const std::string& relation, std::size_t column,
                             const std::string& op, const Value& constant)
      const;

 private:
  const RelationStats* StatsFor(const std::string& relation) const;

  const StatisticsRegistry* registry_;
  EstimatorDefaults defaults_;
};

}  // namespace htqo

#endif  // HTQO_STATS_ESTIMATOR_H_
