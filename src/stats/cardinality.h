// The per-query cardinality estimate: the one statistics view that the
// structural side (cost-k-decomp) and the quantitative side (DP, GEQO) of
// the hybrid optimizer both read — the statistics picker of the paper's
// Fig. 5. Per atom: the rows after atom-local filters and a distinct count
// per variable, in flat arrays. Join sizes follow the textbook formula of
// paper refs [3, 4]: the product of the atoms' rows divided, per shared
// variable, by max V^(occurrences-1).
//
// The queries are const and memo-free, so the parallel decomposition
// search reads one estimate from pool lanes. Pin, the one mutation, runs
// between searches only (mid-query replanning).

#ifndef HTQO_STATS_CARDINALITY_H_
#define HTQO_STATS_CARDINALITY_H_

#include <cstddef>
#include <vector>

#include "cq/conjunctive_query.h"
#include "stats/estimator.h"
#include "util/bitset.h"

namespace htqo {

class CardinalityEstimate {
 public:
  // An atom's rows before anything is said about it, and the distinct
  // count of a variable that no atom of the set binds.
  static constexpr double kDefaultRows = 1000.0;

  CardinalityEstimate() = default;
  // Atoms over the given variable sets (each sized `num_vars`), all at
  // kDefaultRows with unknown distinct counts.
  CardinalityEstimate(std::vector<Bitset> atom_vars, std::size_t num_vars);

  std::size_t num_atoms() const { return atom_vars_.size(); }
  std::size_t num_vars() const { return num_vars_; }
  const Bitset& vars(std::size_t atom) const { return atom_vars_[atom]; }
  Bitset VarsOf(const Bitset& atoms) const;

  double rows(std::size_t atom) const { return rows_[atom]; }
  // The atom's distinct count of `var`; its rows when unknown.
  double distinct(std::size_t atom, std::size_t var) const {
    const double d = distinct_[atom * num_vars_ + var];
    return d < 0 ? rows_[atom] : d;
  }
  void SetRows(std::size_t atom, double rows) { rows_[atom] = rows; }
  void SetDistinct(std::size_t atom, std::size_t var, double distinct) {
    distinct_[atom * num_vars_ + var] = distinct;
  }

  // Rows of the natural join of `atoms`, at least 1.
  double JoinRows(const Bitset& atoms) const;
  // Largest distinct count of `v` among the atoms binding it, at least 1;
  // kDefaultRows when none of `atoms` binds it.
  double DistinctOf(std::size_t v, const Bitset& atoms) const;

  // Sets the atom's rows to an observed count (at least 1) and caps its
  // distinct counts by it.
  void Pin(std::size_t atom, double observed_rows);

 private:
  // DistinctOf's maximum over the binding atoms, and how many bind `v`.
  double MaxDistinct(std::size_t v, const Bitset& atoms,
                     std::size_t* occurrences) const;

  std::size_t num_vars_ = 0;
  std::vector<Bitset> atom_vars_;
  std::vector<double> rows_;
  std::vector<double> distinct_;  // num_atoms x num_vars; < 0 = unknown
};

// The estimate of a CQ (atom index == hyperedge index of BuildHypergraph),
// with or without gathered statistics (the Estimator supplies defaults).
// Distinct counts are capped by the rows; a tuple-id variable's is the rows.
CardinalityEstimate BuildEdgeStats(const ConjunctiveQuery& cq,
                                   const Estimator& estimator);

}  // namespace htqo

#endif  // HTQO_STATS_CARDINALITY_H_
