#include "stats/cardinality.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sql/ast.h"

namespace htqo {

CardinalityEstimate::CardinalityEstimate(std::vector<Bitset> atom_vars,
                                         std::size_t num_vars)
    : num_vars_(num_vars),
      atom_vars_(std::move(atom_vars)),
      rows_(atom_vars_.size(), kDefaultRows),
      distinct_(atom_vars_.size() * num_vars, -1.0) {}

Bitset CardinalityEstimate::VarsOf(const Bitset& atoms) const {
  Bitset out(num_vars_);
  for (std::size_t a = atoms.FirstSet(); a < atoms.size();
       a = atoms.NextSet(a)) {
    out |= atom_vars_[a];
  }
  return out;
}

double CardinalityEstimate::MaxDistinct(std::size_t v, const Bitset& atoms,
                                        std::size_t* occurrences) const {
  *occurrences = 0;
  double best = 1.0;
  for (std::size_t a = atoms.FirstSet(); a < atoms.size();
       a = atoms.NextSet(a)) {
    if (!atom_vars_[a].Test(v)) continue;
    ++*occurrences;
    best = std::max(best, distinct(a, v));
  }
  return best;
}

double CardinalityEstimate::JoinRows(const Bitset& atoms) const {
  double rows = 1.0;
  for (std::size_t a = atoms.FirstSet(); a < atoms.size();
       a = atoms.NextSet(a)) {
    rows *= std::max(1.0, rows_[a]);
  }
  const Bitset vars = VarsOf(atoms);
  for (std::size_t v = vars.FirstSet(); v < vars.size(); v = vars.NextSet(v)) {
    std::size_t occurrences = 0;
    const double distinct = MaxDistinct(v, atoms, &occurrences);
    if (occurrences >= 2) {
      rows /= std::pow(distinct, static_cast<double>(occurrences - 1));
    }
  }
  return std::max(1.0, rows);
}

double CardinalityEstimate::DistinctOf(std::size_t v,
                                       const Bitset& atoms) const {
  std::size_t occurrences = 0;
  const double distinct = MaxDistinct(v, atoms, &occurrences);
  return occurrences > 0 ? distinct : kDefaultRows;
}

void CardinalityEstimate::Pin(std::size_t atom, double observed_rows) {
  const double rows = std::max(1.0, observed_rows);
  rows_[atom] = rows;
  const Bitset& vars = atom_vars_[atom];
  for (std::size_t v = vars.FirstSet(); v < vars.size(); v = vars.NextSet(v)) {
    double& d = distinct_[atom * num_vars_ + v];
    if (d >= 0) d = std::min(d, rows);
  }
}

CardinalityEstimate BuildEdgeStats(const ConjunctiveQuery& cq,
                                   const Estimator& estimator) {
  std::vector<Bitset> atom_vars;
  atom_vars.reserve(cq.atoms.size());
  for (const Atom& atom : cq.atoms) {
    Bitset vars(cq.vars.size());
    for (VarId v : atom.Vars()) vars.Set(v);
    atom_vars.push_back(std::move(vars));
  }
  CardinalityEstimate out(std::move(atom_vars), cq.vars.size());
  for (std::size_t a = 0; a < cq.atoms.size(); ++a) {
    const Atom& atom = cq.atoms[a];
    double rows = estimator.Rows(atom.relation);
    for (const AtomFilter& f : atom.filters) {
      if (!f.in_values.empty() || f.negated) {
        // IN list: sum of per-value equality selectivities, capped;
        // NOT IN keeps the complement.
        double sel = 0;
        for (const Value& v : f.in_values) {
          sel += estimator.ConstantSelectivity(atom.relation, f.column, "=",
                                               v);
        }
        sel = std::min(1.0, sel);
        rows *= f.negated ? std::max(0.0, 1.0 - sel) : sel;
      } else {
        rows *= estimator.ConstantSelectivity(atom.relation, f.column,
                                              CompareOpSymbol(f.op), f.value);
      }
    }
    rows = std::max(1.0, rows);
    out.SetRows(a, rows);
    for (const AtomBinding& b : atom.bindings) {
      const double distinct = std::max(
          1.0, std::min(estimator.DistinctCount(atom.relation, b.column),
                        rows));
      // A variable bound to several columns of the same atom keeps the
      // tighter bound (an unset count reads as the rows, never tighter).
      out.SetDistinct(a, b.var, std::min(out.distinct(a, b.var), distinct));
    }
    if (atom.has_tid) out.SetDistinct(a, atom.tid_var, rows);  // unique ids
  }
  return out;
}

}  // namespace htqo
