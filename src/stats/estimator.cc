#include "stats/estimator.h"

#include <algorithm>

#include "util/fault_injector.h"

namespace htqo {

const RelationStats* Estimator::StatsFor(const std::string& relation) const {
  if (registry_ == nullptr) return nullptr;
  // Injected lookup failure degrades to the no-statistics defaults — the
  // estimator keeps answering, just less precisely (never a crash).
  if (FaultInjector::Instance().ShouldFail(kFaultSiteStatsLookup)) {
    return nullptr;
  }
  return registry_->Find(relation);
}

bool Estimator::has_statistics(const std::string& relation) const {
  return StatsFor(relation) != nullptr;
}

double Estimator::Rows(const std::string& relation) const {
  const RelationStats* s = StatsFor(relation);
  if (s == nullptr) return defaults_.default_rows;
  return static_cast<double>(s->row_count);
}

double Estimator::DistinctCount(const std::string& relation,
                                std::size_t column) const {
  const RelationStats* s = StatsFor(relation);
  // distinct_count == 0 means "not gathered" (manual statistics may declare
  // only some columns); fall back to a default guess scaled by the known
  // row count.
  if (s == nullptr || column >= s->columns.size() ||
      s->columns[column].distinct_count == 0) {
    double rows = s != nullptr ? static_cast<double>(s->row_count)
                               : defaults_.default_rows;
    return std::max(1.0, rows * defaults_.eq_selectivity * 20);
  }
  return std::max<double>(1.0, s->columns[column].distinct_count);
}

double Estimator::ConstantSelectivity(const std::string& relation,
                                      std::size_t column,
                                      const std::string& op,
                                      const Value& constant) const {
  const RelationStats* s = StatsFor(relation);
  if (op == "=") {
    if (s == nullptr || column >= s->columns.size() ||
        s->columns[column].distinct_count == 0) {
      return defaults_.eq_selectivity;
    }
    return 1.0 / std::max<double>(1.0, s->columns[column].distinct_count);
  }
  if (op == "<>") {
    double eq = ConstantSelectivity(relation, column, "=", constant);
    return std::clamp(1.0 - eq, 0.0, 1.0);
  }
  // Range comparison: use the equi-depth histogram when present, falling
  // back to [min, max] interpolation.
  if (s != nullptr && column < s->columns.size()) {
    const ColumnStats& cs = s->columns[column];
    if (cs.histogram_bounds.size() >= 2 &&
        constant.type() != ValueType::kString) {
      const std::vector<Value>& bounds = cs.histogram_bounds;
      const double buckets = static_cast<double>(bounds.size() - 1);
      // Fraction of rows strictly below `constant`.
      double below = 0;
      for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
        const Value& lo = bounds[b];
        const Value& hi = bounds[b + 1];
        if (constant >= hi) {
          below += 1.0;
          continue;
        }
        if (constant <= lo) break;
        // Partial bucket: linear interpolation inside it.
        double lo_d = lo.AsDouble();
        double hi_d = hi.AsDouble();
        if (hi_d > lo_d) {
          below += std::clamp((constant.AsDouble() - lo_d) / (hi_d - lo_d),
                              0.0, 1.0);
        }
        break;
      }
      double frac = std::clamp(below / buckets, 0.0, 1.0);
      if (op == "<" || op == "<=") return frac;
      if (op == ">" || op == ">=") return 1.0 - frac;
    }
    if (cs.min && cs.max && cs.min->IsNumeric() == constant.IsNumeric() &&
        constant.type() != ValueType::kString &&
        cs.min->type() != ValueType::kString) {
      double lo = cs.min->AsDouble();
      double hi = cs.max->AsDouble();
      double v = constant.AsDouble();
      if (hi > lo) {
        double frac = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
        if (op == "<" || op == "<=") return frac;
        if (op == ">" || op == ">=") return 1.0 - frac;
      } else {
        // Degenerate single-valued column.
        if (op == "<") return v > lo ? 1.0 : 0.0;
        if (op == "<=") return v >= lo ? 1.0 : 0.0;
        if (op == ">") return v < lo ? 1.0 : 0.0;
        if (op == ">=") return v <= lo ? 1.0 : 0.0;
      }
    }
  }
  return defaults_.range_selectivity;
}

}  // namespace htqo
