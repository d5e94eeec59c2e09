// Data statistics: the "Statistics Picker" of the paper's architecture
// (Fig. 5). Collected by scanning relations, or absent — the optimizers
// support both regimes, which is exactly the CommDB with/without-statistics
// axis of Section 6.

#ifndef HTQO_STATS_STATISTICS_H_
#define HTQO_STATS_STATISTICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/relation.h"

namespace htqo {

struct ColumnStats {
  std::size_t distinct_count = 0;
  std::optional<Value> min;
  std::optional<Value> max;
  // Equi-depth histogram boundaries for orderable columns (like
  // pg_stats.histogram_bounds): bounds[0] = min, bounds.back() = max, and
  // each of the bounds.size()-1 buckets holds ~the same number of rows.
  // Empty when the column was not histogrammed (too few rows, or strings).
  std::vector<Value> histogram_bounds;
};

struct RelationStats {
  std::size_t row_count = 0;
  // Parallel to the relation's schema columns.
  std::vector<ColumnStats> columns;
};

// Exact statistics computed by a full scan. `histogram_buckets` controls
// the equi-depth histograms built for numeric/date columns (0 disables).
RelationStats CollectStats(const Relation& relation,
                           std::size_t histogram_buckets = 32);

// Manually declared statistics — the paper's stand-alone usage: "the user
// may optionally indicate the cardinality of the involved relations, and
// the selectivity of their attributes" (Section 5). `distinct_counts` is
// parallel to the relation's columns; zero entries mean unknown (the
// estimator falls back to defaults for them).
RelationStats MakeManualStats(std::size_t row_count,
                              const std::vector<std::size_t>& distinct_counts);

// Process-wide per-relation statistics epochs, keyed by lowercased relation
// name. Every Put/Clear on a root (non-overlay) StatisticsRegistry bumps
// the touched relations' epochs; the decomposition cache snapshots them at
// compute time and treats any later bump as invalidation. The registry is
// deliberately global (not per-StatisticsRegistry): several registries
// naming the same relation are indistinguishable to a process-wide plan
// cache, so invalidation must be conservative across all of them. A
// never-touched relation reads epoch 0.
class StatsEpochRegistry {
 public:
  static StatsEpochRegistry& Global();

  uint64_t Get(const std::string& relation_name) const;
  void Bump(const std::string& relation_name);

  StatsEpochRegistry() = default;
  StatsEpochRegistry(const StatsEpochRegistry&) = delete;
  StatsEpochRegistry& operator=(const StatsEpochRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> epochs_;
};

// 64-bit fingerprint of a RelationStats: row count, and per column the
// distinct count, min, max and histogram bounds. CollectStats derives all of
// them independently of row order, so a re-materialized derived table gets
// the same fingerprint. The plan cache keys overlay-local relations on it
// (DESIGN.md §6e).
uint64_t StatsFingerprint(const RelationStats& stats);

// Statistics registry for a database; mirrors pg_statistic. Lookup failures
// mean "no statistics gathered yet" and estimators fall back to defaults.
class StatisticsRegistry {
 public:
  StatisticsRegistry() = default;

  // An overlay over `parent` (nullptr allowed), like Catalog's: Find falls
  // back to the parent for names not Put here, and nothing is copied. The
  // parent must outlive the overlay and not change while it is in use.
  // Relations Put into an overlay exist only there, so their Put/Clear do
  // not bump the process-wide StatsEpochRegistry; the plan cache keys them
  // on StatsFingerprint instead (OverlayFingerprint).
  explicit StatisticsRegistry(const StatisticsRegistry* parent)
      : parent_(parent), overlay_(true) {}

  void Put(const std::string& relation_name, RelationStats stats);

  const RelationStats* Find(const std::string& relation_name) const;

  // StatsFingerprint of `relation_name`'s statistics when the registry that
  // resolves the name (this one or the nearest ancestor holding it) is an
  // overlay; nullopt for root-registry relations, which the epochs track,
  // and for unknown names.
  std::optional<uint64_t> OverlayFingerprint(
      const std::string& relation_name) const;

  // Scans every relation in `catalog` (the ANALYZE command).
  void AnalyzeAll(const Catalog& catalog);

  // Drops this registry's own entries (never the parent's).
  void Clear();
  bool empty() const {
    return stats_.empty() && (parent_ == nullptr || parent_->empty());
  }

 private:
  const StatisticsRegistry* parent_ = nullptr;
  bool overlay_ = false;
  std::map<std::string, RelationStats> stats_;
};

}  // namespace htqo

#endif  // HTQO_STATS_STATISTICS_H_
