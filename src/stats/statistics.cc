#include "stats/statistics.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace htqo {

RelationStats CollectStats(const Relation& relation,
                           std::size_t histogram_buckets) {
  RelationStats stats;
  stats.row_count = relation.NumRows();
  stats.columns.resize(relation.arity());
  for (std::size_t c = 0; c < relation.arity(); ++c) {
    std::unordered_set<Value, ValueHash> distinct;
    distinct.reserve(relation.NumRows() * 2);
    ColumnStats& cs = stats.columns[c];
    for (std::size_t r = 0; r < relation.NumRows(); ++r) {
      const Value& v = relation.At(r, c);
      distinct.insert(v);
      if (!cs.min || v < *cs.min) cs.min = v;
      if (!cs.max || v > *cs.max) cs.max = v;
    }
    cs.distinct_count = distinct.size();

    // Equi-depth histogram for orderable non-string columns.
    const bool orderable =
        relation.NumRows() >= 2 && histogram_buckets >= 2 &&
        relation.schema().column(c).type != ValueType::kString;
    if (orderable) {
      std::vector<Value> sorted;
      sorted.reserve(relation.NumRows());
      for (std::size_t r = 0; r < relation.NumRows(); ++r) {
        sorted.push_back(relation.At(r, c));
      }
      std::sort(sorted.begin(), sorted.end());
      std::size_t buckets =
          std::min(histogram_buckets, sorted.size());
      cs.histogram_bounds.reserve(buckets + 1);
      for (std::size_t b = 0; b <= buckets; ++b) {
        std::size_t idx = b * (sorted.size() - 1) / buckets;
        cs.histogram_bounds.push_back(sorted[idx]);
      }
    }
  }
  return stats;
}

RelationStats MakeManualStats(
    std::size_t row_count, const std::vector<std::size_t>& distinct_counts) {
  RelationStats stats;
  stats.row_count = row_count;
  stats.columns.resize(distinct_counts.size());
  for (std::size_t c = 0; c < distinct_counts.size(); ++c) {
    // 0 stays 0 = unknown; the estimator falls back to defaults for it.
    stats.columns[c].distinct_count = distinct_counts[c];
  }
  return stats;
}

StatsEpochRegistry& StatsEpochRegistry::Global() {
  static StatsEpochRegistry* registry = new StatsEpochRegistry();
  return *registry;
}

uint64_t StatsEpochRegistry::Get(const std::string& relation_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(ToLower(relation_name));
  return it == epochs_.end() ? 0 : it->second;
}

void StatsEpochRegistry::Bump(const std::string& relation_name) {
  std::lock_guard<std::mutex> lock(mu_);
  ++epochs_[ToLower(relation_name)];
}

namespace {

// SplitMix64 finalizer over an accumulator: order-sensitive combination of
// the fields below, each of which is itself independent of row order.
uint64_t MixIn(uint64_t h, uint64_t x) {
  uint64_t z = h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t MixValue(uint64_t h, const Value& v) {
  return MixIn(MixIn(h, static_cast<uint64_t>(v.type())), v.Hash());
}

}  // namespace

uint64_t StatsFingerprint(const RelationStats& stats) {
  uint64_t h = MixIn(0, stats.row_count);
  h = MixIn(h, stats.columns.size());
  for (const ColumnStats& c : stats.columns) {
    h = MixIn(h, c.distinct_count);
    h = MixIn(h, c.min.has_value());
    if (c.min) h = MixValue(h, *c.min);
    h = MixIn(h, c.max.has_value());
    if (c.max) h = MixValue(h, *c.max);
    h = MixIn(h, c.histogram_bounds.size());
    for (const Value& v : c.histogram_bounds) h = MixValue(h, v);
  }
  return h;
}

void StatisticsRegistry::Put(const std::string& relation_name,
                             RelationStats stats) {
  stats_[ToLower(relation_name)] = std::move(stats);
  if (!overlay_) StatsEpochRegistry::Global().Bump(relation_name);
}

void StatisticsRegistry::Clear() {
  // Dropping statistics changes what the estimator will say just as much as
  // replacing them does: bump every relation this registry was covering.
  if (!overlay_) {
    for (const auto& [name, stats] : stats_) {
      StatsEpochRegistry::Global().Bump(name);
    }
  }
  stats_.clear();
}

const RelationStats* StatisticsRegistry::Find(
    const std::string& relation_name) const {
  auto it = stats_.find(ToLower(relation_name));
  if (it != stats_.end()) return &it->second;
  return parent_ == nullptr ? nullptr : parent_->Find(relation_name);
}

std::optional<uint64_t> StatisticsRegistry::OverlayFingerprint(
    const std::string& relation_name) const {
  auto it = stats_.find(ToLower(relation_name));
  if (it != stats_.end()) {
    if (!overlay_) return std::nullopt;
    return StatsFingerprint(it->second);
  }
  return parent_ == nullptr ? std::nullopt
                            : parent_->OverlayFingerprint(relation_name);
}

void StatisticsRegistry::AnalyzeAll(const Catalog& catalog) {
  for (const std::string& name : catalog.Names()) {
    Put(name, CollectStats(*catalog.Find(name)));
  }
}

}  // namespace htqo
