#include "stats/estimator.h"
#include "stats/statistics.h"

#include <gtest/gtest.h>

namespace htqo {
namespace {

Relation MakeRel() {
  Relation rel{Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}})};
  for (int i = 0; i < 100; ++i) {
    rel.AddRow({Value::Int64(i), Value::Int64(i % 10)});
  }
  return rel;
}

TEST(StatisticsTest, CollectExactCounts) {
  RelationStats stats = CollectStats(MakeRel());
  EXPECT_EQ(stats.row_count, 100u);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_EQ(stats.columns[0].distinct_count, 100u);
  EXPECT_EQ(stats.columns[1].distinct_count, 10u);
  EXPECT_EQ(*stats.columns[0].min, Value::Int64(0));
  EXPECT_EQ(*stats.columns[0].max, Value::Int64(99));
}

TEST(StatisticsTest, RegistryAnalyzeAll) {
  Catalog catalog;
  catalog.Put("t", MakeRel());
  StatisticsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.AnalyzeAll(catalog);
  ASSERT_NE(registry.Find("T"), nullptr);
  EXPECT_EQ(registry.Find("t")->row_count, 100u);
}

TEST(StatisticsTest, OverlayReadsThroughWithoutBumpingEpochs) {
  Catalog catalog;
  catalog.Put("ov_base", MakeRel());
  StatisticsRegistry base;
  base.AnalyzeAll(catalog);
  StatisticsRegistry overlay(&base);
  EXPECT_FALSE(overlay.empty());
  EXPECT_EQ(overlay.Find("OV_BASE"), base.Find("ov_base"));
  EXPECT_EQ(overlay.OverlayFingerprint("ov_base"), std::nullopt)
      << "root-registry relations are tracked by epochs";

  // A Put into the overlay shadows the parent, exists only there, and
  // leaves the process-wide epochs alone: both for a new name and for a
  // name the parent also has.
  StatsEpochRegistry& epochs = StatsEpochRegistry::Global();
  const uint64_t base_epoch = epochs.Get("ov_base");
  const uint64_t derived_epoch = epochs.Get("ov_derived");
  RelationStats small = MakeManualStats(3, {3, 1});
  overlay.Put("ov_derived", small);
  overlay.Put("ov_base", small);
  EXPECT_EQ(epochs.Get("ov_base"), base_epoch);
  EXPECT_EQ(epochs.Get("ov_derived"), derived_epoch);
  EXPECT_EQ(base.Find("ov_derived"), nullptr);
  EXPECT_EQ(base.Find("ov_base")->row_count, 100u);
  EXPECT_EQ(overlay.Find("ov_base")->row_count, 3u);
  EXPECT_EQ(overlay.OverlayFingerprint("ov_derived"),
            StatsFingerprint(small));
  overlay.Clear();
  EXPECT_EQ(epochs.Get("ov_base"), base_epoch);
  EXPECT_EQ(overlay.Find("ov_base"), base.Find("ov_base"));

  // Stacked overlays resolve to the nearest level holding the name.
  overlay.Put("ov_derived", small);
  StatisticsRegistry inner(&overlay);
  EXPECT_EQ(inner.Find("ov_derived"), overlay.Find("ov_derived"));
  EXPECT_EQ(inner.OverlayFingerprint("ov_derived"), StatsFingerprint(small));
  EXPECT_EQ(inner.OverlayFingerprint("ov_base"), std::nullopt);

  // A root registry's Put still bumps.
  base.Put("ov_base", small);
  EXPECT_EQ(epochs.Get("ov_base"), base_epoch + 1);
}

TEST(StatisticsTest, FingerprintIgnoresRowOrderButNotContent) {
  Relation forward = MakeRel();
  Relation backward{forward.schema()};
  for (std::size_t r = forward.NumRows(); r-- > 0;) {
    backward.AddRow({forward.At(r, 0), forward.At(r, 1)});
  }
  EXPECT_EQ(StatsFingerprint(CollectStats(forward)),
            StatsFingerprint(CollectStats(backward)));
  backward.AddRow({Value::Int64(1000), Value::Int64(0)});
  EXPECT_NE(StatsFingerprint(CollectStats(forward)),
            StatsFingerprint(CollectStats(backward)));
}

TEST(EstimatorTest, WithStatistics) {
  Catalog catalog;
  catalog.Put("t", MakeRel());
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  Estimator est(&registry);
  EXPECT_TRUE(est.has_statistics("t"));
  EXPECT_DOUBLE_EQ(est.Rows("t"), 100.0);
  EXPECT_DOUBLE_EQ(est.DistinctCount("t", 1), 10.0);
  EXPECT_DOUBLE_EQ(est.ConstantSelectivity("t", 1, "=", Value::Int64(3)),
                   0.1);
}

TEST(EstimatorTest, RangeSelectivityInterpolates) {
  Catalog catalog;
  catalog.Put("t", MakeRel());
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  Estimator est(&registry);
  // k spans 0..99; k < 50 is about half.
  double sel = est.ConstantSelectivity("t", 0, "<", Value::Int64(50));
  EXPECT_NEAR(sel, 0.5, 0.02);
  double sel_hi = est.ConstantSelectivity("t", 0, ">", Value::Int64(90));
  EXPECT_NEAR(sel_hi, 0.09, 0.02);
}

TEST(EstimatorTest, DefaultsWithoutStatistics) {
  Estimator est(nullptr);
  EXPECT_FALSE(est.has_statistics("t"));
  EXPECT_DOUBLE_EQ(est.Rows("t"), 1000.0);
  EXPECT_DOUBLE_EQ(est.ConstantSelectivity("t", 0, "=", Value::Int64(1)),
                   0.005);
  EXPECT_DOUBLE_EQ(est.ConstantSelectivity("t", 0, "<", Value::Int64(1)),
                   1.0 / 3.0);
}

TEST(StatisticsTest, HistogramBoundsAreEquiDepth) {
  Relation rel{Schema({{"k", ValueType::kInt64}})};
  for (int i = 0; i < 1000; ++i) rel.AddRow({Value::Int64(i)});
  RelationStats stats = CollectStats(rel, 10);
  const auto& bounds = stats.columns[0].histogram_bounds;
  ASSERT_EQ(bounds.size(), 11u);
  EXPECT_EQ(bounds.front(), Value::Int64(0));
  EXPECT_EQ(bounds.back(), Value::Int64(999));
  // Uniform data: boundaries roughly every 100 values.
  EXPECT_NEAR(bounds[5].AsDouble(), 500.0, 10.0);
}

TEST(StatisticsTest, StringsAndTinyRelationsGetNoHistogram) {
  Relation rel{Schema({{"s", ValueType::kString}})};
  rel.AddRow({Value::String("a")});
  rel.AddRow({Value::String("b")});
  RelationStats stats = CollectStats(rel);
  EXPECT_TRUE(stats.columns[0].histogram_bounds.empty());

  Relation one{Schema({{"k", ValueType::kInt64}})};
  one.AddRow({Value::Int64(7)});
  EXPECT_TRUE(CollectStats(one).columns[0].histogram_bounds.empty());
}

TEST(EstimatorTest, HistogramBeatsInterpolationOnSkew) {
  // 99% of the mass at small values, one huge outlier: min/max
  // interpolation wildly misestimates "k < 100"; the histogram nails it.
  Relation rel{Schema({{"k", ValueType::kInt64}})};
  for (int i = 0; i < 990; ++i) rel.AddRow({Value::Int64(i % 50)});
  for (int i = 0; i < 10; ++i) rel.AddRow({Value::Int64(1000000)});
  Catalog catalog;
  catalog.Put("skew", std::move(rel));
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  Estimator est(&registry);
  double sel = est.ConstantSelectivity("skew", 0, "<", Value::Int64(100));
  // True selectivity is 0.99; pure min/max interpolation would say ~0.0001.
  EXPECT_GT(sel, 0.9);
  double sel_hi =
      est.ConstantSelectivity("skew", 0, ">", Value::Int64(100));
  EXPECT_LT(sel_hi, 0.1);
}

TEST(EstimatorTest, HistogramWorksOnDates) {
  Relation rel{Schema({{"d", ValueType::kDate}})};
  int64_t start = 0;
  ParseDate("1994-01-01", &start);
  for (int i = 0; i < 730; ++i) rel.AddRow({Value::Date(start + i)});
  Catalog catalog;
  catalog.Put("orders2", std::move(rel));
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  Estimator est(&registry);
  double sel = est.ConstantSelectivity(
      "orders2", 0, "<", Value::DateFromString("1995-01-01"));
  EXPECT_NEAR(sel, 0.5, 0.05);
}

TEST(EstimatorTest, ManualStatisticsDriveEstimates) {
  // The paper's stand-alone usage: declared cardinality + selectivity
  // without scanning any data.
  StatisticsRegistry registry;
  registry.Put("declared", MakeManualStats(5000, {5000, 250, 0}));
  Estimator est(&registry);
  EXPECT_DOUBLE_EQ(est.Rows("declared"), 5000.0);
  EXPECT_DOUBLE_EQ(est.DistinctCount("declared", 0), 5000.0);
  EXPECT_DOUBLE_EQ(est.DistinctCount("declared", 1), 250.0);
  EXPECT_DOUBLE_EQ(est.ConstantSelectivity("declared", 1, "=",
                                           Value::Int64(1)),
                   1.0 / 250.0);
  // Column 2 is unknown: default equality selectivity and a scaled
  // distinct guess.
  EXPECT_DOUBLE_EQ(est.ConstantSelectivity("declared", 2, "=",
                                           Value::Int64(1)),
                   0.005);
  EXPECT_GT(est.DistinctCount("declared", 2), 1.0);
}

TEST(EstimatorTest, NotEqualComplementsEqual) {
  Catalog catalog;
  catalog.Put("t", MakeRel());
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  Estimator est(&registry);
  double eq = est.ConstantSelectivity("t", 1, "=", Value::Int64(3));
  double ne = est.ConstantSelectivity("t", 1, "<>", Value::Int64(3));
  EXPECT_DOUBLE_EQ(eq + ne, 1.0);
}

}  // namespace
}  // namespace htqo
