// Derived-table (nested query) support: the paper's "dealing with any kind
// of nested queries" future-work item.

#include <gtest/gtest.h>

#include "api/hybrid_optimizer.h"
#include "sql/parser.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace htqo {
namespace {

class NestedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{80, 50, 4, 31}, &catalog_);
    PopulateTpch(TpchConfig{0.002, 7}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(NestedQueryTest, ParserAcceptsDerivedTables) {
  auto stmt = ParseSelect(
      "SELECT d.x FROM (SELECT r1.a AS x FROM r1) d WHERE d.x > 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().message();
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_TRUE(stmt->from[0].IsDerived());
  EXPECT_EQ(stmt->from[0].alias, "d");
  EXPECT_TRUE(stmt->HasDerivedTables());
  // Round-trips through ToString.
  auto again = ParseSelect(stmt->ToString());
  ASSERT_TRUE(again.ok()) << stmt->ToString();
  EXPECT_TRUE(again->from[0].IsDerived());
}

TEST_F(NestedQueryTest, DerivedTableRequiresAlias) {
  EXPECT_FALSE(ParseSelect("SELECT x FROM (SELECT r1.a AS x FROM r1)").ok());
}

TEST_F(NestedQueryTest, AsKeywordAllowedForAlias) {
  auto stmt =
      ParseSelect("SELECT d.x FROM (SELECT r1.a AS x FROM r1) AS d");
  ASSERT_TRUE(stmt.ok()) << stmt.status().message();
  EXPECT_EQ(stmt->from[0].alias, "d");
}

TEST_F(NestedQueryTest, SimpleDerivedTableMatchesFlat) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  auto nested = optimizer.Run(
      "SELECT DISTINCT d.x FROM (SELECT r1.a AS x, r1.b AS y FROM r1) d, r2 "
      "WHERE d.y = r2.a",
      options);
  ASSERT_TRUE(nested.ok()) << nested.status().message();
  auto flat = optimizer.Run(
      "SELECT DISTINCT r1.a FROM r1, r2 WHERE r1.b = r2.a", options);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(nested->output.SameRowsAs(flat->output));
  EXPECT_NE(nested->plan_description.find("materialized subquery"),
            std::string::npos);
}

TEST_F(NestedQueryTest, NestedRunCarriesTheSubqueryProbeMeters) {
  // Mostly-disjoint join keys, so the subquery's hash kernels both probe
  // and skip through the Bloom filter. The outer block is a single-atom
  // scan, which probes nothing: every probe the nested run reports must
  // come from its materialized subquery.
  Catalog catalog;
  Relation l{Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}})};
  Relation r{Schema({{"b", ValueType::kInt64}, {"c", ValueType::kInt64}})};
  for (int64_t i = 0; i < 200; ++i) {
    l.AddRow({Value::Int64(i), Value::Int64(i)});
    r.AddRow({Value::Int64(i % 10 == 0 ? i : 100000 + i), Value::Int64(i)});
  }
  catalog.Put("l", std::move(l));
  catalog.Put("r", std::move(r));
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  const std::string sub = "SELECT l.a AS x FROM l, r WHERE l.b = r.b";
  RunOptions options;
  auto nested = optimizer.Run("SELECT d.x FROM (" + sub + ") d", options);
  ASSERT_TRUE(nested.ok()) << nested.status().message();
  // Derived tables materialize under bag semantics.
  RunOptions sub_options = options;
  sub_options.tid_mode = TidMode::kAllAtoms;
  auto standalone = optimizer.Run(sub, sub_options);
  ASSERT_TRUE(standalone.ok()) << standalone.status().message();
  EXPECT_GT(standalone->ctx.hash_probes.load(), 0u);
  EXPECT_GT(standalone->ctx.bloom_skips.load(), 0u);
  EXPECT_EQ(nested->ctx.hash_probes.load(),
            standalone->ctx.hash_probes.load());
  EXPECT_EQ(nested->ctx.bloom_skips.load(),
            standalone->ctx.bloom_skips.load());
  EXPECT_GE(nested->ctx.batches.load(), standalone->ctx.batches.load());
}

TEST_F(NestedQueryTest, BagSemanticsSurviveMaterialization) {
  // The inner subquery is not DISTINCT; the outer sum must see duplicate
  // (a, b) rows from r1.
  Catalog catalog;
  Relation r{Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}})};
  r.AddRow({Value::Int64(1), Value::Int64(10)});
  r.AddRow({Value::Int64(1), Value::Int64(10)});  // duplicate
  r.AddRow({Value::Int64(2), Value::Int64(5)});
  catalog.Put("r", std::move(r));
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);

  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  auto run = optimizer.Run(
      "SELECT d.a AS a, sum(d.b) AS total "
      "FROM (SELECT r.a AS a, r.b AS b FROM r) d GROUP BY d.a ORDER BY a",
      options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_EQ(run->output.NumRows(), 2u);
  EXPECT_EQ(run->output.At(0, 1), Value::Int64(20));  // both duplicates
  EXPECT_EQ(run->output.At(1, 1), Value::Int64(5));
}

TEST_F(NestedQueryTest, TwoLevelNesting) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  auto run = optimizer.Run(
      "SELECT DISTINCT outer2.x FROM "
      "(SELECT inner1.x AS x FROM "
      "  (SELECT r1.a AS x FROM r1 WHERE r1.a <= 20) inner1) outer2",
      options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  auto flat = optimizer.Run(
      "SELECT DISTINCT r1.a FROM r1 WHERE r1.a <= 20", options);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(run->output.SameRowsAs(flat->output));
}

TEST_F(NestedQueryTest, AggregateSubqueryFeedsOuterJoin) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  // Inner: per-a count over r1. Outer: join with r2 on the group key.
  auto run = optimizer.Run(
      "SELECT DISTINCT g.k FROM "
      "(SELECT r1.a AS k, count(*) AS n FROM r1 GROUP BY r1.a) g, r2 "
      "WHERE g.k = r2.a",
      options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  auto flat = optimizer.Run(
      "SELECT DISTINCT r1.a FROM r1, r2 WHERE r1.a = r2.a", options);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(run->output.SameRowsAs(flat->output));
}

TEST_F(NestedQueryTest, NestedQ8MatchesFlattenedQ8) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (OptimizerMode mode :
       {OptimizerMode::kDpStatistics, OptimizerMode::kQhdHybrid}) {
    RunOptions options;
    options.mode = mode;
    auto nested = optimizer.Run(TpchQ8Nested(), options);
    ASSERT_TRUE(nested.ok()) << nested.status().message();
    auto flat = optimizer.Run(TpchQ8(), options);
    ASSERT_TRUE(flat.ok()) << flat.status().message();
    EXPECT_TRUE(nested->output.SameRowsAs(flat->output))
        << OptimizerModeName(mode);
  }
}

TEST_F(NestedQueryTest, ResolveRejectsDerivedTablesDirectly) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  auto rq = optimizer.Resolve(
      "SELECT d.x FROM (SELECT r1.a AS x FROM r1) d");
  ASSERT_FALSE(rq.ok());
  EXPECT_EQ(rq.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace htqo
