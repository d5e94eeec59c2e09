#include "opt/dp_optimizer.h"

#include <gtest/gtest.h>

#include "opt/geqo_optimizer.h"
#include "opt/naive_optimizer.h"
#include "sql/parser.h"
#include "stats/statistics.h"
#include "test_util.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{200, 50, 8, 3}, &catalog_);
    // A deliberately tiny relation so good orders are distinguishable.
    catalog_.Put("tiny", IntRelation({"a", "b"}, {{1, 2}, {3, 4}}));
    registry_.AnalyzeAll(catalog_);
  }

  ResolvedQuery Resolve(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().message();
    auto rq = IsolateConjunctiveQuery(*stmt, catalog_,
                                      IsolatorOptions{TidMode::kNone});
    EXPECT_TRUE(rq.ok()) << rq.status().message();
    return std::move(rq.value());
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(OptimizerTest, JoinGraphUsesStatistics) {
  ResolvedQuery rq = Resolve(LineQuerySql(3));
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  EXPECT_EQ(graph.num_atoms(), 3u);
  EXPECT_DOUBLE_EQ(graph.rows(0), 200.0);
  Bitset first(3);
  first.Set(0);
  Bitset second(3);
  second.Set(1);
  EXPECT_TRUE(graph.VarsOf(first).Intersects(graph.VarsOf(second)));
}

TEST_F(OptimizerTest, CostModelRowsAreMonotoneInSelectivity) {
  ResolvedQuery rq = Resolve(LineQuerySql(3));
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  Bitset pair(3);
  pair.Set(0);
  pair.Set(1);
  double rows_pair = cost.RowsOf(pair);
  Bitset all(3);
  all.Set(0);
  all.Set(1);
  all.Set(2);
  double rows_all = cost.RowsOf(all);
  EXPECT_GT(rows_pair, 200.0);  // joins fan out at selectivity 50
  EXPECT_GT(rows_all, rows_pair);
}

TEST_F(OptimizerTest, DpCoversAllAtomsExactlyOnce) {
  ResolvedQuery rq = Resolve(ChainQuerySql(6));
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  auto plan = DpOptimize(graph, cost);
  ASSERT_TRUE(plan.ok());
  std::vector<std::size_t> atoms;
  (*plan)->CollectAtoms(&atoms);
  std::sort(atoms.begin(), atoms.end());
  EXPECT_EQ(atoms, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(OptimizerTest, DpBeatsOrMatchesNaiveOnEstimatedCost) {
  ResolvedQuery rq = Resolve(ChainQuerySql(6));
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  auto dp = DpOptimize(graph, cost);
  ASSERT_TRUE(dp.ok());
  auto naive = NaiveFromOrderPlan(graph.num_atoms(), JoinAlgo::kHash);
  EXPECT_LE(cost.PlanCost(**dp), cost.PlanCost(*naive));
}

TEST_F(OptimizerTest, DpPutsTinyRelationEarly) {
  // Query joining tiny with two big relations; the optimal left-deep prefix
  // starts from (or quickly reaches) the tiny relation.
  ResolvedQuery rq = Resolve(
      "SELECT DISTINCT tiny.a FROM tiny, r1, r2 "
      "WHERE tiny.b = r1.a AND r1.b = r2.a");
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  auto dp = DpOptimize(graph, cost);
  ASSERT_TRUE(dp.ok());
  // The plan's estimated cost must not exceed the worst order's.
  auto worst = LeftDeepPlan({1, 2, 0}, graph, cost, 0);
  EXPECT_LE(cost.PlanCost(**dp), cost.PlanCost(*worst));
}

TEST_F(OptimizerTest, LeftDeepDpIsNoBetterThanBushy) {
  ResolvedQuery rq = Resolve(ChainQuerySql(7));
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  auto bushy = DpOptimize(graph, cost, DpOptions{true, 0});
  auto leftdeep = DpOptimize(graph, cost, DpOptions{false, 0});
  ASSERT_TRUE(bushy.ok() && leftdeep.ok());
  EXPECT_LE(cost.PlanCost(**bushy), cost.PlanCost(**leftdeep) + 1e-9);
}

TEST_F(OptimizerTest, NestedLoopThresholdSwitchesAlgorithm) {
  ResolvedQuery rq = Resolve(LineQuerySql(2));
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  auto hash_plan = DpOptimize(graph, cost, DpOptions{true, 0.0});
  auto nl_plan = DpOptimize(graph, cost, DpOptions{true, 1e9});
  ASSERT_TRUE(hash_plan.ok() && nl_plan.ok());
  EXPECT_EQ((*hash_plan)->algo, JoinAlgo::kHash);
  EXPECT_EQ((*nl_plan)->algo, JoinAlgo::kNestedLoop);
}

TEST_F(OptimizerTest, GeqoIsDeterministicPerSeed) {
  ResolvedQuery rq = Resolve(ChainQuerySql(8));
  Estimator est(nullptr);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  GeqoOptions opts;
  opts.seed = 17;
  auto a = GeqoOptimize(graph, cost, opts);
  auto b = GeqoOptimize(graph, cost, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->ToString(rq), (*b)->ToString(rq));
}

TEST_F(OptimizerTest, GeqoFindsConnectedOrder) {
  // On a chain, a good left-deep order avoids cross products; GEQO's best
  // plan must cost no more than the naive FROM order.
  ResolvedQuery rq = Resolve(ChainQuerySql(8));
  Estimator est(&registry_);
  JoinGraph graph = BuildJoinGraph(rq, est);
  PlanCostModel cost(graph);
  auto geqo = GeqoOptimize(graph, cost, GeqoOptions{});
  ASSERT_TRUE(geqo.ok());
  auto naive = NaiveFromOrderPlan(graph.num_atoms(), JoinAlgo::kHash);
  EXPECT_LE(cost.PlanCost(**geqo), cost.PlanCost(*naive) * 1.01);
}

TEST_F(OptimizerTest, NaivePlanIsLeftDeepInFromOrder) {
  auto plan = NaiveFromOrderPlan(4, JoinAlgo::kNestedLoop);
  std::vector<std::size_t> atoms;
  plan->CollectAtoms(&atoms);
  EXPECT_EQ(atoms, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(plan->algo, JoinAlgo::kNestedLoop);
  EXPECT_FALSE(plan->left->IsLeaf());
  EXPECT_TRUE(plan->right->IsLeaf());
}

TEST_F(OptimizerTest, DpRejectsEmptyGraph) {
  JoinGraph graph;
  PlanCostModel cost(graph);
  EXPECT_FALSE(DpOptimize(graph, cost).ok());
}

}  // namespace
}  // namespace htqo
