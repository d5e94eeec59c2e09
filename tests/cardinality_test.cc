// The per-query cardinality estimate away from SQL, and under a parallel
// reader. SQL-built estimates floor rows and distinct counts at 1, so the
// golden queries of estimate_golden_test.cc never reach the hand-built
// cases below: a zero-row edge, a variable no atom binds, and Pin.

#include <gtest/gtest.h>

#include "api/hybrid_optimizer.h"
#include "cq/hypergraph_builder.h"
#include "decomp/qhd.h"
#include "opt/cost_model.h"
#include "stats/cardinality.h"
#include "util/thread_pool.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

// x-y-z path: e0 = {x, y}, e1 = {y, z}.
CardinalityEstimate PathEstimate(Hypergraph* h) {
  h->AddEdge({0, 1});
  h->AddEdge({1, 2});
  return CardinalityEstimate(h->edges(), h->NumVertices());
}

TEST(EstimateTest, ZeroRowEdgeFloorsDistinctCountsAtOne) {
  Hypergraph h(3);
  CardinalityEstimate estimate = PathEstimate(&h);
  estimate.SetRows(0, 0.0);  // unset distinct counts read as the rows: 0
  estimate.SetRows(1, 500.0);
  estimate.SetDistinct(1, 1, 0.0);
  Bitset both = h.AllEdges();
  // Every count of y is 0: it divides by the floor of 1, not by a default.
  EXPECT_DOUBLE_EQ(estimate.DistinctOf(1, both), 1.0);
  EXPECT_DOUBLE_EQ(estimate.JoinRows(both), 500.0);
  // The DP's memoized rows and the search's vertex rows read the same
  // numbers.
  EXPECT_DOUBLE_EQ(PlanCostModel(estimate).RowsOf(both), 500.0);
  StatsDecompositionCostModel model(h, estimate);
  EXPECT_DOUBLE_EQ(model.VertexRows(both, h.VarsOf(both)), 500.0);
  Bitset y = h.EmptyVertexSet();
  y.Set(1);
  EXPECT_DOUBLE_EQ(model.VertexRows(both, y), 1.0);
  estimate.SetDistinct(1, 1, 0.5);  // a fraction floors at 1 too
  EXPECT_DOUBLE_EQ(estimate.DistinctOf(1, both), 1.0);
}

TEST(EstimateTest, UnboundVariableGetsTheDefaultDistinctCount) {
  Hypergraph h(3);
  const CardinalityEstimate estimate = PathEstimate(&h);
  Bitset first = h.EmptyEdgeSet();
  first.Set(0);
  // z is bound by no atom of {e0}: a chi variable Optimize left uncovered.
  EXPECT_DOUBLE_EQ(estimate.DistinctOf(2, first),
                   CardinalityEstimate::kDefaultRows);
  EXPECT_DOUBLE_EQ(estimate.DistinctOf(1, first),
                   CardinalityEstimate::kDefaultRows);  // unset: the rows
}

TEST(EstimateTest, PinReplacesRowsAndCapsDistinctCounts) {
  Hypergraph h(3);
  CardinalityEstimate estimate = PathEstimate(&h);
  estimate.SetRows(1, 400.0);
  estimate.SetDistinct(1, 1, 50.0);
  estimate.Pin(1, 20.0);
  EXPECT_DOUBLE_EQ(estimate.rows(1), 20.0);
  EXPECT_DOUBLE_EQ(estimate.distinct(1, 1), 20.0);  // capped
  EXPECT_DOUBLE_EQ(estimate.distinct(1, 2), 20.0);  // unset: the rows
  estimate.Pin(1, 0.0);
  EXPECT_DOUBLE_EQ(estimate.rows(1), 1.0);  // an empty scan pins one row
  EXPECT_DOUBLE_EQ(estimate.distinct(1, 1), 1.0);
}

TEST(EstimateTest, ParallelSearchReadsOneEstimate) {
  // The root fan-out prices separators from pool lanes against one shared,
  // unmemoized estimate: the result equals the serial search's.
  Catalog catalog;
  PopulateSyntheticCatalog(SyntheticConfig{150, 30, 10, 5}, &catalog);
  StatisticsRegistry stats;
  stats.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &stats);
  auto rq = optimizer.Resolve(ChainQuerySql(10));
  ASSERT_TRUE(rq.ok()) << rq.status().message();
  const Hypergraph h = BuildHypergraph(rq->cq);
  const StatsDecompositionCostModel model(
      h, BuildEdgeStats(rq->cq, Estimator(&stats)));
  auto serial = CostKDecomp(h, 3, model);
  ThreadPool pool(3);
  auto parallel = CostKDecomp(h, 3, model, nullptr, nullptr, &pool, 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->ToString(h), serial->ToString(h));
}

}  // namespace
}  // namespace htqo
