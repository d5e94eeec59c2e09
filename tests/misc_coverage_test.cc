// Consolidated coverage for smaller API surfaces: mode names, run options
// plumbing, CQ rendering, GEQO/naive degenerate inputs, relation printing.

#include <gtest/gtest.h>

#include "api/hybrid_optimizer.h"
#include "opt/geqo_optimizer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

TEST(ModeNamesTest, EveryModeHasAUniqueName) {
  const OptimizerMode modes[] = {
      OptimizerMode::kQhdHybrid,      OptimizerMode::kQhdStructural,
      OptimizerMode::kQhdNoOptimize,  OptimizerMode::kDpStatistics,
      OptimizerMode::kNaive,          OptimizerMode::kGeqoDefaults,
      OptimizerMode::kYannakakis,     OptimizerMode::kClassicHd,
      OptimizerMode::kTreeDecomposition,
  };
  std::set<std::string> names;
  for (OptimizerMode m : modes) {
    std::string name = OptimizerModeName(m);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

class ApiPlumbingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{60, 50, 6, 9}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }
  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(ApiPlumbingTest, PlanDetailsPopulatedForBothFamilies) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions qhd;
  qhd.mode = OptimizerMode::kQhdHybrid;
  auto qhd_run = optimizer.Run(ChainQuerySql(4), qhd);
  ASSERT_TRUE(qhd_run.ok());
  EXPECT_NE(qhd_run->plan_details.find("chi="), std::string::npos);

  RunOptions dp;
  dp.mode = OptimizerMode::kDpStatistics;
  auto dp_run = optimizer.Run(ChainQuerySql(4), dp);
  ASSERT_TRUE(dp_run.ok());
  EXPECT_NE(dp_run->plan_details.find("HJ"), std::string::npos);
}

TEST_F(ApiPlumbingTest, SeedChangesAreDeterministicPerSeed) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions a;
  a.mode = OptimizerMode::kGeqoDefaults;
  a.seed = 5;
  auto r1 = optimizer.Run(ChainQuerySql(6), a);
  auto r2 = optimizer.Run(ChainQuerySql(6), a);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->plan_description, r2->plan_description);
  EXPECT_TRUE(r1->output.SameRowsAs(r2->output));
}

TEST_F(ApiPlumbingTest, TidModeChangesOutputVars) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  auto none = optimizer.Resolve(ChainQuerySql(3), TidMode::kNone);
  auto all = optimizer.Resolve(ChainQuerySql(3), TidMode::kAllAtoms);
  ASSERT_TRUE(none.ok() && all.ok());
  EXPECT_EQ(none->cq.output_vars.size(), 1u);
  EXPECT_EQ(all->cq.output_vars.size(), 4u);  // + one tid per atom
}

TEST_F(ApiPlumbingTest, SingleAtomQueryThroughAllModes) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (OptimizerMode mode :
       {OptimizerMode::kDpStatistics, OptimizerMode::kNaive,
        OptimizerMode::kGeqoDefaults, OptimizerMode::kQhdHybrid,
        OptimizerMode::kYannakakis, OptimizerMode::kTreeDecomposition}) {
    RunOptions options;
    options.mode = mode;
    options.tid_mode = TidMode::kNone;
    auto run = optimizer.Run(
        "SELECT DISTINCT r1.a FROM r1 WHERE r1.b >= 0", options);
    ASSERT_TRUE(run.ok()) << OptimizerModeName(mode) << ": "
                          << run.status().message();
    EXPECT_GT(run->output.NumRows(), 0u) << OptimizerModeName(mode);
  }
}

TEST_F(ApiPlumbingTest, CqToStringShowsTidsAndAliases) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  auto rq = optimizer.Resolve(
      "SELECT x.a AS k, count(*) AS n FROM r1 x GROUP BY x.a",
      TidMode::kAggregatesOnly);
  ASSERT_TRUE(rq.ok()) << rq.status().message();
  std::string s = rq->cq.ToString();
  EXPECT_NE(s.find("x$tid"), std::string::npos) << s;
  EXPECT_NE(s.find("x("), std::string::npos) << s;
}

TEST(GeqoDegenerateTest, SingleAndTwoAtomGraphs) {
  Catalog catalog;
  PopulateSyntheticCatalog(SyntheticConfig{30, 50, 2, 3}, &catalog);
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  auto rq1 = optimizer.Resolve("SELECT DISTINCT r1.a FROM r1 WHERE r1.a >= 0",
                               TidMode::kNone);
  ASSERT_TRUE(rq1.ok());
  Estimator est(&registry);
  JoinGraph g1 = BuildJoinGraph(*rq1, est);
  PlanCostModel c1(g1);
  auto p1 = GeqoOptimize(g1, c1, GeqoOptions{});
  ASSERT_TRUE(p1.ok());
  EXPECT_TRUE((*p1)->IsLeaf());

  auto rq2 = optimizer.Resolve(LineQuerySql(2), TidMode::kNone);
  ASSERT_TRUE(rq2.ok());
  JoinGraph g2 = BuildJoinGraph(*rq2, est);
  PlanCostModel c2(g2);
  auto p2 = GeqoOptimize(g2, c2, GeqoOptions{});
  ASSERT_TRUE(p2.ok());
  std::vector<std::size_t> atoms;
  (*p2)->CollectAtoms(&atoms);
  EXPECT_EQ(atoms.size(), 2u);
}

TEST(RelationPrintTest, TruncatesLongDumps) {
  Relation rel = IntRelation({"a"}, {});
  for (int64_t i = 0; i < 30; ++i) rel.AddRow({Value::Int64(i)});
  std::string s = rel.ToString(5);
  EXPECT_NE(s.find("[30 rows]"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
  // Exactly 5 data lines.
  std::size_t lines = 0;
  for (char c : s) lines += c == '\n';
  EXPECT_EQ(lines, 7u);  // header + 5 rows + ellipsis
}

TEST(JoinGraphTest, VarsOfAndConnected) {
  Catalog catalog;
  PopulateSyntheticCatalog(SyntheticConfig{20, 50, 3, 1}, &catalog);
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  auto rq = optimizer.Resolve(LineQuerySql(3), TidMode::kNone);
  ASSERT_TRUE(rq.ok());
  Estimator est(&registry);
  JoinGraph graph = BuildJoinGraph(*rq, est);
  Bitset first(graph.num_atoms());
  first.Set(0);
  Bitset last(graph.num_atoms());
  last.Set(2);
  // r1 and r3 share no variable on a line.
  EXPECT_FALSE(graph.VarsOf(first).Intersects(graph.VarsOf(last)));
  Bitset mid(graph.num_atoms());
  mid.Set(1);
  EXPECT_TRUE(graph.VarsOf(first).Intersects(graph.VarsOf(mid)));
}

}  // namespace
}  // namespace htqo
