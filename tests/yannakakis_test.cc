#include "opt/bag_program.h"

#include <gtest/gtest.h>

#include "api/hybrid_optimizer.h"
#include "cq/hypergraph_builder.h"
#include "decomp/qhd.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "hypergraph/join_tree.h"
#include "opt/naive_optimizer.h"
#include "sql/parser.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

class YannakakisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{130, 40, 10, 23}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  ResolvedQuery Resolve(const std::string& sql,
                        TidMode tid = TidMode::kNone) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().message();
    auto rq =
        IsolateConjunctiveQuery(*stmt, catalog_, IsolatorOptions{tid});
    EXPECT_TRUE(rq.ok()) << rq.status().message();
    return std::move(rq.value());
  }

  Relation ReferenceAnswer(const ResolvedQuery& rq) {
    ExecContext ctx;
    auto plan = NaiveFromOrderPlan(rq.cq.atoms.size(), JoinAlgo::kHash);
    auto joined = ExecuteJoinPlan(*plan, rq, catalog_, &ctx);
    EXPECT_TRUE(joined.ok());
    auto answer = ProjectToOutputVars(rq, *joined, &ctx);
    EXPECT_TRUE(answer.ok());
    return std::move(answer.value());
  }

  // Yannakakis's algorithm over a join forest of the query's H(Q).
  Result<Relation> Yannakakis(const ResolvedQuery& rq, ExecContext* ctx) {
    Hypergraph h = BuildHypergraph(rq.cq);
    auto forest = BuildJoinForest(h);
    if (!forest.ok()) return forest.status();
    return RunBagProgram(YannakakisProgram(rq, h, *forest), rq, catalog_,
                         ctx);
  }

  // The classic S2'/S2'' pipeline over the complete decomposition `hd`.
  Result<Relation> Classic(const ResolvedQuery& rq, const Hypergraph& h,
                           const Hypertree& hd, ExecContext* ctx) {
    auto program = ClassicProgram(rq, h, hd);
    if (!program.ok()) return program.status();
    return RunBagProgram(*program, rq, catalog_, ctx);
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(YannakakisTest, LineQueriesMatchReference) {
  for (std::size_t n : {2u, 4u, 7u, 10u}) {
    ResolvedQuery rq = Resolve(LineQuerySql(n));
    ExecContext ctx;
    auto answer = Yannakakis(rq, &ctx);
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    EXPECT_TRUE(answer->SameRowsAs(ReferenceAnswer(rq))) << n;
  }
}

TEST_F(YannakakisTest, RejectsCyclicQueries) {
  // A cyclic H(Q) has no join forest to hand the evaluator.
  ResolvedQuery rq = Resolve(ChainQuerySql(5));
  auto forest = BuildJoinForest(BuildHypergraph(rq.cq));
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kNotFound);
}

TEST_F(YannakakisTest, SemijoinReductionBoundsIntermediates) {
  // After the two semijoin passes, every node relation is fully reduced:
  // peak intermediate size stays within the output+input bound — far below
  // the exponential bag join of a 10-atom line at 40% selectivity.
  ResolvedQuery rq = Resolve(LineQuerySql(10));
  ExecContext ctx;
  auto answer = Yannakakis(rq, &ctx);
  ASSERT_TRUE(answer.ok());
  EXPECT_LE(ctx.peak_rows, 130u * 130u);
}

TEST_F(YannakakisTest, StarQueryMatchesReference) {
  ResolvedQuery rq = Resolve(
      "SELECT DISTINCT r1.a FROM r1, r2, r3, r4 "
      "WHERE r1.a = r2.a AND r1.a = r3.a AND r1.b = r4.b");
  ExecContext ctx;
  auto answer = Yannakakis(rq, &ctx);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_TRUE(answer->SameRowsAs(ReferenceAnswer(rq)));
}

TEST_F(YannakakisTest, BooleanStyleSingleOutput) {
  // A highly selective query: answer should still be exact.
  ResolvedQuery rq = Resolve(
      "SELECT DISTINCT r1.a FROM r1, r2 WHERE r1.b = r2.a AND r1.a = 3");
  ExecContext ctx;
  auto answer = Yannakakis(rq, &ctx);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->SameRowsAs(ReferenceAnswer(rq)));
}

TEST_F(YannakakisTest, AlwaysFalseShortCircuits) {
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT r1.a FROM r1 WHERE 1 = 2 AND r1.a = r1.a");
  ExecContext ctx;
  auto answer = Yannakakis(rq, &ctx);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->NumRows(), 0u);
}

class ClassicHdTest : public YannakakisTest {};

TEST_F(ClassicHdTest, ChainQueriesMatchReference) {
  for (std::size_t n : {3u, 5u, 8u, 10u}) {
    ResolvedQuery rq = Resolve(ChainQuerySql(n));
    Hypergraph h = BuildHypergraph(rq.cq);
    Estimator est(&registry_);
    StatsDecompositionCostModel model(h, BuildEdgeStats(rq.cq, est));
    auto hd = CostKDecomp(h, 3, model);
    ASSERT_TRUE(hd.ok());
    CompleteDecomposition(h, &hd.value());
    ExecContext ctx;
    auto answer = Classic(rq, h, *hd, &ctx);
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    EXPECT_TRUE(answer->SameRowsAs(ReferenceAnswer(rq))) << n;
  }
}

TEST_F(ClassicHdTest, RejectsOptimizedDecompositions) {
  ResolvedQuery rq = Resolve(ChainQuerySql(6));
  Hypergraph h = BuildHypergraph(rq.cq);
  StructuralCostModel model;
  QhdOptions options;
  options.max_width = 2;
  options.first_feasible = true;  // guard-rich trees: Optimize prunes a lot
  auto qhd = QHypertreeDecomp(h, OutputVarsBitset(rq.cq), model, options);
  ASSERT_TRUE(qhd.ok());
  ASSERT_GT(qhd->pruned, 0u);
  ExecContext ctx;
  auto answer = Classic(rq, h, qhd->hd, &ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ClassicHdTest, ModeThroughHybridOptimizer) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions classic;
  classic.mode = OptimizerMode::kClassicHd;
  classic.tid_mode = TidMode::kNone;
  auto classic_run = optimizer.Run(ChainQuerySql(7), classic);
  ASSERT_TRUE(classic_run.ok()) << classic_run.status().message();
  RunOptions qhd;
  qhd.mode = OptimizerMode::kQhdHybrid;
  qhd.tid_mode = TidMode::kNone;
  auto qhd_run = optimizer.Run(ChainQuerySql(7), qhd);
  ASSERT_TRUE(qhd_run.ok());
  EXPECT_TRUE(classic_run->output.SameRowsAs(qhd_run->output));
  EXPECT_NE(classic_run->plan_description.find("classic"),
            std::string::npos);
}

TEST_F(ClassicHdTest, YannakakisModeFallsBackOnCyclic) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kYannakakis;
  options.tid_mode = TidMode::kNone;
  options.fallback_to_dp = true;
  auto run = optimizer.Run(ChainQuerySql(5), options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_TRUE(run->used_fallback());

  // Acyclic: no fallback needed.
  auto line = optimizer.Run(LineQuerySql(5), options);
  ASSERT_TRUE(line.ok());
  EXPECT_FALSE(line->used_fallback());
  EXPECT_NE(line->plan_description.find("yannakakis"), std::string::npos);
}

}  // namespace
}  // namespace htqo
