#include "opt/bag_program.h"

#include <gtest/gtest.h>

#include "api/hybrid_optimizer.h"
#include "cq/hypergraph_builder.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "opt/naive_optimizer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

// The q-HD modes end to end through HybridOptimizer::RunResolved, checked
// against a naive hash-join reference.
class QhdEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{120, 40, 10, 11}, &catalog_);
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

  // Runs `rq` in a q-HD mode; `stats` defaults to the analyzed registry.
  Result<QueryRun> RunQhd(const ResolvedQuery& rq, RunOptions options,
                          const StatisticsRegistry* stats) {
    return HybridOptimizer(&catalog_, stats).RunResolved(rq, options);
  }
  Result<QueryRun> RunQhd(const ResolvedQuery& rq,
                          OptimizerMode mode = OptimizerMode::kQhdHybrid) {
    RunOptions options;
    options.mode = mode;
    return RunQhd(rq, options, &registry_);
  }

  // Reference: naive hash-join of all atoms, projected to out vars, then
  // the SELECT output.
  Relation ReferenceOutput(const ResolvedQuery& rq) {
    ExecContext ctx;
    auto plan = NaiveFromOrderPlan(rq.cq.atoms.size(), JoinAlgo::kHash);
    auto joined = ExecuteJoinPlan(*plan, rq, catalog_, &ctx);
    EXPECT_TRUE(joined.ok()) << joined.status().message();
    auto answer = ProjectToOutputVars(rq, *joined, &ctx);
    EXPECT_TRUE(answer.ok());
    auto out = EvaluateSelectOutput(rq, *answer, &ctx);
    EXPECT_TRUE(out.ok());
    return std::move(out.value());
  }

  // The run answered through a q-hypertree decomposition, not a fallback.
  static void ExpectQhdPlan(const QueryRun& run) {
    EXPECT_FALSE(run.used_fallback()) << run.degradations.front();
    EXPECT_EQ(run.plan_description.rfind("q-hypertree decomposition", 0), 0u)
        << run.plan_description;
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(QhdEvalTest, LineQueryMatchesReference) {
  for (std::size_t n : {2u, 4u, 6u, 9u}) {
    ResolvedQuery rq = Resolve(LineQuerySql(n));
    auto run = RunQhd(rq);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ExpectQhdPlan(*run);
    EXPECT_TRUE(run->output.SameRowsAs(ReferenceOutput(rq))) << n;
  }
}

TEST_F(QhdEvalTest, ChainQueryMatchesReference) {
  for (std::size_t n : {3u, 5u, 8u, 10u}) {
    ResolvedQuery rq = Resolve(ChainQuerySql(n));
    auto run = RunQhd(rq);
    ASSERT_TRUE(run.ok()) << run.status().message();
    ExpectQhdPlan(*run);
    EXPECT_TRUE(run->output.SameRowsAs(ReferenceOutput(rq))) << n;
  }
}

TEST_F(QhdEvalTest, StructuralModeMatchesReference) {
  ResolvedQuery rq = Resolve(ChainQuerySql(6));
  RunOptions options;
  options.mode = OptimizerMode::kQhdStructural;
  auto run = RunQhd(rq, options, /*stats=*/nullptr);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ExpectQhdPlan(*run);
  EXPECT_TRUE(run->output.SameRowsAs(ReferenceOutput(rq)));
}

TEST_F(QhdEvalTest, NoOptimizeMatchesOptimize) {
  ResolvedQuery rq = Resolve(ChainQuerySql(7));
  auto a = RunQhd(rq, OptimizerMode::kQhdHybrid);
  auto b = RunQhd(rq, OptimizerMode::kQhdNoOptimize);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectQhdPlan(*a);
  ExpectQhdPlan(*b);
  EXPECT_TRUE(a->output.SameRowsAs(b->output));
}

TEST_F(QhdEvalTest, OptimizeNeverIncreasesPeakRows) {
  ResolvedQuery rq = Resolve(ChainQuerySql(8));
  auto a = RunQhd(rq, OptimizerMode::kQhdHybrid);
  auto b = RunQhd(rq, OptimizerMode::kQhdNoOptimize);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectQhdPlan(*a);
  ExpectQhdPlan(*b);
  // A sanity bound, not a strict one.
  EXPECT_LE(a->ctx.work_charged, b->ctx.work_charged * 2);
}

TEST_F(QhdEvalTest, PeakIntermediateIsPolynomiallyBounded) {
  // The whole point of good q-HDs: projected node relations are bounded by
  // the join of <= width base relations, and in-flight (pre-projection) join
  // bags stay within a small constant of that. For width-<=3 chains over
  // 120-row relations a very loose polynomial bound is 120^2 * 8; the
  // exponential naive evaluation at n=10 would exceed it by orders of
  // magnitude.
  ResolvedQuery rq = Resolve(ChainQuerySql(10));
  auto run = RunQhd(rq);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ExpectQhdPlan(*run);
  EXPECT_LE(run->ctx.peak_rows, 120u * 120u * 8u);
}

TEST_F(QhdEvalTest, WidthBoundFailureFallsThroughAsNotFound) {
  ResolvedQuery rq = Resolve(ChainQuerySql(5));
  RunOptions options;
  options.max_width = 1;  // chains are cyclic: need width 2
  options.fallback_to_dp = false;
  auto run = RunQhd(rq, options, &registry_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST_F(QhdEvalTest, AggregateQueryWithTidsMatchesReference) {
  ResolvedQuery rq = Resolve(
      "SELECT r1.a AS k, count(*) AS n, sum(r2.b) AS s "
      "FROM r1, r2 WHERE r1.b = r2.a GROUP BY r1.a ORDER BY k",
      TidMode::kAggregatesOnly);
  auto run = RunQhd(rq);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ExpectQhdPlan(*run);
  EXPECT_TRUE(run->output.SameRowsAs(ReferenceOutput(rq)));
}

TEST_F(QhdEvalTest, AlwaysFalseQueryYieldsEmptyAnswer) {
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT r1.a FROM r1 WHERE 1 = 2 AND r1.a = r1.a");
  Hypertree hd;
  Bitset chi(rq.cq.vars.size());
  for (VarId v : rq.cq.output_vars) chi.Set(v);
  Bitset lambda(1);
  lambda.Set(0);
  hd.AddNode(chi, lambda);
  ExecContext ctx;
  auto answer = RunBagProgram(QhdProgram(rq, hd), rq, catalog_, &ctx);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->NumRows(), 0u);
}

// Guard-rich decompositions (first-feasible det-k-decomp) carry bounding
// copies that Procedure Optimize prunes; the evaluator must produce the
// same answer for the raw tree, the pruned tree, and the min-cost tree.
class FirstFeasiblePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(FirstFeasiblePropertyTest, GuardRichTreesEvaluateCorrectly) {
  auto [n, chain] = GetParam();
  Catalog catalog;
  PopulateSyntheticCatalog(SyntheticConfig{90, 50, 10, 77}, &catalog);
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  auto stmt = ParseSelect(chain ? ChainQuerySql(n) : LineQuerySql(n));
  ASSERT_TRUE(stmt.ok());
  auto rq = IsolateConjunctiveQuery(*stmt, catalog,
                                    IsolatorOptions{TidMode::kNone});
  ASSERT_TRUE(rq.ok());

  // Reference: naive hash join.
  ExecContext ref_ctx;
  auto plan = NaiveFromOrderPlan(rq->cq.atoms.size(), JoinAlgo::kHash);
  auto joined = ExecuteJoinPlan(*plan, *rq, catalog, &ref_ctx);
  ASSERT_TRUE(joined.ok());
  auto reference = ProjectToOutputVars(*rq, *joined, &ref_ctx);
  ASSERT_TRUE(reference.ok());

  Hypergraph h = BuildHypergraph(rq->cq);
  Bitset out = OutputVarsBitset(rq->cq);
  StructuralCostModel model;
  for (std::size_t k : {2u, 3u}) {
    for (bool optimize : {false, true}) {
      QhdOptions options;
      options.max_width = k;
      options.run_optimize = optimize;
      options.first_feasible = true;
      auto qhd = QHypertreeDecomp(h, out, model, options);
      if (!qhd.ok()) continue;  // width too small for this topology
      ExecContext ctx;
      auto answer =
          RunBagProgram(QhdProgram(*rq, qhd->hd), *rq, catalog, &ctx);
      ASSERT_TRUE(answer.ok()) << answer.status().message();
      EXPECT_TRUE(answer->SameRowsAs(*reference))
          << "n=" << n << " chain=" << chain << " k=" << k
          << " optimize=" << optimize << "\n"
          << qhd->hd.ToString(h);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FirstFeasiblePropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10),
                       ::testing::Bool()));

TEST_F(QhdEvalTest, RowBudgetPropagates) {
  ResolvedQuery rq = Resolve(ChainQuerySql(6));
  RunOptions options;
  options.row_budget = 10;
  auto run = RunQhd(rq, options, &registry_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace htqo
