// Golden contract of HybridOptimizer's plan -> execute -> seal pipeline.
//
// Every optimizer mode runs on four query kinds (acyclic, cyclic,
// constant-false, nested), and a handful of forced degradation-ladder walks
// run on top. Each run is reduced to one text record — an in-order digest
// of the output rows, the plan description and untraced details, the
// degradation steps, the plan-cache outcome, widths, replans, the execution
// meters and the governor's search-node count — and compared against a
// recorded literal. A change that moves any literal changes what the
// pipeline answers or reports, and has to say so.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "cache/decomp_cache.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

const char* const kAcyclicSql =
    "SELECT r1.a AS k, count(*) AS n FROM r1, r2, r3, r4 "
    "WHERE r1.b = r2.a AND r2.b = r3.a AND r3.b = r4.a "
    "GROUP BY r1.a ORDER BY k";
const char* const kCyclicSql =
    "SELECT DISTINCT r1.a, r3.a FROM r1, r2, r3, r4, r5 "
    "WHERE r1.b = r2.a AND r2.b = r3.a AND r3.b = r4.a AND r4.b = r5.a "
    "AND r5.b = r1.a";
const char* const kConstantFalseSql =
    "SELECT DISTINCT r1.a FROM r1, r2 WHERE r1.b = r2.a AND 1 = 2";
const char* const kNestedSql =
    "SELECT d.a AS k, count(*) AS n FROM "
    "(SELECT r1.a, r2.b FROM r1, r2 WHERE r1.b = r2.a) d, r3 "
    "WHERE d.b = r3.a GROUP BY d.a ORDER BY k";
const char* const kTriangleSql =
    "SELECT DISTINCT r1.a, r2.a FROM r1, r2, r3 "
    "WHERE r1.b = r2.a AND r2.b = r3.a AND r3.b = r1.a";

const Catalog& GoldenCatalog() {
  static const Catalog* catalog = [] {
    auto* c = new Catalog();
    PopulateSyntheticCatalog(SyntheticConfig{120, 40, 10, 11}, c);
    return c;
  }();
  return *catalog;
}

const StatisticsRegistry& GoldenStats() {
  static const StatisticsRegistry* stats = [] {
    auto* s = new StatisticsRegistry();
    s->AnalyzeAll(GoldenCatalog());
    return s;
  }();
  return *stats;
}

// FNV-1a over the rows in output order.
uint64_t RowDigest(const Relation& rel) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    for (std::size_t c = 0; c < rel.arity(); ++c) {
      mix(rel.At(r, c).ToString() + "|");
    }
    mix("\n");
  }
  return h;
}

std::string Record(const Result<QueryRun>& result) {
  if (!result.ok()) {
    return "error " +
           std::to_string(static_cast<int>(result.status().code())) + ": " +
           result.status().message() + "\n";
  }
  const QueryRun& run = *result;
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(RowDigest(run.output)));
  std::string out = "rows=" + std::to_string(run.output.NumRows()) +
                    " digest=" + digest + "\n";
  out += "description=" + run.plan_description + "\n";
  out += "details:\n" + run.plan_details;
  out += "degradations:\n";
  for (const std::string& d : run.degradations) out += "- " + d + "\n";
  out += "plan_cache=" + run.plan_cache +
         " width=" + std::to_string(run.decomposition_width) +
         " pruned=" + std::to_string(run.pruned_lambda_entries) +
         " replans=" + std::to_string(run.replans) + "\n";
  out += "rows_charged=" + std::to_string(run.ctx.rows_charged.load()) +
         " work_charged=" + std::to_string(run.ctx.work_charged.load()) +
         " hash_probes=" + std::to_string(run.ctx.hash_probes.load()) +
         " bloom_skips=" + std::to_string(run.ctx.bloom_skips.load()) +
         " batches=" + std::to_string(run.ctx.batches.load()) +
         " peak_rows=" + std::to_string(run.ctx.peak_rows.load()) + "\n";
  out += "search_nodes=" + std::to_string(run.governor.search_nodes) + "\n";
  return out;
}

struct GoldenCase {
  std::string name;
  std::string sql;
  RunOptions options;
  bool cache_hit = false;  // run twice on a cleared plan cache, record #2
};

// The mode x query-kind matrix runs under a node budget that never trips,
// so every attempt is governed and reports its search nodes.
RunOptions Counted(OptimizerMode mode) {
  RunOptions options;
  options.mode = mode;
  options.search_node_budget = 1000000000;
  return options;
}

std::vector<GoldenCase> GoldenCases();
const char* Expected(const std::string& name);

class PipelineGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineGoldenTest, MatchesRecordedPipeline) {
  const GoldenCase c = GoldenCases()[GetParam()];
  HybridOptimizer optimizer(&GoldenCatalog(), &GoldenStats());
  if (c.cache_hit) {
    DecompCache::Global().Clear();
    ASSERT_TRUE(optimizer.Run(c.sql, c.options).ok());
  }
  EXPECT_EQ(Record(optimizer.Run(c.sql, c.options)), Expected(c.name));
}

INSTANTIATE_TEST_SUITE_P(
    Runs, PipelineGoldenTest,
    ::testing::Range<std::size_t>(0, GoldenCases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return GoldenCases()[info.param].name;
    });

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  const std::pair<const char*, OptimizerMode> modes[] = {
      {"QhdHybrid", OptimizerMode::kQhdHybrid},
      {"QhdStructural", OptimizerMode::kQhdStructural},
      {"QhdNoOptimize", OptimizerMode::kQhdNoOptimize},
      {"DpStatistics", OptimizerMode::kDpStatistics},
      {"Naive", OptimizerMode::kNaive},
      {"GeqoDefaults", OptimizerMode::kGeqoDefaults},
      {"Yannakakis", OptimizerMode::kYannakakis},
      {"ClassicHd", OptimizerMode::kClassicHd},
      {"TreeDecomposition", OptimizerMode::kTreeDecomposition},
  };
  const std::pair<const char*, const char*> queries[] = {
      {"Acyclic", kAcyclicSql},
      {"Cyclic", kCyclicSql},
      {"ConstantFalse", kConstantFalseSql},
      {"Nested", kNestedSql},
  };
  for (const auto& [mode_name, mode] : modes) {
    for (const auto& [query_name, sql] : queries) {
      cases.push_back({std::string(mode_name) + "_" + query_name, sql,
                       Counted(mode)});
    }
  }
  // Forced ladder walks.
  {
    RunOptions o;
    o.mode = OptimizerMode::kQhdHybrid;
    o.max_width = 3;
    o.search_node_budget = 80;
    cases.push_back({"QhdBudgetRetriesAtNarrowerWidth", kCyclicSql, o});
    o.search_node_budget = 15;
    cases.push_back({"QhdBudgetWalksWidthsToDp", kTriangleSql, o});
  }
  {
    RunOptions o;
    o.mode = OptimizerMode::kDpStatistics;
    o.search_node_budget = 10;
    cases.push_back({"DpBudgetTripsToGeqo", ChainQuerySql(8), o});
  }
  {
    RunOptions o;
    o.mode = OptimizerMode::kClassicHd;
    o.search_node_budget = 5;
    cases.push_back({"ClassicHdBudgetTripsToDp", ChainQuerySql(8), o});
  }
  {
    RunOptions o;
    o.mode = OptimizerMode::kQhdHybrid;
    o.max_width = 1;
    cases.push_back({"QhdNotFoundFallsBackToDp", kCyclicSql, o});
    o.fallback_to_dp = false;
    cases.push_back({"QhdNotFoundWithoutFallbackFails", kCyclicSql, o});
  }
  {
    RunOptions o;
    o.mode = OptimizerMode::kQhdHybrid;
    o.search_node_budget = 5;
    o.degrade_on_budget = false;
    cases.push_back(
        {"QhdBudgetWithoutDegradationFails", ChainQuerySql(8), o});
  }
  {
    RunOptions o = Counted(OptimizerMode::kQhdHybrid);
    o.row_budget = 50;
    cases.push_back({"RowBudgetFails", kCyclicSql, o});
  }
  {
    RunOptions o = Counted(OptimizerMode::kQhdHybrid);
    o.enable_replan = true;
    o.replan_blowup_factor = 0.01;
    o.replan_min_rows = 1;
    cases.push_back({"ReplanReplans", LineQuerySql(5), o});
  }
  {
    RunOptions o = Counted(OptimizerMode::kQhdHybrid);
    o.use_plan_cache = true;
    cases.push_back({"PlanCacheHit", kCyclicSql, o, /*cache_hit=*/true});
  }
  return cases;
}

// Recorded records, one per case.
const char* Expected(const std::string& name) {
  static const std::map<std::string, const char*> kExpected = {
      {"QhdHybrid_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=q-hypertree decomposition (width 4, 0 pruned)
details:
[0] chi={a,b,b_2,b_3,r1$tid,r2$tid,r3$tid,r4$tid} lambda={r1,r2,r3,r4}
degradations:
plan_cache= width=4 pruned=0 replans=0
rows_charged=3114 work_charged=8739 hash_probes=1023 bloom_skips=109 batches=17 peak_rows=1690
search_nodes=20
)golden"},
      {"QhdHybrid_Cyclic", R"golden(rows=58 digest=218492eaf22efa67
description=q-hypertree decomposition (width 3, 0 pruned)
details:
[0] chi={a,b,b_2,b_4} lambda={r1,r2,r5}
  [1] chi={b_2,b_3,b_4} lambda={r3,r4}
degradations:
plan_cache= width=3 pruned=0 replans=0
rows_charged=1942 work_charged=5020 hash_probes=1113 bloom_skips=600 batches=18 peak_rows=645
search_nodes=115
)golden"},
      {"QhdHybrid_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"QhdHybrid_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=q-hypertree decomposition (width 2, 0 pruned) [+1 materialized subquery]
details:
[0] chi={a,b,d$tid,r3$tid} lambda={d,r3}
degradations:
plan_cache= width=2 pruned=0 replans=0
rows_charged=1820 work_charged=3945 hash_probes=378 bloom_skips=57 batches=14 peak_rows=645
search_nodes=12
)golden"},
      {"QhdStructural_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=q-hypertree decomposition (width 4, 0 pruned)
details:
[0] chi={a,b,b_2,b_3,r1$tid,r2$tid,r3$tid,r4$tid} lambda={r1,r2,r3,r4}
degradations:
plan_cache= width=4 pruned=0 replans=0
rows_charged=3114 work_charged=8739 hash_probes=1023 bloom_skips=109 batches=17 peak_rows=1690
search_nodes=20
)golden"},
      {"QhdStructural_Cyclic", R"golden(rows=58 digest=2d15625517fc71ab
description=q-hypertree decomposition (width 2, 0 pruned)
details:
[0] chi={a,b,b_2} lambda={r1,r2}
  [1] chi={a,b_2,b_3,b_4} lambda={r3,r5}
    [2] chi={b_3,b_4} lambda={r4}
degradations:
plan_cache= width=2 pruned=0 replans=0
rows_charged=1941 work_charged=5048 hash_probes=1171 bloom_skips=610 batches=19 peak_rows=650
search_nodes=115
)golden"},
      {"QhdStructural_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"QhdStructural_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=q-hypertree decomposition (width 2, 0 pruned) [+1 materialized subquery]
details:
[0] chi={a,b,d$tid,r3$tid} lambda={d,r3}
degradations:
plan_cache= width=2 pruned=0 replans=0
rows_charged=1820 work_charged=3945 hash_probes=378 bloom_skips=57 batches=14 peak_rows=645
search_nodes=12
)golden"},
      {"QhdNoOptimize_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=q-hypertree decomposition (width 4, 0 pruned)
details:
[0] chi={a,b,b_2,b_3,r1$tid,r2$tid,r3$tid,r4$tid} lambda={r1,r2,r3,r4}
degradations:
plan_cache= width=4 pruned=0 replans=0
rows_charged=3114 work_charged=8739 hash_probes=1023 bloom_skips=109 batches=17 peak_rows=1690
search_nodes=16
)golden"},
      {"QhdNoOptimize_Cyclic", R"golden(rows=58 digest=218492eaf22efa67
description=q-hypertree decomposition (width 3, 0 pruned)
details:
[0] chi={a,b,b_2,b_4} lambda={r1,r2,r5}
  [1] chi={b_2,b_3,b_4} lambda={r3,r4}
degradations:
plan_cache= width=3 pruned=0 replans=0
rows_charged=1942 work_charged=5020 hash_probes=1113 bloom_skips=600 batches=18 peak_rows=645
search_nodes=110
)golden"},
      {"QhdNoOptimize_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"QhdNoOptimize_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=q-hypertree decomposition (width 2, 0 pruned) [+1 materialized subquery]
details:
[0] chi={a,b,d$tid,r3$tid} lambda={d,r3}
degradations:
plan_cache= width=2 pruned=0 replans=0
rows_charged=1820 work_charged=3945 hash_probes=378 bloom_skips=57 batches=14 peak_rows=645
search_nodes=8
)golden"},
      {"DpStatistics_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=(((r3 HJ r2) HJ r4) HJ r1)
details:
(((r3 HJ r2) HJ r4) HJ r1)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=3249 work_charged=8106 hash_probes=1158 bloom_skips=207 batches=11 peak_rows=1690
search_nodes=37
)golden"},
      {"DpStatistics_Cyclic", R"golden(rows=58 digest=665115e3197da1c7
description=((((r5 HJ r1) HJ r4) HJ r3) HJ r2)
details:
((((r5 HJ r1) HJ r4) HJ r3) HJ r2)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=3554 work_charged=7129 hash_probes=2935 bloom_skips=1797 batches=13 peak_rows=1805
search_nodes=96
)golden"},
      {"DpStatistics_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"DpStatistics_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=(r3 HJ d) [+1 materialized subquery]
details:
(r3 HJ d)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=1820 work_charged=3945 hash_probes=378 bloom_skips=46 batches=10 peak_rows=645
search_nodes=6
)golden"},
      {"Naive_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=(((r1 NL r2) NL r3) NL r4)
details:
(((r1 NL r2) NL r3) NL r4)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=3114 work_charged=126620 hash_probes=0 bloom_skips=0 batches=8 peak_rows=1690
search_nodes=0
)golden"},
      {"Naive_Cyclic", R"golden(rows=58 digest=87a1f130d5a63bcd
description=((((r1 NL r2) NL r3) NL r4) NL r5)
details:
((((r1 NL r2) NL r3) NL r4) NL r5)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=3332 work_charged=326299 hash_probes=0 bloom_skips=0 batches=8 peak_rows=1690
search_nodes=0
)golden"},
      {"Naive_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"Naive_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=(d NL r3) [+1 materialized subquery]
details:
(d NL r3)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=1820 work_charged=47784 hash_probes=0 bloom_skips=0 batches=8 peak_rows=645
search_nodes=0
)golden"},
      {"GeqoDefaults_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=(((r3 NL r2) NL r1) NL r4)
details:
(((r3 NL r2) NL r1) NL r4)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=3154 work_charged=131420 hash_probes=0 bloom_skips=0 batches=8 peak_rows=1690
search_nodes=1520
)golden"},
      {"GeqoDefaults_Cyclic", R"golden(rows=58 digest=aba7894060797739
description=((((r5 NL r4) NL r1) NL r3) NL r2)
details:
((((r5 NL r4) NL r1) NL r3) NL r2)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=3515 work_charged=348259 hash_probes=0 bloom_skips=0 batches=8 peak_rows=1805
search_nodes=1520
)golden"},
      {"GeqoDefaults_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"GeqoDefaults_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=(d NL r3) [+1 materialized subquery]
details:
(d NL r3)
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=1820 work_charged=47784 hash_probes=0 bloom_skips=0 batches=8 peak_rows=645
search_nodes=3040
)golden"},
      {"Yannakakis_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=yannakakis three-pass over the join forest
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=3607 work_charged=9666 hash_probes=1615 bloom_skips=121 batches=22 peak_rows=1690
search_nodes=0
)golden"},
      {"Yannakakis_Cyclic", R"golden(rows=58 digest=665115e3197da1c7
description=fallback: ((((r5 HJ r1) HJ r4) HJ r3) HJ r2)
details:
((((r5 HJ r1) HJ r4) HJ r3) HJ r2)
degradations:
- yannakakis inapplicable (cyclic query); falling back to the DP plan
plan_cache= width=0 pruned=0 replans=0
rows_charged=3554 work_charged=7129 hash_probes=2935 bloom_skips=1797 batches=13 peak_rows=1805
search_nodes=96
)golden"},
      {"Yannakakis_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"Yannakakis_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=yannakakis three-pass over the join forest [+1 materialized subquery]
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=2341 work_charged=5038 hash_probes=950 bloom_skips=97 batches=18 peak_rows=645
search_nodes=0
)golden"},
      {"ClassicHd_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=classic HD + Yannakakis (width 1)
details:
degradations:
plan_cache= width=1 pruned=0 replans=0
rows_charged=3607 work_charged=9666 hash_probes=1615 bloom_skips=121 batches=26 peak_rows=1690
search_nodes=104
)golden"},
      {"ClassicHd_Cyclic", R"golden(rows=58 digest=7b79286bf8386ec3
description=classic HD + Yannakakis (width 3)
details:
degradations:
plan_cache= width=3 pruned=0 replans=0
rows_charged=2152 work_charged=5770 hash_probes=1570 bloom_skips=880 batches=18 peak_rows=701
search_nodes=421
)golden"},
      {"ClassicHd_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"ClassicHd_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=classic HD + Yannakakis (width 1) [+1 materialized subquery]
details:
degradations:
plan_cache= width=1 pruned=0 replans=0
rows_charged=2341 work_charged=5038 hash_probes=950 bloom_skips=97 batches=22 peak_rows=645
search_nodes=24
)golden"},
      {"TreeDecomposition_Acyclic", R"golden(rows=41 digest=85db976d51eb654b
description=min-fill tree decomposition (treewidth 2, cover width 1) + Yannakakis
details:
degradations:
plan_cache= width=1 pruned=0 replans=0
rows_charged=7426 work_charged=20356 hash_probes=5068 bloom_skips=240 batches=52 peak_rows=1690
search_nodes=0
)golden"},
      {"TreeDecomposition_Cyclic", R"golden(rows=58 digest=9cf90c6f8665a95d
description=min-fill tree decomposition (treewidth 2, cover width 2) + Yannakakis
details:
degradations:
plan_cache= width=2 pruned=0 replans=0
rows_charged=31731 work_charged=74238 hash_probes=12067 bloom_skips=10185 batches=76 peak_rows=14400
search_nodes=0
)golden"},
      {"TreeDecomposition_ConstantFalse", R"golden(rows=0 digest=14650fb0739d0383
description=constant-false
details:
degradations:
plan_cache= width=0 pruned=0 replans=0
rows_charged=0 work_charged=0 hash_probes=0 bloom_skips=0 batches=0 peak_rows=0
search_nodes=0
)golden"},
      {"TreeDecomposition_Nested", R"golden(rows=41 digest=7e80b165c6a5d402
description=min-fill tree decomposition (treewidth 2, cover width 1) + Yannakakis [+1 materialized subquery]
details:
degradations:
plan_cache= width=1 pruned=0 replans=0
rows_charged=5840 work_charged=13841 hash_probes=3838 bloom_skips=218 batches=52 peak_rows=645
search_nodes=0
)golden"},
      {"QhdBudgetRetriesAtNarrowerWidth", R"golden(rows=58 digest=f88ecd86f72ca225
description=q-hypertree decomposition (width 2, 0 pruned)
details:
[0] chi={a,b,b_2,b_3} lambda={r1,r3}
  [1] chi={a,b_3,b_4} lambda={r4,r5}
  [2] chi={b,b_2} lambda={r2}
degradations:
- q-HD search at width 3 exceeded its budget; retrying at width 2
plan_cache= width=2 pruned=0 replans=0
rows_charged=1866 work_charged=4794 hash_probes=1083 bloom_skips=580 batches=19 peak_rows=613
search_nodes=151
)golden"},
      {"QhdBudgetWalksWidthsToDp", R"golden(rows=11 digest=b9b9317afcebce19
description=fallback: ((r3 HJ r1) HJ r2)
details:
((r3 HJ r1) HJ r2)
degradations:
- q-HD search at width 3 exceeded its budget; retrying at width 2
- q-HD search at width 2 exceeded its budget; retrying at width 1
- q-HD found no rooted decomposition of width <= 1; falling back to the DP plan
plan_cache= width=0 pruned=0 replans=0
rows_charged=714 work_charged=1432 hash_probes=450 bloom_skips=308 batches=8 peak_rows=330
search_nodes=53
)golden"},
      {"DpBudgetTripsToGeqo", R"golden(rows=39 digest=4d37685c25093c4c
description=fallback: (((((((r7 NL r6) NL r8) NL r1) NL r2) NL r3) NL r5) NL r4)
details:
(((((((r7 NL r6) NL r8) NL r1) NL r2) NL r3) NL r5) NL r4)
degradations:
- DP join search exceeded its budget; falling back to GEQO
plan_cache= width=0 pruned=0 replans=0
rows_charged=40276 work_charged=4594407 hash_probes=0 bloom_skips=0 batches=12 peak_rows=22378
search_nodes=1531
)golden"},
      {"ClassicHdBudgetTripsToDp", R"golden(rows=39 digest=4d37685c25093c4c
description=fallback: (((((((r7 NL r6) NL r8) NL r1) NL r2) NL r3) NL r5) NL r4)
details:
(((((((r7 NL r6) NL r8) NL r1) NL r2) NL r3) NL r5) NL r4)
degradations:
- classic HD search exceeded its budget; falling back to the DP plan
- DP join search exceeded its budget; falling back to GEQO
plan_cache= width=0 pruned=0 replans=0
rows_charged=40276 work_charged=4594407 hash_probes=0 bloom_skips=0 batches=12 peak_rows=22378
search_nodes=1532
)golden"},
      {"QhdNotFoundFallsBackToDp", R"golden(rows=58 digest=665115e3197da1c7
description=fallback: ((((r5 HJ r1) HJ r4) HJ r3) HJ r2)
details:
((((r5 HJ r1) HJ r4) HJ r3) HJ r2)
degradations:
- q-HD found no rooted decomposition of width <= 1; falling back to the DP plan
plan_cache= width=0 pruned=0 replans=0
rows_charged=3554 work_charged=7129 hash_probes=2935 bloom_skips=1797 batches=13 peak_rows=1805
search_nodes=0
)golden"},
      {"QhdNotFoundWithoutFallbackFails", R"golden(error 2: Failure: no hypertree decomposition of width <= 1 whose root covers the output variables
)golden"},
      {"QhdBudgetWithoutDegradationFails", R"golden(error 4: search-node budget exceeded [governor trip: node-budget]
)golden"},
      {"RowBudgetFails", R"golden(error 3: row budget exceeded
)golden"},
      {"ReplanReplans", R"golden(rows=41 digest=7d213aa67fd36151
description=q-hypertree decomposition (width 1, 0 pruned, replanned x1)
details:
[0] chi={a,b} lambda={r1}
  [1] chi={b,b_2} lambda={r2}
    [2] chi={b_2,b_3} lambda={r3}
      [3] chi={b_3,b_4} lambda={r4}
        [4] chi={b_4} lambda={r5}
degradations:
- mid-query replan: node 4 produced 46 rows vs estimate 46; re-planning with observed cardinalities
plan_cache= width=1 pruned=0 replans=1
rows_charged=1528 work_charged=3272 hash_probes=480 bloom_skips=61 batches=21 peak_rows=286
search_nodes=308
)golden"},
      {"PlanCacheHit", R"golden(rows=58 digest=218492eaf22efa67
description=q-hypertree decomposition (width 3, 0 pruned)
details:
[0] chi={a,b,b_2,b_4} lambda={r1,r2,r5}
  [1] chi={b_2,b_3,b_4} lambda={r3,r4}
degradations:
plan_cache=hit width=3 pruned=0 replans=0
rows_charged=1942 work_charged=5020 hash_probes=1113 bloom_skips=600 batches=18 peak_rows=645
search_nodes=7
)golden"},
  };
  auto it = kExpected.find(name);
  return it == kExpected.end() ? "(no recorded record)" : it->second;
}

}  // namespace
}  // namespace htqo
