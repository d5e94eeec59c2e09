// The determinism contract of the parallel engine (DESIGN.md §6b): for any
// query and any RunOptions::num_threads, the pipeline produces
//   - byte-identical output relations (same rows in the same order),
//   - the identical decomposition (plan_details, width),
//   - the identical row/work meter readings,
// and the governor, fault injector and cancellation paths behave the same
// as the serial engine. Swept over random join topologies and over inputs
// large enough to actually take the partitioned kernels.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "oracle.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

constexpr std::size_t kThreadSweep[] = {1, 2, 8};

// Order-sensitive equality — stronger than Relation::SameRowsAs.
bool ByteIdentical(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.NumRows() != b.NumRows()) return false;
  for (std::size_t r = 0; r < a.NumRows(); ++r) {
    for (std::size_t c = 0; c < a.arity(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

// --- ThreadPool unit behaviour. ---------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(10'000);
  pool.ParallelFor(0, touched.size(), 64, 4, nullptr,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i) touched[i]++;
                   });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    ASSERT_EQ(touched[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsOnTheCaller) {
  ThreadPool pool(0);
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(0, 100, 10, 4, nullptr,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i) sum += i;
                   });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Operators run ParallelFor from inside tree-wave tasks that themselves
  // occupy pool workers; the caller-participates design must make progress
  // even when every worker is busy with an outer chunk.
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.ParallelFor(0, 8, 1, 8, nullptr, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.ParallelFor(0, 100, 10, 8, nullptr,
                       [&](std::size_t ilo, std::size_t ihi) {
                         inner_total += ihi - ilo;
                       });
    }
  });
  EXPECT_EQ(inner_total.load(), 800u);
}

TEST(ThreadPoolTest, TrippedGovernorStopsClaimingChunks) {
  ThreadPool pool(2);
  ResourceGovernor governor;
  governor.Cancel();
  ASSERT_EQ(governor.Check().code(), StatusCode::kDeadlineExceeded);
  std::atomic<std::size_t> ran{0};
  // Every chunk claim observes the trip, so nothing runs (and the call
  // returns instead of hanging).
  pool.ParallelFor(0, 1000, 1, 4, &governor,
                   [&](std::size_t, std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ThreadPoolTest, SharedPoolIsSerialSentinelAtOneThread) {
  EXPECT_EQ(ThreadPool::Shared(0), nullptr);
  EXPECT_EQ(ThreadPool::Shared(1), nullptr);
  ThreadPool* p = ThreadPool::Shared(2);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(p->workers(), 1u);
}

// --- Random conjunctive queries: byte-identical at any thread count. --------

class ParallelEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEquivalenceTest, RandomQueriesAreThreadCountInvariant) {
  Rng rng(GetParam() * 48611 + 7);

  const std::size_t n = 2 + rng.Uniform(5);
  Catalog catalog;
  std::vector<std::vector<std::string>> columns(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t arity = 2 + rng.Uniform(2);
    for (std::size_t c = 0; c < arity; ++c) {
      columns[i].push_back("c" + std::to_string(c));
    }
    catalog.Put("t" + std::to_string(i),
                MakeSyntheticRelation(20 + rng.Uniform(80), columns[i],
                                      20 + rng.Uniform(70), rng.Fork(i + 1)));
  }
  std::vector<std::string> where;
  auto attr = [&](std::size_t atom) {
    return "t" + std::to_string(atom) + ".c" +
           std::to_string(rng.Uniform(columns[atom].size()));
  };
  for (std::size_t i = 1; i < n; ++i) {
    where.push_back(attr(rng.Uniform(i)) + " = " + attr(i));
  }
  if (rng.Uniform(2) == 0) {
    std::size_t a = rng.Uniform(n), b = rng.Uniform(n);
    if (a != b) where.push_back(attr(a) + " = " + attr(b));
  }
  std::vector<std::string> from;
  for (std::size_t i = 0; i < n; ++i) from.push_back("t" + std::to_string(i));
  std::string sql = "SELECT DISTINCT " + attr(0) + " AS o0, " +
                    attr(rng.Uniform(n)) + " AS o1 FROM " + Join(from, ", ") +
                    " WHERE " + Join(where, " AND ");

  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  if (!optimizer.Resolve(sql, TidMode::kNone).ok()) {
    GTEST_SKIP() << "outside fragment";
  }

  for (OptimizerMode mode :
       {OptimizerMode::kQhdHybrid, OptimizerMode::kQhdStructural,
        OptimizerMode::kDpStatistics, OptimizerMode::kYannakakis,
        OptimizerMode::kClassicHd}) {
    std::optional<QueryRun> reference;
    for (std::size_t threads : kThreadSweep) {
      RunOptions options;
      options.mode = mode;
      options.tid_mode = TidMode::kNone;
      options.fallback_to_dp = true;
      options.num_threads = threads;
      auto run = optimizer.Run(sql, options);
      if (!run.ok()) {
        // Whatever the serial engine says (e.g. q-HD Failure without
        // fallback), every thread count must say the same.
        if (reference.has_value()) {
          ADD_FAILURE() << OptimizerModeName(mode) << " fails only at "
                        << threads << " threads: " << run.status().message();
        }
        break;
      }
      if (!reference.has_value()) {
        reference = std::move(run.value());
        continue;
      }
      EXPECT_TRUE(ByteIdentical(reference->output, run->output))
          << OptimizerModeName(mode) << " diverges at " << threads
          << " threads on\n"
          << sql;
      EXPECT_EQ(reference->plan_details, run->plan_details)
          << OptimizerModeName(mode) << " picks a different plan at "
          << threads << " threads";
      EXPECT_EQ(reference->decomposition_width, run->decomposition_width);
      EXPECT_EQ(reference->used_fallback(), run->used_fallback());
      EXPECT_EQ(reference->ctx.rows_charged.load(),
                run->ctx.rows_charged.load());
      EXPECT_EQ(reference->ctx.work_charged.load(),
                run->ctx.work_charged.load());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, ParallelEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 25));

// --- Oracle equivalence: right rows, identical bytes and meters. ------------

// The engine's correctness contract (DESIGN.md §6g). Every run must hold
// the same rows as the independent nested-loop oracle (tests/oracle.h), and
// at every thread count, in memory or with every operator forced onto the
// Grace spill path, it must be byte-identical to the 1-thread run with the
// same row/work charges, hash-probe, bloom-skip and batch meters.
class OracleEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleEquivalenceTest, RunsMatchTheOracleAndTheSerialRun) {
  Rng rng(GetParam() * 52361 + 11);

  const std::size_t n = 2 + rng.Uniform(5);
  Catalog catalog;
  std::vector<std::vector<std::string>> columns(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t arity = 2 + rng.Uniform(2);
    for (std::size_t c = 0; c < arity; ++c) {
      columns[i].push_back("c" + std::to_string(c));
    }
    catalog.Put("t" + std::to_string(i),
                MakeSyntheticRelation(20 + rng.Uniform(80), columns[i],
                                      20 + rng.Uniform(70), rng.Fork(i + 1)));
  }
  std::vector<std::string> where;
  auto attr = [&](std::size_t atom) {
    return "t" + std::to_string(atom) + ".c" +
           std::to_string(rng.Uniform(columns[atom].size()));
  };
  for (std::size_t i = 1; i < n; ++i) {
    where.push_back(attr(rng.Uniform(i)) + " = " + attr(i));
  }
  std::vector<std::string> from;
  for (std::size_t i = 0; i < n; ++i) from.push_back("t" + std::to_string(i));
  std::string sql = "SELECT DISTINCT " + attr(0) + " AS o0, " +
                    attr(rng.Uniform(n)) + " AS o1 FROM " + Join(from, ", ") +
                    " WHERE " + Join(where, " AND ");

  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  auto rq = optimizer.Resolve(sql, TidMode::kNone);
  if (!rq.ok()) GTEST_SKIP() << "outside fragment";
  auto expected = oracle::Evaluate(*rq, catalog);
  ASSERT_TRUE(expected.ok()) << expected.status().message();

  for (OptimizerMode mode :
       {OptimizerMode::kQhdHybrid, OptimizerMode::kDpStatistics,
        OptimizerMode::kYannakakis, OptimizerMode::kClassicHd,
        OptimizerMode::kTreeDecomposition}) {
    for (bool spill : {false, true}) {
      std::optional<QueryRun> serial;
      bool serial_ok = false;
      for (std::size_t threads : {1, 2, 4}) {
        RunOptions options;
        options.mode = mode;
        options.tid_mode = TidMode::kNone;
        options.fallback_to_dp = true;
        options.num_threads = threads;
        if (spill) {
          // A zero-byte soft threshold: every operator with a non-empty
          // working set spills, whatever else is live — so the spill
          // decisions, and with them the meters, do not depend on how
          // concurrent wave lanes interleave.
          options.enable_spill = true;
          options.memory_budget_bytes = 4u << 20;
          options.soft_memory_fraction = 1e-9;
        }
        const std::string where_msg =
            std::string(OptimizerModeName(mode)) + " at " +
            std::to_string(threads) + " threads" + (spill ? ", spilled" : "");
        auto run = optimizer.Run(sql, options);
        if (threads == 1) serial_ok = run.ok();
        // Whatever the serial run says (e.g. cyclic under Yannakakis), every
        // thread count must say the same.
        ASSERT_EQ(run.ok(), serial_ok)
            << where_msg << ": "
            << (run.ok() ? std::string("succeeds") : run.status().message());
        if (!run.ok()) continue;
        EXPECT_TRUE(run->output.SameRowsAs(*expected))
            << where_msg << " disagrees with the oracle on\n"
            << sql;
        if (spill) {
          EXPECT_GT(run->spill.spill_events, 0u) << where_msg;
        }
        if (!serial.has_value()) {
          serial = std::move(run.value());
          continue;
        }
        EXPECT_TRUE(ByteIdentical(serial->output, run->output))
            << where_msg << " diverges from 1 thread on\n"
            << sql;
        EXPECT_EQ(serial->ctx.rows_charged.load(),
                  run->ctx.rows_charged.load()) << where_msg;
        EXPECT_EQ(serial->ctx.work_charged.load(),
                  run->ctx.work_charged.load()) << where_msg;
        EXPECT_EQ(serial->ctx.hash_probes.load(),
                  run->ctx.hash_probes.load()) << where_msg;
        EXPECT_EQ(serial->ctx.bloom_skips.load(),
                  run->ctx.bloom_skips.load()) << where_msg;
        EXPECT_EQ(serial->ctx.batches.load(), run->ctx.batches.load())
            << where_msg;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, OracleEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 15));

// --- Inputs big enough to take the partitioned kernels. ---------------------

class ParallelKernelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // 6000 rows per relation: over the 2048-row parallel threshold, so the
    // scan and probe loops actually fan out.
    PopulateSyntheticCatalog(SyntheticConfig{6000, 60, 6, 99}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  QueryRun MustRun(const std::string& sql, OptimizerMode mode,
                   std::size_t threads) {
    HybridOptimizer optimizer(&catalog_, &registry_);
    RunOptions options;
    options.mode = mode;
    options.num_threads = threads;
    auto run = optimizer.Run(sql, options);
    EXPECT_TRUE(run.ok()) << run.status().message();
    return std::move(run.value());
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(ParallelKernelFixture, LargeJoinsAreThreadCountInvariant) {
  for (OptimizerMode mode :
       {OptimizerMode::kQhdHybrid, OptimizerMode::kYannakakis,
        OptimizerMode::kDpStatistics}) {
    for (const std::string& sql : {LineQuerySql(5), ChainQuerySql(4)}) {
      QueryRun reference = MustRun(sql, mode, 1);
      for (std::size_t threads : {2, 8}) {
        QueryRun run = MustRun(sql, mode, threads);
        EXPECT_TRUE(ByteIdentical(reference.output, run.output))
            << OptimizerModeName(mode) << " at " << threads << " threads: "
            << sql;
        EXPECT_EQ(reference.plan_details, run.plan_details);
        EXPECT_EQ(reference.ctx.rows_charged.load(),
                  run.ctx.rows_charged.load());
        EXPECT_EQ(reference.ctx.work_charged.load(),
                  run.ctx.work_charged.load());
        // The Bloom prefilter is built from the same precomputed hashes at
        // every thread count, so its skip meter replays exactly too.
        EXPECT_EQ(reference.ctx.bloom_skips.load(),
                  run.ctx.bloom_skips.load());
      }
    }
  }
}

TEST_F(ParallelKernelFixture, BloomGuardIsExercisedAndThreadCountInvariant) {
  // Mostly-disjoint key domains: the probe side's keys rarely appear on the
  // build side, so the Bloom prefilter should resolve a large share of
  // probes without a chain walk — with byte-identical output regardless.
  std::vector<Column> cols_l{{"a", ValueType::kInt64}, {"b", ValueType::kInt64}};
  std::vector<Column> cols_r{{"b", ValueType::kInt64}, {"c", ValueType::kInt64}};
  Relation lhs{Schema(cols_l)}, rhs{Schema(cols_r)};
  for (int64_t i = 0; i < 6000; ++i) {
    // lhs.b in [0, 6000); rhs.b mostly in [100000, 106000) with a sliver of
    // overlap so the output is nonempty.
    lhs.AddRow({Value::Int64(i), Value::Int64(i)});
    int64_t rb = (i % 50 == 0) ? i : 100000 + i;
    rhs.AddRow({Value::Int64(rb), Value::Int64(i * 3)});
  }
  catalog_.Put("bl", std::move(lhs));
  catalog_.Put("br", std::move(rhs));
  registry_.AnalyzeAll(catalog_);
  for (const std::string& sql :
       {std::string("SELECT DISTINCT bl.a AS o FROM bl, br "
                    "WHERE bl.b = br.b"),
        std::string("SELECT DISTINCT bl.a AS o, br.c AS p FROM bl, br "
                    "WHERE bl.b = br.b")}) {
    QueryRun reference = MustRun(sql, OptimizerMode::kQhdHybrid, 1);
    EXPECT_GT(reference.ctx.bloom_skips.load(), 0u) << sql;
    EXPECT_GT(reference.output.NumRows(), 0u) << sql;
    for (std::size_t threads : {2, 4}) {
      QueryRun run = MustRun(sql, OptimizerMode::kQhdHybrid, threads);
      EXPECT_TRUE(ByteIdentical(reference.output, run.output))
          << sql << " at " << threads << " threads";
      EXPECT_EQ(reference.ctx.bloom_skips.load(), run.ctx.bloom_skips.load());
      EXPECT_EQ(reference.ctx.work_charged.load(),
                run.ctx.work_charged.load());
    }
  }
}

TEST_F(ParallelKernelFixture, AggregatesUnderBagSemanticsMatch) {
  std::string sql =
      "SELECT r1.a AS k, count(*) AS n, sum(r3.b) AS s FROM r1, r2, r3 "
      "WHERE r1.b = r2.a AND r2.b = r3.a GROUP BY r1.a ORDER BY k";
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.tid_mode = TidMode::kAllAtoms;
  options.num_threads = 1;
  auto reference = optimizer.Run(sql, options);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  for (std::size_t threads : {2, 8}) {
    options.num_threads = threads;
    auto run = optimizer.Run(sql, options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_TRUE(ByteIdentical(reference->output, run->output))
        << threads << " threads";
  }
}

TEST_F(ParallelKernelFixture, AggregatesMatchRowEngineAtAnyThreadCount) {
  // GROUP BY exercises the vectorized aggregation path (KeyBlock group
  // hashes + per-batch argument evaluation). The reference is computed here
  // row by row from the base relations, sharing no engine code; the output
  // must match it, and the meters must match the serial run, at every
  // thread count.
  const std::string sql =
      "SELECT r1.a AS k, count(*) AS n, sum(r3.b) AS s FROM r1, r2, r3 "
      "WHERE r1.b = r2.a AND r2.b = r3.a GROUP BY r1.a ORDER BY k";
  // Per join key: (number of matching tails, sum of r3.b over them).
  using Tally = std::map<int64_t, std::pair<int64_t, int64_t>>;
  auto rel = [&](const char* name) {
    auto r = catalog_.Get(name);
    EXPECT_TRUE(r.ok()) << name;
    return *r;
  };
  Tally by_r3a, by_r2a, groups;
  const Relation* r3 = rel("r3");
  for (std::size_t i = 0; i < r3->NumRows(); ++i) {
    auto& t = by_r3a[r3->At(i, 0).AsInt64()];
    t.first += 1;
    t.second += r3->At(i, 1).AsInt64();
  }
  const Relation* r2 = rel("r2");
  for (std::size_t i = 0; i < r2->NumRows(); ++i) {
    auto it = by_r3a.find(r2->At(i, 1).AsInt64());
    if (it == by_r3a.end()) continue;
    auto& t = by_r2a[r2->At(i, 0).AsInt64()];
    t.first += it->second.first;
    t.second += it->second.second;
  }
  const Relation* r1 = rel("r1");
  for (std::size_t i = 0; i < r1->NumRows(); ++i) {
    auto it = by_r2a.find(r1->At(i, 1).AsInt64());
    if (it == by_r2a.end()) continue;
    auto& t = groups[r1->At(i, 0).AsInt64()];
    t.first += it->second.first;
    t.second += it->second.second;
  }
  ASSERT_FALSE(groups.empty());

  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.tid_mode = TidMode::kAllAtoms;
  std::optional<QueryRun> serial;
  for (std::size_t threads : kThreadSweep) {
    options.num_threads = threads;
    auto run = optimizer.Run(sql, options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const Relation& out = run->output;
    ASSERT_EQ(out.NumRows(), groups.size()) << threads << " threads";
    std::size_t row = 0;
    for (const auto& [k, t] : groups) {
      EXPECT_EQ(out.At(row, 0), Value::Int64(k)) << threads << " threads";
      EXPECT_EQ(out.At(row, 1), Value::Int64(t.first)) << "group " << k;
      EXPECT_EQ(out.At(row, 2), Value::Int64(t.second)) << "group " << k;
      ++row;
    }
    EXPECT_GT(run->ctx.batches.load(), 0u);
    if (!serial.has_value()) {
      serial = std::move(run.value());
      continue;
    }
    EXPECT_EQ(serial->ctx.rows_charged.load(), run->ctx.rows_charged.load());
    EXPECT_EQ(serial->ctx.work_charged.load(), run->ctx.work_charged.load());
    EXPECT_EQ(serial->ctx.batches.load(), run->ctx.batches.load());
  }
}

// --- Governor, cancellation and fault injection equivalence. ----------------

class ParallelGovernorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{150, 40, 10, 13}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(ParallelGovernorFixture, BudgetTripsAndLadderStepsAreIdentical) {
  // The memo computes every subproblem exactly once at any thread count, so
  // node charges — and therefore budget trips and the degradation ladder
  // they trigger — replay exactly.
  HybridOptimizer optimizer(&catalog_, &registry_);
  std::string sql = ChainQuerySql(8);
  std::optional<QueryRun> reference;
  for (std::size_t threads : kThreadSweep) {
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.max_width = 3;
    options.search_node_budget = 40;  // trips every search rung
    options.num_threads = threads;
    auto run = optimizer.Run(sql, options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    if (!reference.has_value()) {
      reference = std::move(run.value());
      ASSERT_TRUE(reference->used_fallback());
      continue;
    }
    EXPECT_EQ(reference->degradations, run->degradations)
        << "ladder diverges at " << threads << " threads";
    EXPECT_TRUE(ByteIdentical(reference->output, run->output));
  }
}

TEST_F(ParallelGovernorFixture, UntrippedSearchChargesIdenticalNodeCounts) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  std::string sql = ChainQuerySql(6);
  std::optional<QueryRun> reference;
  for (std::size_t threads : kThreadSweep) {
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.search_node_budget = 10'000'000;
    options.num_threads = threads;
    auto run = optimizer.Run(sql, options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->governor.trips(), 0u);
    if (!reference.has_value()) {
      reference = std::move(run.value());
      continue;
    }
    EXPECT_EQ(reference->governor.search_nodes, run->governor.search_nodes)
        << "search charges diverge at " << threads << " threads";
  }
}

TEST_F(ParallelGovernorFixture, ExpiredDeadlineFailsClosedAtAnyThreadCount) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (std::size_t threads : kThreadSweep) {
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.deadline_seconds = 1e-9;
    options.num_threads = threads;
    auto run = optimizer.Run(ChainQuerySql(8), options);
    ASSERT_FALSE(run.ok()) << threads << " threads";
    EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(ParallelGovernorFixture, RowBudgetTripsIdenticallyInParallelKernels) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (std::size_t threads : kThreadSweep) {
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.row_budget = 50;  // below one base-relation scan
    options.num_threads = threads;
    auto run = optimizer.Run(ChainQuerySql(6), options);
    ASSERT_FALSE(run.ok()) << threads << " threads";
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(ParallelGovernorFixture, InjectedAllocationFaultReplaysAtAnyCount) {
  // probability pinned to 1 and a single fire: the first relation.alloc
  // site reached must fail identically whatever the worker schedule.
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (std::size_t threads : kThreadSweep) {
    FaultPlan plan;
    plan.site = kFaultSiteRelationAlloc;
    plan.probability = 1.0;
    plan.skip_first = 0;
    plan.max_fires = 1;
    ScopedFaultInjection injection(plan);
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.num_threads = threads;
    auto run = optimizer.Run(LineQuerySql(5), options);
    ASSERT_FALSE(run.ok()) << threads << " threads";
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
        << run.status().message();
    EXPECT_EQ(FaultInjector::Instance().fires(), 1u);
  }
}

}  // namespace
}  // namespace htqo
