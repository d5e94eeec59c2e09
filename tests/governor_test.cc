// ResourceGovernor: unit behaviour (budgets, deadline, stickiness,
// cancellation, saturating counters), deterministic trips inside the
// decomposition searches, and the degradation ladder of the hybrid
// optimizer.

#include "util/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "api/hybrid_optimizer.h"
#include "decomp/cost_k_decomp.h"
#include "decomp/det_k_decomp.h"
#include "exec/operators.h"
#include "util/thread_pool.h"
#include "workload/hypergraph_zoo.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(SaturatingAddTest, SticksAtMaxInsteadOfWrapping) {
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
  EXPECT_EQ(SaturatingAdd(kMax - 1, 1), kMax);
  EXPECT_EQ(SaturatingAdd(kMax - 1, 5), kMax);
  EXPECT_EQ(SaturatingAdd(kMax, kMax), kMax);
  EXPECT_EQ(SaturatingAdd(0, kMax), kMax);
}

TEST(ExecContextTest, RowChargeSaturatesInsteadOfLappingTheBudget) {
  // Regression: rows_charged wrapping past zero used to slip under a large
  // finite budget and let execution continue.
  ExecContext ctx;
  ctx.row_budget = kMax - 5;
  ctx.rows_charged = kMax - 10;
  Status s = ctx.ChargeRows(100);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.rows_charged, kMax);
}

TEST(ExecContextTest, WorkChargeSaturatesInsteadOfLappingTheBudget) {
  ExecContext ctx;
  ctx.work_budget = kMax - 5;
  ctx.work_charged = kMax - 10;
  Status s = ctx.ChargeWork(100);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.work_charged, kMax);
}

TEST(GovernorTest, NodeBudgetTripsDeterministically) {
  ResourceGovernor::Options options;
  options.node_budget = 10;
  ResourceGovernor governor(options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(governor.ChargeNodes().ok()) << i;
  }
  Status s = governor.ChargeNodes();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(governor.stats().budget_hits, 1u);
}

TEST(GovernorTest, TripIsSticky) {
  ResourceGovernor::Options options;
  options.node_budget = 1;
  ResourceGovernor governor(options);
  ASSERT_TRUE(governor.ChargeNodes().ok());
  Status first = governor.ChargeNodes();
  ASSERT_EQ(first.code(), StatusCode::kDeadlineExceeded);
  // Every later charge of any kind reports the same trip.
  EXPECT_EQ(governor.ChargeNodes().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.ChargeExecution(1).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.ChargeMemory(1).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.stats().trips(), 1u);
  EXPECT_EQ(governor.trip_status().message(), first.message());
}

TEST(GovernorTest, PastDeadlineTripsOnCheck) {
  ResourceGovernor::Options options;
  options.deadline = ResourceGovernor::Clock::now();
  ResourceGovernor governor(options);
  Status s = governor.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.stats().deadline_hits, 1u);
}

TEST(GovernorTest, AfterSecondsNonPositiveMeansNoDeadline) {
  ResourceGovernor governor(ResourceGovernor::Options::AfterSeconds(0));
  EXPECT_TRUE(governor.Check().ok());
  EXPECT_FALSE(governor.exhausted());
}

TEST(GovernorTest, MemoryBudgetTracksLiveBytesAndPeak) {
  ResourceGovernor::Options options;
  options.memory_budget_bytes = 1000;
  ResourceGovernor governor(options);
  EXPECT_TRUE(governor.ChargeMemory(600).ok());
  governor.ReleaseMemory(400);
  EXPECT_TRUE(governor.ChargeMemory(700).ok());  // live = 900
  EXPECT_EQ(governor.stats().peak_memory_bytes, 900u);
  Status s = governor.ChargeMemory(200);  // live = 1100 > 1000
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.stats().memory_hits, 1u);
}

TEST(GovernorTest, NotePeakMemoryRaisesHighWaterWithoutLiveBalance) {
  ResourceGovernor::Options options;
  options.memory_budget_bytes = 1000;
  ResourceGovernor governor(options);
  governor.NotePeakMemory(5000);  // informational: never trips
  EXPECT_FALSE(governor.exhausted());
  EXPECT_EQ(governor.stats().peak_memory_bytes, 5000u);
  EXPECT_TRUE(governor.ChargeMemory(900).ok());  // live balance unaffected
}

TEST(GovernorTest, CancelTripsAtNextCheckpoint) {
  ResourceGovernor governor;
  EXPECT_TRUE(governor.Check().ok());
  governor.Cancel();
  Status s = governor.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.stats().cancellations, 1u);
}

TEST(GovernorStatsTest, MergeAggregatesAcrossAttempts) {
  GovernorStats a;
  a.search_nodes = 100;
  a.peak_memory_bytes = 50;
  a.budget_hits = 1;
  GovernorStats b;
  b.search_nodes = 30;
  b.peak_memory_bytes = 80;
  b.deadline_hits = 1;
  a.Merge(b);
  EXPECT_EQ(a.search_nodes, 130u);
  EXPECT_EQ(a.peak_memory_bytes, 80u);  // high-water, not a sum
  EXPECT_EQ(a.trips(), 2u);
}

// --- Thread safety: charges commute, trips happen exactly once. -------------

TEST(GovernorThreadingTest, ConcurrentChargesAreExact) {
  // Regression for the atomic counters: 8 threads x 10k charges must land
  // on exactly 80k — a lost update here would let parallel runs slip under
  // budgets the serial engine trips.
  ResourceGovernor::Options options;
  options.node_budget = 1'000'000;
  ResourceGovernor governor(options);
  constexpr std::size_t kThreads = 8, kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&governor] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Status s = governor.ChargeNodes();
        ASSERT_TRUE(s.ok());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(governor.stats().search_nodes, kThreads * kPerThread);
  EXPECT_FALSE(governor.exhausted());
}

TEST(GovernorThreadingTest, ConcurrentOverBudgetTripsExactlyOnce) {
  ResourceGovernor::Options options;
  options.node_budget = 1000;
  ResourceGovernor governor(options);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&governor] {
      for (std::size_t i = 0; i < 1000; ++i) {
        Status s = governor.ChargeNodes();
        if (!s.ok()) {
          // Sticky: every charge after the trip reports the same status.
          ASSERT_EQ(s.code(), StatusCode::kDeadlineExceeded);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(governor.stats().trips(), 1u);
  EXPECT_EQ(governor.stats().budget_hits, 1u);
}

TEST(GovernorThreadingTest, ConcurrentMemoryChargesKeepAnExactBalance) {
  ResourceGovernor governor;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&governor] {
      for (std::size_t i = 0; i < 5000; ++i) {
        Status s = governor.ChargeMemory(16);
        ASSERT_TRUE(s.ok());
        governor.ReleaseMemory(16);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // Balanced charge/release from every thread: live memory back to zero,
  // peak bounded by what could be simultaneously outstanding.
  EXPECT_TRUE(governor.ChargeMemory(0).ok());
  EXPECT_LE(governor.stats().peak_memory_bytes, 4u * 16u);
}

TEST(ExecContextThreadingTest, ConcurrentRowAndWorkChargesAreExact) {
  ExecContext ctx;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&ctx] {
      for (std::size_t i = 0; i < 10'000; ++i) {
        Status s = ctx.ChargeRows(1);
        ASSERT_TRUE(s.ok());
        s = ctx.ChargeWork(2);
        ASSERT_TRUE(s.ok());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(ctx.rows_charged.load(), 80'000u);
  EXPECT_EQ(ctx.work_charged.load(), 160'000u);
}

TEST(ExecContextThreadingTest, ConcurrentBudgetTripIsSaturatingNotWrapping) {
  ExecContext ctx;
  ctx.row_budget = kMax - 5;
  ctx.rows_charged = kMax - 10;
  std::vector<std::thread> workers;
  std::atomic<int> exhausted{0};
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = 0; i < 100; ++i) {
        if (ctx.ChargeRows(100).code() == StatusCode::kResourceExhausted) {
          exhausted++;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(ctx.rows_charged.load(), kMax);  // stuck at the ceiling
  EXPECT_GT(exhausted.load(), 0);
}

// --- Trips inside the decomposition searches. -------------------------------

TEST(GovernedSearchTest, CostKDecompHonorsNodeBudget) {
  // hw(K12) = 6: the k=3 search would exhaust an enormous lattice before
  // proving infeasibility. The node budget stops it deterministically.
  Hypergraph h = CliqueHypergraph(12);
  ResourceGovernor::Options options;
  options.node_budget = 500;
  ResourceGovernor governor(options);
  StructuralCostModel model;
  auto hd = CostKDecomp(h, 3, model, nullptr, &governor);
  ASSERT_FALSE(hd.ok());
  EXPECT_EQ(hd.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(governor.stats().budget_hits, 1u);
}

TEST(GovernedSearchTest, DetKDecompHonorsNodeBudget) {
  Hypergraph h = CliqueHypergraph(12);
  ResourceGovernor::Options options;
  options.node_budget = 300;
  ResourceGovernor governor(options);
  auto hd = DetKDecomp(h, 3, nullptr, &governor);
  ASSERT_FALSE(hd.ok());
  EXPECT_EQ(hd.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernedSearchTest, ComputeHypertreeWidthPropagatesTrip) {
  Hypergraph h = CliqueHypergraph(10);
  ResourceGovernor::Options options;
  options.node_budget = 200;
  ResourceGovernor governor(options);
  auto width = ComputeHypertreeWidth(h, 5, &governor);
  ASSERT_FALSE(width.ok());
  EXPECT_EQ(width.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernedSearchTest, CostKDecompHonorsMemoryBudget) {
  Hypergraph h = CycleHypergraph(12);
  ResourceGovernor::Options options;
  options.memory_budget_bytes = 512;  // a handful of memo entries
  ResourceGovernor governor(options);
  StructuralCostModel model;
  auto hd = CostKDecomp(h, 2, model, nullptr, &governor);
  ASSERT_FALSE(hd.ok());
  EXPECT_EQ(hd.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(governor.stats().memory_hits, 1u);
}

TEST(GovernedSearchTest, SearchesReleaseTheirMemoWhenTheyEnd) {
  // The memo dies with the search, so its charges must leave the live
  // balance with it, whether the search succeeded or tripped: execution
  // after a plan-cache miss would otherwise see a balance a hit does not.
  // The peak still records the memo's high-water mark.
  struct Case {
    const char* name;
    Hypergraph h;
    std::size_t k;
    bool det;
    std::size_t threads;
    std::size_t node_budget;
    std::size_t memory_budget;
    std::size_t peak;
  };
  const std::size_t unlimited = std::numeric_limits<std::size_t>::max();
  const Case cases[] = {
      {"det", CycleHypergraph(8), 2, true, 1, unlimited, unlimited, 1120},
      {"cost", CycleHypergraph(8), 2, false, 1, unlimited, unlimited, 7840},
      {"cost-parallel", CycleHypergraph(8), 2, false, 2, unlimited, unlimited,
       7840},
      {"det-node-trip", CycleHypergraph(12), 1, true, 1, 100, unlimited,
       1120},
      {"cost-node-trip", GridHypergraph(3, 4), 3, false, 1, 2000, unlimited,
       1280},
      // The root fan-out charges the root's whole enumeration before the
      // workers memoize anything, and how many entries they finish before
      // the trip can vary with scheduling, so this peak is not pinned (0).
      {"cost-parallel-node-trip", GridHypergraph(3, 4), 3, false, 2, 2000,
       unlimited, 0},
      {"cost-memory-trip", CycleHypergraph(12), 2, false, 1, unlimited, 512,
       640},
  };
  ThreadPool pool(2);
  StructuralCostModel model;
  for (const Case& c : cases) {
    ResourceGovernor::Options options;
    options.node_budget = c.node_budget;
    options.memory_budget_bytes = c.memory_budget;
    ResourceGovernor governor(options);
    auto hd = c.det ? DetKDecomp(c.h, c.k, nullptr, &governor)
                    : CostKDecomp(c.h, c.k, model, nullptr, &governor, &pool,
                                  c.threads);
    EXPECT_EQ(hd.ok(), c.node_budget == unlimited &&
                           c.memory_budget == unlimited)
        << c.name;
    EXPECT_EQ(governor.live_memory_bytes(), 0u) << c.name;
    if (c.peak != 0) {
      EXPECT_EQ(governor.stats().peak_memory_bytes, c.peak) << c.name;
    }
  }
}

TEST(GovernedSearchTest, HypertreeWidthWidthsDoNotChargeEachOther) {
  // Each width's search releases its memo before the next one starts, so
  // the peak is the largest single search, not the sum over k = 1..hw.
  Hypergraph h = CliqueHypergraph(6);
  std::size_t largest = 0;
  for (std::size_t k = 1; k <= 3; ++k) {
    ResourceGovernor one;
    (void)DetKDecomp(h, k, nullptr, &one);
    largest = std::max(largest, one.stats().peak_memory_bytes);
  }
  ResourceGovernor governor;
  auto width = ComputeHypertreeWidth(h, 4, &governor);
  ASSERT_TRUE(width.ok());
  EXPECT_EQ(*width, 3u);
  EXPECT_EQ(governor.live_memory_bytes(), 0u);
  EXPECT_EQ(governor.stats().peak_memory_bytes, largest);
}

TEST(GovernedSearchTest, AdversarialInstanceReturnsWithinDeadline) {
  // The acceptance shape: an instance whose k=4 search runs far past any
  // test budget returns kDeadlineExceeded promptly instead of hanging —
  // the paper's "does not terminate after 10 minutes" case, governed.
  Hypergraph h = CliqueHypergraph(14);
  ResourceGovernor governor(ResourceGovernor::Options::AfterSeconds(0.05));
  StructuralCostModel model;
  auto start = std::chrono::steady_clock::now();
  auto hd = CostKDecomp(h, 4, model, nullptr, &governor);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(hd.ok());
  EXPECT_EQ(hd.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(governor.stats().deadline_hits, 1u);
  EXPECT_LT(elapsed, 5.0);  // wildly generous CI margin over the 50ms ask
}

// --- The degradation ladder through the hybrid optimizer. -------------------

class GovernedPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{150, 40, 10, 13}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(GovernedPipelineTest, LadderDegradesToAPlanAndNamesEveryStep) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  std::string sql = ChainQuerySql(8);

  RunOptions reference_options;
  reference_options.mode = OptimizerMode::kQhdHybrid;
  auto reference = optimizer.Run(sql, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  EXPECT_TRUE(reference->degradations.empty());

  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.max_width = 3;
  options.search_node_budget = 40;  // trips every search rung
  options.degrade_on_budget = true;
  auto run = optimizer.Run(sql, options);
  ASSERT_TRUE(run.ok()) << run.status().message();

  // Width 3 → 2 → 1 → DP → GEQO: at least the width retries and the final
  // GEQO hand-off must be on record, in ladder order.
  ASSERT_GE(run->degradations.size(), 2u);
  EXPECT_TRUE(Contains(run->degradations.front(), "q-HD"))
      << run->degradations.front();
  EXPECT_TRUE(Contains(run->degradations.front(), "width 3"))
      << run->degradations.front();
  EXPECT_TRUE(Contains(run->degradations.back(), "GEQO"))
      << run->degradations.back();
  EXPECT_TRUE(run->used_fallback());
  EXPECT_GE(run->governor.budget_hits, 1u);

  // Degraded, not wrong: the GEQO plan computes the same answer.
  EXPECT_TRUE(reference->output.SameRowsAs(run->output));
}

TEST_F(GovernedPipelineTest, GenerousBudgetTakesNoLadderSteps) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.search_node_budget = 10'000'000;
  auto run = optimizer.Run(ChainQuerySql(6), options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_TRUE(run->degradations.empty());
  EXPECT_FALSE(run->used_fallback());
  EXPECT_GT(run->governor.search_nodes, 0u);  // the governor was watching
  EXPECT_EQ(run->governor.trips(), 0u);
}

TEST_F(GovernedPipelineTest, ExpiredDeadlineFailsClosedThroughTheLadder) {
  // When the wall deadline itself has passed, degradation cannot help: every
  // rung (including GEQO and execution) honors it, and the run reports
  // kDeadlineExceeded instead of silently burning time.
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.deadline_seconds = 1e-9;
  options.degrade_on_budget = true;
  auto run = optimizer.Run(ChainQuerySql(8), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernedPipelineTest, DegradeDisabledSurfacesTheTrip) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.max_width = 3;
  options.search_node_budget = 40;
  options.degrade_on_budget = false;
  auto run = optimizer.Run(ChainQuerySql(8), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernedPipelineTest, GovernorPointerDoesNotEscapeTheRun) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.search_node_budget = 1'000'000;
  auto run = optimizer.Run(LineQuerySql(5), options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  // The per-attempt governor lived on RunResolved's stack; the returned
  // context must not point at it.
  EXPECT_EQ(run->ctx.governor, nullptr);
}

// --- kResourceExhausted mid-pipeline stays a clean Status. ------------------

TEST_F(GovernedPipelineTest, QhdEvaluatorRowBudgetIsACleanError) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.row_budget = 50;  // below one base-relation scan
  auto run = optimizer.Run(ChainQuerySql(6), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernedPipelineTest, YannakakisRowBudgetIsACleanError) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kYannakakis;
  options.row_budget = 50;
  auto run = optimizer.Run(LineQuerySql(6), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernedPipelineTest, SubqueryMaterializationRowBudgetIsACleanError) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  options.row_budget = 50;
  auto run = optimizer.Run(
      "SELECT DISTINCT s.a FROM (SELECT r1.a AS a, r1.b AS b FROM r1) s, r2 "
      "WHERE s.b = r2.a",
      options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace htqo
