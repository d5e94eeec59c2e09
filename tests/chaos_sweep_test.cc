// Chaos sweep (tools/check.sh --chaos runs this under ASan): an end-to-end
// workload executed under every registered fault site × {always-fire,
// p=0.05} × {1, 4} threads, with spilling forced so the spill.* sites are
// actually reached. The contract, for every cell of the matrix:
//   - no crash, no sanitizer report (the harness runs this suite under
//     ASan/UBSan),
//   - a failing run fails with a typed Status (kResourceExhausted or
//     kDeadlineExceeded — the codes the degradation ladder and budgets
//     use), never anything untyped,
//   - a succeeding run returns the right answer: the same row multiset as
//     the fault-free reference (fault-perturbed statistics may legally pick
//     a different plan, which only permutes row order).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "obs/flightrec.h"
#include "stats/feedback.h"
#include "test_util.h"
#include "util/fault_injector.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

// Canonical (sorted) comparison: exact multiset equality, insensitive to
// the row-order changes a fault-perturbed plan may introduce.
bool SameRowMultiset(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.NumRows() != b.NumRows()) return false;
  Relation sa = a;
  Relation sb = b;
  sa.SortBy({});
  sb.SortBy({});
  for (std::size_t r = 0; r < sa.NumRows(); ++r) {
    for (std::size_t c = 0; c < sa.arity(); ++c) {
      if (!(sa.At(r, c) == sb.At(r, c))) return false;
    }
  }
  return true;
}

class ChaosSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{3000, 60, 6, 99}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  // Spilling forced: a finite memory budget with a tiny soft threshold, so
  // every join takes the spill path and the spill.open/write/read sites are
  // reachable. governor.checkpoint is reachable because the finite budget
  // makes the run governed.
  RunOptions ChaosOptions(OptimizerMode mode, std::size_t threads) {
    RunOptions options;
    options.mode = mode;
    options.num_threads = threads;
    options.enable_spill = true;
    options.memory_budget_bytes = 16u << 20;
    options.soft_memory_fraction = 0.002;  // soft ≈ 32 KiB
    return options;
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(ChaosSweepTest, EverySiteEveryProbabilityEveryThreadCount) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  // The GROUP BY query puts the spill sites inside grouped aggregation's
  // partitioning; the other two reach them through joins and DISTINCT.
  const std::string agg_sql =
      "SELECT r1.a AS k, count(*) AS n, sum(r3.b) AS s FROM r1, r2, r3 "
      "WHERE r1.b = r2.a AND r2.b = r3.a GROUP BY r1.a ORDER BY k";
  const std::vector<std::pair<std::string, OptimizerMode>> workload = {
      {ChainQuerySql(4), OptimizerMode::kQhdHybrid},
      {LineQuerySql(5), OptimizerMode::kDpStatistics},
      {agg_sql, OptimizerMode::kQhdHybrid},
  };

  // Fault-free references (per query × thread count), plus a sanity check
  // that the forced-spill configuration actually exercises the spill layer
  // — a sweep whose spill sites are unreachable would prove nothing.
  std::map<std::pair<std::size_t, std::size_t>, Relation> reference;
  for (std::size_t q = 0; q < workload.size(); ++q) {
    for (std::size_t threads : {1, 4}) {
      RunOptions options = ChaosOptions(workload[q].second, threads);
      Tracer tracer;
      options.trace.tracer = &tracer;
      auto run = optimizer.Run(workload[q].first, options);
      ASSERT_TRUE(run.ok()) << run.status().message();
      ASSERT_GT(run->spill.spill_events, 0u)
          << "chaos configuration does not reach the spill sites";
      if (workload[q].first == agg_sql) {
        ASSERT_GE(AggregationSpillDepth(tracer), 0)
            << "chaos configuration does not spill the aggregation";
      }
      reference[{q, threads}] = run->output;
    }
  }

  std::size_t failures_observed = 0;
  for (const std::string& site : FaultInjector::KnownSites()) {
    for (double probability : {1.0, 0.05}) {
      for (std::size_t threads : {1, 4}) {
        for (std::size_t q = 0; q < workload.size(); ++q) {
          FaultPlan plan;
          plan.site = site;
          plan.probability = probability;
          plan.seed = 1 + q * 17 + threads;
          ScopedFaultInjection injection(plan);
          ASSERT_TRUE(injection.status().ok()) << site;

          auto run = optimizer.Run(workload[q].first,
                                   ChaosOptions(workload[q].second, threads));
          std::string label = site + " p=" + std::to_string(probability) +
                              " threads=" + std::to_string(threads) +
                              " query=" + std::to_string(q);
          if (!run.ok()) {
            ++failures_observed;
            EXPECT_TRUE(run.status().code() ==
                            StatusCode::kResourceExhausted ||
                        run.status().code() ==
                            StatusCode::kDeadlineExceeded)
                << label << ": " << run.status().ToString();
            EXPECT_FALSE(run.status().message().empty()) << label;
          } else {
            EXPECT_TRUE(SameRowMultiset(reference[{q, threads}],
                                        run->output))
                << label << ": wrong answer under fault injection";
          }
        }
      }
    }
  }
  // Always-fire plans on hard-failure sites must actually fail; if nothing
  // in the whole sweep did, the sites have been silently disconnected.
  EXPECT_GT(failures_observed, 0u);
}

TEST_F(ChaosSweepTest, AlwaysFiringSpillSitesFailTypedAndNeverWrong) {
  // Focused matrix for the spill sites: p=1 exhausts the bounded retries,
  // so the run must fail with kResourceExhausted naming the site — except
  // spill.open/write under the degradation ladder, which may legally
  // surface as a governor deadline if the wall clock is also constrained
  // (not here). Wrong answers are never acceptable.
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (const char* site : {kFaultSiteSpillOpen, kFaultSiteSpillWrite,
                           kFaultSiteSpillRead}) {
    for (std::size_t threads : {1, 4}) {
      FaultPlan plan;
      plan.site = site;
      plan.probability = 1.0;
      ScopedFaultInjection injection(plan);
      auto run = optimizer.Run(ChainQuerySql(4),
                               ChaosOptions(OptimizerMode::kQhdHybrid,
                                            threads));
      ASSERT_FALSE(run.ok()) << site << " at " << threads << " threads";
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
          << site << ": " << run.status().ToString();
      EXPECT_NE(run.status().message().find(site), std::string::npos)
          << run.status().message();
    }
  }
}

TEST_F(ChaosSweepTest, ShardSitesFailTypedAndNeverWrong) {
  // The main sweep's workload runs unsharded, so shard.partition /
  // shard.exchange pass vacuously there; this focused matrix runs a
  // sharded Yannakakis reduction (forced spill stays on) through both
  // sites. p=1 exhausts the bounded retries — kResourceExhausted naming
  // the site, the same contract as the spill sites; p=0.05 runs that
  // survive the retries must return exactly the fault-free answer.
  HybridOptimizer optimizer(&catalog_, &registry_);
  auto sharded_options = [&](std::size_t threads) {
    RunOptions options = ChaosOptions(OptimizerMode::kYannakakis, threads);
    options.num_shards = 3;
    options.shard_replicate_threshold = 8;  // real partitions, not broadcast
    return options;
  };
  std::map<std::size_t, Relation> reference;
  for (std::size_t threads : {1, 4}) {
    auto run = optimizer.Run(LineQuerySql(5), sharded_options(threads));
    ASSERT_TRUE(run.ok()) << run.status().message();
    ASSERT_GT(run->shard.partitions, 0u)
        << "chaos configuration does not reach the shard sites";
    ASSERT_GT(run->shard.exchanges, 0u);
    reference[threads] = run->output;
  }
  for (const char* site :
       {kFaultSiteShardPartition, kFaultSiteShardExchange}) {
    for (double probability : {1.0, 0.05}) {
      for (std::size_t threads : {1, 4}) {
        FaultPlan plan;
        plan.site = site;
        plan.probability = probability;
        plan.seed = 5 + threads;
        ScopedFaultInjection injection(plan);
        ASSERT_TRUE(injection.status().ok()) << site;
        auto run = optimizer.Run(LineQuerySql(5), sharded_options(threads));
        std::string label = std::string(site) +
                            " p=" + std::to_string(probability) +
                            " threads=" + std::to_string(threads);
        if (probability == 1.0) {
          ASSERT_FALSE(run.ok()) << label;
          EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
              << label << ": " << run.status().ToString();
          EXPECT_NE(run.status().message().find(site), std::string::npos)
              << run.status().message();
        } else if (run.ok()) {
          EXPECT_TRUE(SameRowMultiset(reference[threads], run->output))
              << label << ": wrong answer under fault injection";
        } else {
          EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
              << label << ": " << run.status().ToString();
        }
      }
    }
  }
}

TEST_F(ChaosSweepTest, FeedbackAndReplanSitesAreReachableAndFailSoft) {
  // The main sweep cannot reach stats.feedback / replan.checkpoint (it
  // neither reconciles nor replans, so those cells pass vacuously); this
  // focused cell proves both sites fire and both fail *soft*: the adaptive
  // layer degrades — refresh skipped, checkpoint recomputed — while the
  // query answer is never affected.
  HybridOptimizer optimizer(&catalog_, &registry_);
  auto rq = optimizer.Resolve(ChainQuerySql(4));
  ASSERT_TRUE(rq.ok()) << rq.status().message();

  // stats.feedback: an always-firing site abandons every refresh.
  {
    RunOptions options = ChaosOptions(OptimizerMode::kQhdHybrid, 1);
    Tracer tracer;
    options.trace.tracer = &tracer;
    auto run = optimizer.RunResolved(rq.value(), options);
    ASSERT_TRUE(run.ok()) << run.status().message();

    FaultPlan plan;
    plan.site = kFaultSiteStatsFeedback;
    plan.probability = 1.0;
    ScopedFaultInjection injection(plan);
    ASSERT_TRUE(injection.status().ok());
    // An empty scratch registry estimates every scan from defaults, so
    // every relation's error factor crosses the refresh threshold and every
    // refresh attempt must hit the firing site.
    StatisticsRegistry scratch;
    FeedbackCollector collector(&catalog_, &scratch);
    FeedbackReport report = collector.Reconcile(rq.value(), tracer);
    EXPECT_GT(report.skipped, 0u) << "stats.feedback site unreachable";
    EXPECT_TRUE(report.refreshed.empty());
  }

  // replan.checkpoint: every checkpoint store is dropped mid-replan; the
  // resumed pass recomputes the lost nodes and still answers correctly.
  {
    auto reference = optimizer.Run(
        ChainQuerySql(4), ChaosOptions(OptimizerMode::kQhdHybrid, 1));
    ASSERT_TRUE(reference.ok()) << reference.status().message();

    FaultPlan plan;
    plan.site = kFaultSiteReplanCheckpoint;
    plan.probability = 1.0;
    ScopedFaultInjection injection(plan);
    ASSERT_TRUE(injection.status().ok());
    for (std::size_t threads : {1, 4}) {
      RunOptions options = ChaosOptions(OptimizerMode::kQhdHybrid, threads);
      options.enable_replan = true;
      options.replan_blowup_factor = 0.01;  // first wave barrier trips
      options.replan_min_rows = 1;
      auto run = optimizer.Run(ChainQuerySql(4), options);
      ASSERT_TRUE(run.ok()) << run.status().message();
      EXPECT_GE(run->replans, 1u) << "replan.checkpoint site unreachable";
      EXPECT_TRUE(SameRowMultiset(reference->output, run->output))
          << "threads=" << threads;
    }
  }
}

TEST_F(ChaosSweepTest, FlightRecorderDumpSiteFailsSoftAndRingSurvives) {
  // The main sweep passes obs.flightrec.dump vacuously (optimizer.Run never
  // dumps); this focused cell arms the site around a populated ring. The
  // dump must fail with a typed Internal naming the site, the ring must be
  // untouched (exporter failure only), and with the site disarmed the same
  // ring dumps cleanly — the degrade-to-warning contract of the crash-dump
  // path.
  FlightRecorder rec(8);
  for (int i = 0; i < 5; ++i) {
    FlightRecord r;
    r.SetTenant("chaos");
    r.total_us = 100 * (i + 1);
    rec.Record(r);
  }
  const std::string path =
      ::testing::TempDir() + "/htqo_chaos_flightrec_dump.jsonl";
  std::remove(path.c_str());
  {
    FaultPlan plan;
    plan.site = kFaultSiteFlightRecDump;
    plan.probability = 1.0;
    ScopedFaultInjection injection(plan);
    ASSERT_TRUE(injection.status().ok());
    Status dumped = rec.DumpToFile(path);
    ASSERT_FALSE(dumped.ok());
    EXPECT_EQ(dumped.code(), StatusCode::kInternal);
    EXPECT_NE(dumped.message().find(kFaultSiteFlightRecDump),
              std::string::npos)
        << dumped.message();
  }
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  ASSERT_TRUE(rec.DumpToFile(path).ok());
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace htqo
