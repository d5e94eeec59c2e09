// Decomposition & plan cache (DESIGN.md §6e): isomorphic query templates
// share one entry, cached runs are byte-identical to uncached ones at any
// thread count, statistics epochs invalidate, nested statements re-use
// their plans, "no decomposition" is cached too, concurrent misses compute
// once, and an injected insert fault degrades to a miss — never a wrong
// answer.

#include "cache/decomp_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "stats/statistics.h"
#include "util/fault_injector.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace htqo {
namespace {

bool ByteIdentical(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.NumRows() != b.NumRows()) return false;
  for (std::size_t r = 0; r < a.NumRows(); ++r) {
    for (std::size_t c = 0; c < a.arity(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{200, 50, 6, 17}, &catalog_);
    registry_.AnalyzeAll(catalog_);
    DecompCache::Global().Clear();
    base_ = DecompCache::Global().stats();
  }

  // Counter deltas since SetUp — the global cache accumulates across tests.
  DecompCache::Stats Delta() const {
    DecompCache::Stats now = DecompCache::Global().stats();
    DecompCache::Stats d = now;
    d.hits -= base_.hits;
    d.misses -= base_.misses;
    d.evictions -= base_.evictions;
    d.stale -= base_.stale;
    d.singleflight_waits -= base_.singleflight_waits;
    return d;
  }

  QueryRun MustRun(const std::string& sql, bool use_cache,
                   std::size_t threads = 1) {
    HybridOptimizer optimizer(&catalog_, &registry_);
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.tid_mode = TidMode::kNone;
    options.use_plan_cache = use_cache;
    options.num_threads = threads;
    auto run = optimizer.Run(sql, options);
    EXPECT_TRUE(run.ok()) << run.status().message();
    return std::move(run.value());
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
  DecompCache::Stats base_;
};

constexpr const char* kChainSql =
    "SELECT DISTINCT r1.a AS o FROM r1, r2, r3 "
    "WHERE r1.b = r2.a AND r2.b = r3.a";
// The same template with atoms listed (and conjuncts written) in a
// different order: an isomorphic labeled hypergraph under a nontrivial
// vertex/edge permutation.
constexpr const char* kChainSqlRelabeled =
    "SELECT DISTINCT r1.a AS o FROM r3, r2, r1 "
    "WHERE r2.b = r3.a AND r1.b = r2.a";

TEST_F(PlanCacheTest, WarmRunHitsAndMatchesColdRunByteForByte) {
  QueryRun reference = MustRun(kChainSql, /*use_cache=*/false);
  EXPECT_EQ(reference.plan_cache, "");

  QueryRun cold = MustRun(kChainSql, /*use_cache=*/true);
  EXPECT_EQ(cold.plan_cache, "miss");
  QueryRun warm = MustRun(kChainSql, /*use_cache=*/true);
  EXPECT_EQ(warm.plan_cache, "hit");

  for (const QueryRun* run : {&cold, &warm}) {
    EXPECT_TRUE(ByteIdentical(reference.output, run->output));
    EXPECT_EQ(reference.plan_details, run->plan_details);
    EXPECT_EQ(reference.decomposition_width, run->decomposition_width);
    EXPECT_EQ(reference.pruned_lambda_entries, run->pruned_lambda_entries);
    EXPECT_EQ(reference.ctx.rows_charged.load(), run->ctx.rows_charged.load());
    EXPECT_EQ(reference.ctx.work_charged.load(), run->ctx.work_charged.load());
  }
  DecompCache::Stats d = Delta();
  EXPECT_EQ(d.misses, 1u);
  EXPECT_EQ(d.hits, 1u);
}

TEST_F(PlanCacheTest, IsomorphicRelabelingHitsTheSameEntry) {
  QueryRun cold = MustRun(kChainSql, /*use_cache=*/true);
  EXPECT_EQ(cold.plan_cache, "miss");
  QueryRun relabeled = MustRun(kChainSqlRelabeled, /*use_cache=*/true);
  EXPECT_EQ(relabeled.plan_cache, "hit")
      << "atom-order permutation must canonicalize onto one fingerprint";
  // The rebound decomposition evaluates to the same answer the relabeled
  // query computes without the cache.
  QueryRun reference = MustRun(kChainSqlRelabeled, /*use_cache=*/false);
  EXPECT_TRUE(ByteIdentical(reference.output, relabeled.output));
  EXPECT_EQ(reference.decomposition_width, relabeled.decomposition_width);
  DecompCache::Stats d = Delta();
  EXPECT_EQ(d.misses, 1u);
  EXPECT_EQ(d.hits, 1u);
}

TEST_F(PlanCacheTest, CachedRunsAreThreadCountInvariant) {
  QueryRun reference = MustRun(kChainSql, /*use_cache=*/false, 1);
  for (std::size_t threads : {1, 2, 4}) {
    QueryRun run = MustRun(kChainSql, /*use_cache=*/true, threads);
    EXPECT_TRUE(run.plan_cache == "hit" || run.plan_cache == "miss");
    EXPECT_TRUE(ByteIdentical(reference.output, run.output))
        << threads << " threads (" << run.plan_cache << ")";
    EXPECT_EQ(reference.plan_details, run.plan_details);
    EXPECT_EQ(reference.ctx.rows_charged.load(), run.ctx.rows_charged.load());
    EXPECT_EQ(reference.ctx.work_charged.load(), run.ctx.work_charged.load());
  }
}

TEST_F(PlanCacheTest, StructuralAndHybridModesShareNoEntry) {
  // kQhdStructural uses the structural cost model: its certificate differs
  // (cost-model tag), so it must not serve the hybrid mode's entry.
  MustRun(kChainSql, /*use_cache=*/true);
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdStructural;
  options.tid_mode = TidMode::kNone;
  options.use_plan_cache = true;
  auto run = optimizer.Run(kChainSql, options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->plan_cache, "miss");
  DecompCache::Stats d = Delta();
  EXPECT_EQ(d.misses, 2u);
}

TEST_F(PlanCacheTest, NoOptimizeModeSharesTheHybridEntry) {
  // Entries are pre-Optimize, so kQhdNoOptimize and kQhdHybrid key alike.
  MustRun(kChainSql, /*use_cache=*/true);
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdNoOptimize;
  options.tid_mode = TidMode::kNone;
  options.use_plan_cache = true;
  auto run = optimizer.Run(kChainSql, options);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->plan_cache, "hit");
}

TEST_F(PlanCacheTest, StatsEpochBumpInvalidates) {
  MustRun(kChainSql, /*use_cache=*/true);
  EXPECT_EQ(MustRun(kChainSql, /*use_cache=*/true).plan_cache, "hit");

  // Any stats update on a referenced relation moves its epoch (Put bumps
  // it; Bump is the raw hook): the entry goes stale, and the next lookup
  // recomputes (then caches the fresh result).
  StatsEpochRegistry::Global().Bump("r2");
  QueryRun after = MustRun(kChainSql, /*use_cache=*/true);
  EXPECT_EQ(after.plan_cache, "stale-miss");
  EXPECT_EQ(MustRun(kChainSql, /*use_cache=*/true).plan_cache, "hit");

  // A bump on an unreferenced relation leaves the entry fresh.
  StatsEpochRegistry::Global().Bump("r6");
  EXPECT_EQ(MustRun(kChainSql, /*use_cache=*/true).plan_cache, "hit");
  DecompCache::Stats d = Delta();
  EXPECT_EQ(d.stale, 1u);
  EXPECT_EQ(d.misses, 2u);  // the cold miss + the stale recompute
}

TEST_F(PlanCacheTest, NestedStatementRerunHitsTheCache) {
  // Nested Q8: the derived table lives in a per-statement overlay, so its
  // statistics never move a process-wide epoch, and the outer plan is keyed
  // on the derived table's stats content. The kAllAtoms sub-run finds no
  // width-4 decomposition and falls back to DP (a negative entry).
  PopulateTpch(TpchConfig{0.002, 7}, &catalog_);
  registry_.AnalyzeAll(catalog_);
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.use_plan_cache = true;
  auto run = [&](const std::string& sql) {
    auto r = optimizer.Run(sql, options);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return std::move(r.value());
  };
  auto uncached = [&](const std::string& sql) {
    RunOptions plain = options;
    plain.use_plan_cache = false;
    auto r = optimizer.Run(sql, plain);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return std::move(r.value());
  };

  const std::string first_sql = TpchQ8Nested();
  const QueryRun cold = run(first_sql);
  const DecompCache::Stats after_cold = Delta();
  const QueryRun warm = run(first_sql);
  const DecompCache::Stats after_warm = Delta();
  EXPECT_EQ(warm.plan_cache, "hit");
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(after_warm.stale, after_cold.stale);
  EXPECT_EQ(after_warm.stale, 0u);
  EXPECT_EQ(after_warm.hits, after_cold.hits + 2)
      << "the outer lookup and the inner kAllAtoms lookup both hit";
  const QueryRun reference = uncached(first_sql);
  for (const QueryRun* r : {&cold, &warm}) {
    EXPECT_TRUE(ByteIdentical(reference.output, r->output));
    EXPECT_EQ(reference.plan_description, r->plan_description);
    EXPECT_EQ(reference.plan_details, r->plan_details);
    EXPECT_EQ(reference.degradations, r->degradations);
  }

  // Another binding: same shapes, different derived-table statistics. Its
  // inner sub-run shares the first binding's negative entry; its outer
  // plan gets an entry of its own (one miss), which the re-run then hits,
  // and the first binding's entry is not evicted as stale.
  const std::string second_sql =
      TpchQ8Nested("AMERICA", "STANDARD ANODIZED BRASS");
  const QueryRun second_cold = run(second_sql);
  const DecompCache::Stats after_second = Delta();
  EXPECT_EQ(second_cold.plan_cache, "miss");
  EXPECT_EQ(after_second.misses, after_warm.misses + 1);
  const QueryRun second_warm = run(second_sql);
  EXPECT_EQ(second_warm.plan_cache, "hit");
  EXPECT_EQ(run(first_sql).plan_cache, "hit");
  const DecompCache::Stats after_all = Delta();
  EXPECT_EQ(after_all.misses, after_second.misses);
  EXPECT_EQ(after_all.stale, 0u);
  const QueryRun second_reference = uncached(second_sql);
  EXPECT_FALSE(ByteIdentical(reference.output, second_reference.output))
      << "the two bindings must differ for this test to mean anything";
  for (const QueryRun* r : {&second_cold, &second_warm}) {
    EXPECT_TRUE(ByteIdentical(second_reference.output, r->output));
    EXPECT_EQ(second_reference.plan_description, r->plan_description);
    EXPECT_EQ(second_reference.degradations, r->degradations);
  }
}

TEST_F(PlanCacheTest, NoDecompositionIsCachedNegatively) {
  // With every atom's tid in out(Q), the root must cover all three atoms:
  // no rooted decomposition of width <= 2 exists, and q-HD falls back to DP.
  HybridOptimizer optimizer(&catalog_, &registry_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.tid_mode = TidMode::kAllAtoms;
  options.max_width = 2;
  options.use_plan_cache = true;
  auto run = [&](const RunOptions& o) {
    auto r = optimizer.Run(kChainSql, o);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return std::move(r.value());
  };

  // A run whose governor trips (and does not degrade) publishes nothing.
  RunOptions tripping = options;
  tripping.search_node_budget = 1;
  tripping.degrade_on_budget = false;
  auto tripped = optimizer.Run(kChainSql, tripping);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(DecompCache::Global().stats().entries, 0u);

  const QueryRun cold = run(options);
  EXPECT_EQ(cold.plan_cache, "miss");
  ASSERT_EQ(cold.degradations.size(), 1u);
  EXPECT_NE(cold.degradations[0].find("no rooted decomposition of width <= 2"),
            std::string::npos);
  EXPECT_EQ(DecompCache::Global().stats().entries, 1u);
  const QueryRun warm = run(options);
  EXPECT_EQ(warm.plan_cache, "hit");
  EXPECT_EQ(warm.degradations, cold.degradations);
  EXPECT_EQ(warm.plan_description, cold.plan_description);
  EXPECT_TRUE(ByteIdentical(cold.output, warm.output));

  RunOptions plain = options;
  plain.use_plan_cache = false;
  const QueryRun reference = run(plain);
  EXPECT_TRUE(ByteIdentical(reference.output, warm.output));
  EXPECT_EQ(reference.degradations, warm.degradations);
  DecompCache::Stats d = Delta();
  EXPECT_EQ(d.misses, 2u);  // the tripped run's claim + the cold miss
  EXPECT_EQ(d.hits, 1u);
}

TEST_F(PlanCacheTest, FourThreadStormComputesOnce) {
  // All four threads release together on the same cold fingerprint: exactly
  // one owns the search; the rest either wait on the flight or (if they
  // arrive after the publish) hit the table. Never a second compute.
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<std::string> outcomes(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) std::this_thread::yield();
      outcomes[t] = MustRun(kChainSql, /*use_cache=*/true).plan_cache;
    });
  }
  for (auto& th : threads) th.join();
  DecompCache::Stats d = Delta();
  EXPECT_EQ(d.misses, 1u);
  EXPECT_EQ(d.hits + d.singleflight_waits, 3u);
  for (const std::string& outcome : outcomes) {
    EXPECT_TRUE(outcome == "miss" || outcome == "hit" ||
                outcome == "shared-hit")
        << outcome;
  }
  QueryRun reference = MustRun(kChainSql, /*use_cache=*/false);
  EXPECT_TRUE(
      ByteIdentical(reference.output, MustRun(kChainSql, true).output));
}

TEST_F(PlanCacheTest, WaiterSharesTheOwnersEntry) {
  // Deterministic single-flight handshake on the raw cache: the owner
  // claims a fingerprint, a second thread provably enters Acquire before
  // the publish, and must come back with the shared entry.
  DecompCache cache(DecompCache::kDefaultByteBudget, 1);
  PlanCacheKey key = PlanCacheKey::FromCertificate("storm-cert");
  DecompCache::AcquireResult own = cache.Acquire(key, nullptr, nullptr);
  ASSERT_EQ(own.kind, DecompCache::AcquireKind::kOwner);

  std::atomic<bool> entered{false};
  DecompCache::AcquireResult shared;
  std::thread waiter([&] {
    entered.store(true);
    shared = cache.Acquire(key, nullptr, nullptr);
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto entry = std::make_shared<DecompCache::Entry>();
  entry->width = 2;
  cache.Publish(key, entry);
  waiter.join();
  ASSERT_TRUE(shared.kind == DecompCache::AcquireKind::kShared ||
              shared.kind == DecompCache::AcquireKind::kHit);
  ASSERT_NE(shared.entry, nullptr);
  EXPECT_EQ(shared.entry->width, 2u);
  if (shared.kind == DecompCache::AcquireKind::kShared) {
    EXPECT_TRUE(shared.waited);
    EXPECT_EQ(cache.stats().singleflight_waits, 1u);
  }
}

TEST_F(PlanCacheTest, FailedOwnerSendsWaitersToRetry) {
  DecompCache cache(DecompCache::kDefaultByteBudget, 1);
  PlanCacheKey key = PlanCacheKey::FromCertificate("fail-cert");
  ASSERT_EQ(cache.Acquire(key, nullptr, nullptr).kind,
            DecompCache::AcquireKind::kOwner);
  std::atomic<bool> entered{false};
  DecompCache::AcquireResult res;
  std::thread waiter([&] {
    entered.store(true);
    res = cache.Acquire(key, nullptr, nullptr);
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cache.Publish(key, nullptr);  // the owner's search failed
  waiter.join();
  ASSERT_TRUE(res.kind == DecompCache::AcquireKind::kRetry ||
              res.kind == DecompCache::AcquireKind::kOwner);
  EXPECT_EQ(res.entry, nullptr);
  if (res.kind == DecompCache::AcquireKind::kOwner) {
    cache.Publish(key, nullptr);  // balance the re-claimed flight
  }
}

TEST_F(PlanCacheTest, InsertFaultDegradesToMissNeverWrongAnswer) {
  QueryRun reference = MustRun(kChainSql, /*use_cache=*/false);
  {
    FaultPlan plan;
    plan.site = kFaultSiteCacheInsert;
    plan.probability = 1.0;
    ScopedFaultInjection injection(plan);
    ASSERT_TRUE(injection.status().ok());
    for (int i = 0; i < 2; ++i) {
      QueryRun run = MustRun(kChainSql, /*use_cache=*/true);
      // The retain is dropped every time, so every run recomputes...
      EXPECT_EQ(run.plan_cache, "miss");
      // ...but the query itself keeps its fresh decomposition.
      EXPECT_TRUE(ByteIdentical(reference.output, run.output));
      EXPECT_EQ(reference.plan_details, run.plan_details);
    }
  }
  // With the fault gone, the retain works again.
  EXPECT_EQ(MustRun(kChainSql, /*use_cache=*/true).plan_cache, "miss");
  EXPECT_EQ(MustRun(kChainSql, /*use_cache=*/true).plan_cache, "hit");
}

TEST_F(PlanCacheTest, TinyByteBudgetEvictsInsteadOfGrowing) {
  DecompCache& cache = DecompCache::Global();
  cache.set_byte_budget(1);  // every entry exceeds its shard's budget
  MustRun(kChainSql, /*use_cache=*/true);
  MustRun("SELECT DISTINCT r4.a AS o FROM r4, r5 WHERE r4.b = r5.a",
          /*use_cache=*/true);
  DecompCache::Stats d = Delta();
  EXPECT_GE(d.evictions, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.set_byte_budget(DecompCache::kDefaultByteBudget);
  // Evicted != broken: the next run recomputes and (budget restored) the
  // one after hits.
  EXPECT_EQ(MustRun(kChainSql, /*use_cache=*/true).plan_cache, "miss");
  EXPECT_EQ(MustRun(kChainSql, /*use_cache=*/true).plan_cache, "hit");
}

TEST_F(PlanCacheTest, MapHypertreeRoundTripsThroughAPermutation) {
  Hypertree tree;
  Bitset chi0(3);
  chi0.Set(0);
  chi0.Set(2);
  Bitset lambda0(2);
  lambda0.Set(1);
  tree.AddNode(std::move(chi0), std::move(lambda0), HypertreeNode::kNoParent);
  Bitset chi1(3);
  chi1.Set(1);
  Bitset lambda1(2);
  lambda1.Set(0);
  tree.AddNode(std::move(chi1), std::move(lambda1), 0);

  std::vector<std::size_t> vmap{2, 0, 1};
  std::vector<std::size_t> vinv{1, 2, 0};
  std::vector<std::size_t> emap{1, 0};
  Hypertree mapped = MapHypertree(tree, vmap, emap, 3, 2);
  Hypertree back = MapHypertree(mapped, vinv, emap, 3, 2);
  ASSERT_EQ(back.NumNodes(), tree.NumNodes());
  for (std::size_t i = 0; i < tree.NumNodes(); ++i) {
    EXPECT_EQ(back.node(i).chi.ToString(), tree.node(i).chi.ToString());
    EXPECT_EQ(back.node(i).lambda.ToString(), tree.node(i).lambda.ToString());
    EXPECT_EQ(back.node(i).parent, tree.node(i).parent);
  }
}

}  // namespace
}  // namespace htqo
