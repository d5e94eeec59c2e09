// Decomposition & plan cache benchmarks (DESIGN.md §6e).
//
// Three planning regimes over the same query templates:
//   PlanNoCache — the raw planning path: stats lookup + q-HD search +
//                 Procedure Optimize, no cache involved (the seed baseline).
//   PlanCold    — the cache's miss path: canonicalize, fail the lookup,
//                 search, publish. Its delta over PlanNoCache is the
//                 cache's overhead on never-repeated queries.
//   PlanWarm    — the hit path: canonicalize, lookup, rebind to the query's
//                 numbering, re-run Optimize. The warm/cold ratio is the
//                 headline: repeated templates should plan >= 10x faster.
//
// EndToEnd* rows run the full pipeline (plan + execute) with the cache on,
// reporting the plan-cache metrics deltas so the hit/miss counters are
// visible in the emitted JSON. tools/compare_bench.py --pair gates
// PlanCold/PlanWarm (min speedup) and PlanNoCache/PlanCold (max overhead)
// from one result file in CI.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cache/decomp_cache.h"
#include "cq/hypergraph_builder.h"
#include "decomp/optimize.h"
#include "decomp/qhd.h"
#include "stats/estimator.h"
#include "util/check.h"
#include "util/strings.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace htqo {
namespace bench {
namespace {

constexpr std::size_t kMaxWidth = 4;

// One resolved planning problem: everything HybridOptimizer's q-HD path
// derives from the SQL before the width ladder starts.
struct PlanProblem {
  Catalog catalog;
  StatisticsRegistry stats;
  ResolvedQuery rq;
  Hypergraph h{0};
  Bitset out_vars;
  std::vector<std::string> edge_labels;
};

enum class Workload { kTpchQ5, kTpchQ8, kChain8 };

std::unique_ptr<PlanProblem> MakeProblem(Workload workload) {
  auto p = std::make_unique<PlanProblem>();  // Catalog is pinned in place
  std::string sql;
  switch (workload) {
    case Workload::kTpchQ5:
      PopulateTpch(TpchConfig{0.002, 42}, &p->catalog);
      sql = TpchQ5();
      break;
    case Workload::kTpchQ8:
      PopulateTpch(TpchConfig{0.002, 42}, &p->catalog);
      sql = TpchQ8();
      break;
    case Workload::kChain8:
      PopulateSyntheticCatalog(SyntheticConfig{60, 50, 8, 7}, &p->catalog);
      sql = ChainQuerySql(8);
      break;
  }
  p->stats.AnalyzeAll(p->catalog);
  HybridOptimizer optimizer(&p->catalog, &p->stats);
  auto rq = optimizer.Resolve(sql, TidMode::kNone);
  HTQO_CHECK(rq.ok());
  p->rq = std::move(rq.value());
  p->h = BuildHypergraph(p->rq.cq);
  p->out_vars = OutputVarsBitset(p->rq.cq);
  for (const Atom& atom : p->rq.cq.atoms) {
    p->edge_labels.push_back(ToLower(atom.relation));
  }
  return p;
}

// The uncached search, exactly as HybridOptimizer::RunResolved issues it.
Result<QhdResult> Search(const PlanProblem& p, bool run_optimize) {
  Estimator estimator(&p.stats);
  StatsDecompositionCostModel model(p.h, BuildEdgeStats(p.rq.cq, estimator));
  QhdOptions opt;
  opt.max_width = kMaxWidth;
  opt.run_optimize = run_optimize;
  return QHypertreeDecomp(p.h, p.out_vars, model, opt);
}

// The cached path: CachedQHypertreeDecomp + the per-run Optimize pass.
Result<QhdResult> CachedPlan(const PlanProblem& p,
                             PlanCacheOutcome* outcome) {
  auto decomp = CachedQHypertreeDecomp(
      p.h, p.out_vars, p.edge_labels, &p.stats, kMaxWidth,
      /*use_statistics=*/true,
      /*governor=*/nullptr, /*tracer=*/nullptr,
      [&] { return Search(p, /*run_optimize=*/false); }, outcome);
  if (decomp.ok()) {
    decomp->pruned = OptimizeDecomposition(p.h, &decomp->hd, nullptr);
  }
  return decomp;
}

void PlanNoCache(benchmark::State& state) {
  auto pp = MakeProblem(static_cast<Workload>(state.range(0)));
  const PlanProblem& p = *pp;
  std::size_t width = 0;
  for (auto _ : state) {
    auto decomp = Search(p, /*run_optimize=*/true);
    HTQO_CHECK(decomp.ok());
    width = decomp->width;
    benchmark::DoNotOptimize(decomp);
  }
  state.counters["width"] = static_cast<double>(width);
}

void PlanCold(benchmark::State& state) {
  auto pp = MakeProblem(static_cast<Workload>(state.range(0)));
  const PlanProblem& p = *pp;
  std::size_t width = 0;
  for (auto _ : state) {
    // Dropping the entry each iteration keeps every lookup a miss; the
    // Clear itself is a few mutex grabs, noise next to the search.
    DecompCache::Global().Clear();
    PlanCacheOutcome outcome;
    auto decomp = CachedPlan(p, &outcome);
    HTQO_CHECK(decomp.ok());
    HTQO_CHECK(!outcome.hit);
    width = decomp->width;
    benchmark::DoNotOptimize(decomp);
  }
  state.counters["width"] = static_cast<double>(width);
}

void PlanWarm(benchmark::State& state) {
  auto pp = MakeProblem(static_cast<Workload>(state.range(0)));
  const PlanProblem& p = *pp;
  {
    DecompCache::Global().Clear();
    PlanCacheOutcome outcome;
    HTQO_CHECK(CachedPlan(p, &outcome).ok());  // prime
  }
  std::size_t width = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    PlanCacheOutcome outcome;
    auto decomp = CachedPlan(p, &outcome);
    HTQO_CHECK(decomp.ok());
    HTQO_CHECK(outcome.hit);
    hits++;
    width = decomp->width;
    benchmark::DoNotOptimize(decomp);
  }
  state.counters["width"] = static_cast<double>(width);
  state.counters["hits"] = static_cast<double>(hits);
}

// Full pipeline with the cache on: the second-and-later iterations plan
// from the cache, so the emitted m_htqo_plan_cache_* counters show the
// hit/miss split and plan_wall_ms averages toward the warm cost.
void EndToEndCached(benchmark::State& state) {
  Catalog catalog;
  PopulateTpch(TpchConfig{0.002, 42}, &catalog);
  StatisticsRegistry stats;
  stats.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &stats);
  const std::string sql = state.range(0) == 0 ? TpchQ5() : TpchQ8();
  DecompCache::Global().Clear();
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  double plan_ms = 0;
  std::size_t out_rows = 0;
  for (auto _ : state) {
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.use_plan_cache = true;
    options.work_budget = kWorkBudget;
    options.row_budget = kRowBudget;
    auto run = optimizer.Run(sql, options);
    HTQO_CHECK(run.ok());
    plan_ms = run->plan_seconds * 1e3;
    out_rows = run->output.NumRows();
    benchmark::DoNotOptimize(run);
  }
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  for (const auto& [name, value] : delta.counters) {
    if (value > 0) state.counters["m_" + name] = static_cast<double>(value);
  }
  state.counters["out"] = static_cast<double>(out_rows);
  state.counters["plan_wall_ms"] = plan_ms;
}

BENCHMARK(PlanNoCache)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(PlanCold)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(PlanWarm)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(EndToEndCached)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace htqo

BENCHMARK_MAIN();
