// Fig. 10: impact of Procedure Optimize. Chain queries over the Fig. 9
// dataset (cardinality 450, selectivity 60), evaluated over the *same*
// q-hypertree decomposition with and without the Optimize pruning of
// Fig. 4.
//
// The decompositions come from the first-feasible det-k-decomp search
// (width <= 2): its normal-form trees carry the cycle-closing atom down the
// whole tree as a bounding copy at every level — exactly the HD1 of Fig. 3.
// Procedure Optimize prunes those copies (yielding HD1'-style trees), and
// this bench measures the saved scans and joins. The min-cost search of
// cost-k-decomp produces guard-free trees directly, which is why the
// headline benches need no Optimize ablation of their own.
//
// Benchmark arg: num_atoms. Counters: `pruned` = lambda entries removed.

#include <benchmark/benchmark.h>

#include <string>

#include "api/hybrid_optimizer.h"
#include "bench_common.h"
#include "cq/hypergraph_builder.h"
#include "decomp/qhd.h"
#include "exec/executor.h"
#include "opt/bag_program.h"
#include "stats/statistics.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace bench {
namespace {

struct Env {
  Catalog catalog;
  StatisticsRegistry registry;
};

Env& GetEnv() {
  static Env* env = [] {
    auto* e = new Env();
    SyntheticConfig config;
    config.cardinality = 450;
    config.selectivity = 60;
    config.num_relations = 10;
    config.seed = 20070415;
    PopulateSyntheticCatalog(config, &e->catalog);
    e->registry.AnalyzeAll(e->catalog);
    return e;
  }();
  return *env;
}

void Run(benchmark::State& state, bool run_optimize) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Env& env = GetEnv();
  HybridOptimizer optimizer(&env.catalog, &env.registry);
  auto rq = optimizer.Resolve(ChainQuerySql(n), TidMode::kNone);
  HTQO_CHECK(rq.ok());

  Hypergraph h = BuildHypergraph(rq->cq);
  Bitset out = OutputVarsBitset(rq->cq);
  StructuralCostModel model;  // ignored by the first-feasible search
  QhdOptions options;
  options.max_width = 2;
  options.run_optimize = run_optimize;
  options.first_feasible = true;
  auto qhd = QHypertreeDecomp(h, out, model, options);
  HTQO_CHECK(qhd.ok());

  const BagProgram program = QhdProgram(*rq, qhd->hd);
  ExecContext ctx;
  ctx.work_budget = kWorkBudget;
  ctx.row_budget = kRowBudget;
  bool dnf = false;
  std::size_t out_rows = 0;
  for (auto _ : state) {
    ctx.rows_charged = 0;
    ctx.work_charged = 0;
    auto answer = RunBagProgram(program, *rq, env.catalog, &ctx);
    if (!answer.ok()) {
      HTQO_CHECK(answer.status().code() == StatusCode::kResourceExhausted);
      dnf = true;
      continue;
    }
    auto result = EvaluateSelectOutput(*rq, *answer, &ctx);
    HTQO_CHECK(result.ok());
    out_rows = result->NumRows();
  }
  state.counters["work"] = static_cast<double>(ctx.work_charged);
  state.counters["rows"] = static_cast<double>(ctx.rows_charged);
  state.counters["out"] = static_cast<double>(out_rows);
  state.counters["dnf"] = dnf ? 1 : 0;
  state.counters["width"] = static_cast<double>(qhd->width);
  state.counters["pruned"] = static_cast<double>(qhd->pruned);
}

void Fig10_Chain_QHD_WithOptimize(benchmark::State& state) {
  Run(state, /*run_optimize=*/true);
}
void Fig10_Chain_QHD_NoOptimize(benchmark::State& state) {
  Run(state, /*run_optimize=*/false);
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int n = 2; n <= 10; ++n) b->Arg(n);
  b->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(Fig10_Chain_QHD_WithOptimize)->Apply(Sweep);
BENCHMARK(Fig10_Chain_QHD_NoOptimize)->Apply(Sweep);

}  // namespace
}  // namespace bench
}  // namespace htqo

BENCHMARK_MAIN();
