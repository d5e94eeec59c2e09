// Physical-operator microbenchmarks: scan, hash and nested-loop joins,
// semijoin and DISTINCT, across input sizes and join fan-outs. Not a paper
// figure — engine-level baselines that make the figure benches interpretable
// (work-unit-to-wall-clock calibration).
//
// Benchmark arg: rows per input.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cq/isolator.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "sql/parser.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/synthetic.h"

namespace htqo {
namespace bench {
namespace {

// Pair of joinable relations r(a,b), s(b,c) with ~3x fan-out on b.
std::pair<Relation, Relation> MakeInputs(std::size_t rows) {
  Relation left = MakeSyntheticRelation(rows, {"a", "b"}, 30, 1);
  Relation right = MakeSyntheticRelation(rows, {"b", "c"}, 30, 2);
  return {std::move(left), std::move(right)};
}

void HashJoin(benchmark::State& state) {
  auto [left, right] = MakeInputs(static_cast<std::size_t>(state.range(0)));
  std::size_t out_rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    auto out = NaturalHashJoin(left, right, &ctx);
    HTQO_CHECK(out.ok());
    out_rows = out->NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

void NestedLoopJoin(benchmark::State& state) {
  auto [left, right] = MakeInputs(static_cast<std::size_t>(state.range(0)));
  std::size_t out_rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    auto out = NaturalNestedLoopJoin(left, right, &ctx);
    HTQO_CHECK(out.ok());
    out_rows = out->NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

void SemiJoin(benchmark::State& state) {
  auto [left, right] = MakeInputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ExecContext ctx;
    auto out = NaturalSemiJoin(left, right, &ctx);
    HTQO_CHECK(out.ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

void DistinctOp(benchmark::State& state) {
  Relation rel = MakeSyntheticRelation(
      static_cast<std::size_t>(state.range(0)), {"a", "b"}, 20, 3);
  for (auto _ : state) {
    ExecContext ctx;
    auto out = SpillableDistinct(rel, &ctx);
    HTQO_CHECK(out.ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

// The key extraction + hashing pass the join kernels run once per side
// before building and probing (BuildKeyBlock): its isolated cost shows how
// much of a join is pure hashing.
void KeyHashPrecompute(benchmark::State& state) {
  Relation rel = MakeSyntheticRelation(
      static_cast<std::size_t>(state.range(0)), {"a", "b"}, 30, 1);
  const std::vector<std::size_t> cols = {1};
  for (auto _ : state) {
    KeyBlock keys = BuildKeyBlock(rel, cols);
    benchmark::DoNotOptimize(keys.hashes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

// Partitioned kernels under the worker pool. Args: (rows, threads); at one
// thread this is exactly the serial kernel, so the pair of rows is the
// serial-vs-parallel comparison the acceptance criteria reference.
void HashJoinParallel(benchmark::State& state) {
  auto [left, right] = MakeInputs(static_cast<std::size_t>(state.range(0)));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  ThreadPool* pool = ThreadPool::Shared(threads);
  std::size_t out_rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.pool = pool;
    ctx.num_threads = threads;
    auto out = NaturalHashJoin(left, right, &ctx);
    HTQO_CHECK(out.ok());
    out_rows = out->NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out"] = static_cast<double>(out_rows);
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

void SemiJoinParallel(benchmark::State& state) {
  auto [left, right] = MakeInputs(static_cast<std::size_t>(state.range(0)));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  ThreadPool* pool = ThreadPool::Shared(threads);
  for (auto _ : state) {
    ExecContext ctx;
    ctx.pool = pool;
    ctx.num_threads = threads;
    auto out = NaturalSemiJoin(left, right, &ctx);
    HTQO_CHECK(out.ok());
    benchmark::DoNotOptimize(out);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

// The Grace driver's merge step: each spilled partition's kernel emits one
// run of rows tagged with their input row index, ascending within the run;
// internal::MergeRuns k-way merges the runs back into serial emission order
// in O(n log runs). The *StableSort twin is the O(n log n) comparison sort
// the merge replaced, kept inline here as the baseline. Tags are a dense
// permutation dealt round-robin onto `runs` runs, each then ascending.
TaggedRuns MakeRuns(std::size_t rows, std::size_t runs) {
  Relation rel = MakeSyntheticRelation(rows, {"a", "b"}, 30, 5);
  TaggedRuns out{Relation{rel.schema()}, {}, {}};
  for (std::size_t r = 0; r < runs; ++r) {
    for (std::size_t i = r; i < rel.NumRows(); i += runs) {
      out.rows.AddRow(rel.Row(i));
      out.tags.push_back(i);
    }
    out.ends.push_back(out.rows.NumRows());
  }
  return out;
}

void MergeRuns(benchmark::State& state) {
  const TaggedRuns runs = MakeRuns(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    ExecContext ctx;
    Relation out(runs.rows.schema());
    Status s = internal::MergeRuns(runs, &out, &ctx);
    HTQO_CHECK(s.ok());
    benchmark::DoNotOptimize(out);
  }
  state.counters["runs"] = static_cast<double>(state.range(1));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

void MergeRunsStableSort(benchmark::State& state) {
  const TaggedRuns runs = MakeRuns(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  const std::vector<uint64_t>& tags = runs.tags;
  for (auto _ : state) {
    Relation out(runs.rows.schema());
    HTQO_CHECK(out.TryReserve(runs.rows.NumRows()).ok());
    std::vector<std::size_t> order(tags.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tags[a] < tags[b];
                     });
    for (std::size_t idx : order) out.AddRow(runs.rows.Row(idx));
    benchmark::DoNotOptimize(out);
  }
  state.counters["runs"] = static_cast<double>(state.range(1));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

// Scan with a constant filter and a column-vs-column comparison.
void ScanFilter(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  Catalog catalog;
  catalog.Put("r1", MakeSyntheticRelation(rows, {"a", "b"}, 30, 7));
  // ~half the domain passes the constant filter; the variable comparison
  // then exercises the column-vs-column compare kernel.
  const std::size_t domain = std::max<std::size_t>(1, rows * 30 / 100);
  auto stmt = ParseSelect("SELECT DISTINCT r1.a FROM r1 WHERE r1.a < " +
                          std::to_string(domain / 2) + " AND r1.a <= r1.b");
  HTQO_CHECK(stmt.ok());
  auto rq =
      IsolateConjunctiveQuery(*stmt, catalog, IsolatorOptions{TidMode::kNone});
  HTQO_CHECK(rq.ok());
  std::size_t out_rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    auto out = ScanAtom(*rq, 0, catalog, &ctx);
    HTQO_CHECK(out.ok());
    out_rows = out->NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

// The engine's DISTINCT (the batch dedup kernel), next to DistinctOp's
// Relation::Distinct.
void SpillableDistinctOp(benchmark::State& state) {
  Relation rel = MakeSyntheticRelation(
      static_cast<std::size_t>(state.range(0)), {"a", "b"}, 20, 3);
  for (auto _ : state) {
    ExecContext ctx;
    auto out = SpillableDistinct(rel, &ctx);
    HTQO_CHECK(out.ok());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}

BENCHMARK(HashJoin)->RangeMultiplier(4)->Range(256, 65536);
BENCHMARK(ScanFilter)->RangeMultiplier(4)->Range(4096, 65536);
BENCHMARK(KeyHashPrecompute)->RangeMultiplier(4)->Range(256, 65536);
BENCHMARK(HashJoinParallel)
    ->ArgsProduct({{16384, 65536}, {1, 2, 4, 8}});
BENCHMARK(SemiJoinParallel)
    ->ArgsProduct({{16384, 65536}, {1, 2, 4, 8}});
BENCHMARK(NestedLoopJoin)->RangeMultiplier(4)->Range(256, 4096);
BENCHMARK(SemiJoin)->RangeMultiplier(4)->Range(256, 65536);
BENCHMARK(DistinctOp)->RangeMultiplier(4)->Range(256, 65536);
BENCHMARK(SpillableDistinctOp)->RangeMultiplier(4)->Range(256, 65536);
BENCHMARK(MergeRuns)->ArgsProduct({{16384, 65536, 262144}, {1, 8, 64}});
BENCHMARK(MergeRunsStableSort)
    ->ArgsProduct({{16384, 65536, 262144}, {1, 8, 64}});

}  // namespace
}  // namespace bench
}  // namespace htqo

BENCHMARK_MAIN();
