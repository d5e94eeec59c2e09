// The public entry point: the hybrid optimizer of Section 5 (Fig. 5/6).
//
// A HybridOptimizer wraps a database (Catalog + optional statistics) and
// runs SQL through the full pipeline — parse, isolate CQ(Q), decompose /
// plan, execute, evaluate aggregates — under one of several optimizer modes
// that reproduce the comparison axes of Section 6:
//
//   kQhdHybrid       q-HD with the statistics cost model; the tight
//                    PostgreSQL coupling ("PostgreSQL + q-HD").
//   kQhdStructural   q-HD with the structural cost model; the stand-alone
//                    regime when statistics are unavailable ("q-HD").
//   kQhdNoOptimize   kQhdHybrid without Procedure Optimize (Fig. 10).
//   kDpStatistics    bushy DP join ordering on exact statistics, hash
//                    joins ("CommDB" with its standard optimizer).
//   kNaive           FROM-order nested-loop evaluation ("CommDB without
//                    its standard optimizer" / statistics disabled).
//   kGeqoDefaults    GEQO left-deep search on default estimates with the
//                    nested-loop misestimation pathology ("PostgreSQL"
//                    basic, no ANALYZE).
//   kYannakakis      the classical three-pass semijoin algorithm (Section
//                    3.2, ref [12]); acyclic queries only (falls back to DP
//                    on cyclic inputs when fallback_to_dp is set).
//   kClassicHd       the classic decomposition pipeline S2'+S2'': cost-k-
//                    decomp *without* the out(Q) rooting, then Yannakakis
//                    over the vertex relations — what the literature
//                    offered before q-hypertree decompositions.

#ifndef HTQO_API_HYBRID_OPTIMIZER_H_
#define HTQO_API_HYBRID_OPTIMIZER_H_

#include <atomic>
#include <string>
#include <string_view>

#include "cq/isolator.h"
#include "exec/operators.h"
#include "exec/shard.h"
#include "obs/trace.h"
#include "decomp/qhd.h"
#include "rewrite/view_rewriter.h"
#include "stats/statistics.h"
#include "storage/catalog.h"
#include "util/governor.h"
#include "util/status.h"

namespace htqo {

enum class OptimizerMode {
  kQhdHybrid,
  kQhdStructural,
  kQhdNoOptimize,
  kDpStatistics,
  kNaive,
  kGeqoDefaults,
  kYannakakis,
  kClassicHd,
  // Tree-decomposition method (related work [9,7,1]): min-fill tree
  // decomposition of the primal graph, converted to a generalized hypertree
  // decomposition and evaluated with the classic three-pass pipeline.
  kTreeDecomposition,
};

std::string OptimizerModeName(OptimizerMode mode);

struct RunOptions {
  OptimizerMode mode = OptimizerMode::kQhdHybrid;
  std::size_t max_width = 4;  // the constant k of Fig. 4
  TidMode tid_mode = TidMode::kAggregatesOnly;
  std::size_t row_budget = std::numeric_limits<std::size_t>::max();
  std::size_t work_budget = std::numeric_limits<std::size_t>::max();
  uint64_t seed = 1;  // GEQO determinism
  // On q-HD "Failure" (no width-<=k rooted decomposition), fall back to the
  // DP plan instead of erroring — the hybrid behaviour.
  bool fallback_to_dp = true;

  // --- Query-governor limits. The paper's hostile instances "do not
  // terminate after 10 minutes"; these make the pipeline *return* instead.
  // Wall-clock deadline over the whole pipeline (every degradation-ladder
  // attempt shares it); <= 0 disables.
  double deadline_seconds = 0;
  // Deterministic search-node budget, granted afresh to each optimization
  // attempt (reproducible across machines — tests should prefer this over
  // the deadline).
  std::size_t search_node_budget = std::numeric_limits<std::size_t>::max();
  // Live-memory budget. It counts what is charged to the governor: the
  // decomposition searches' memo tables and the operators' working sets
  // (ScopedTableMemory: hash-join/semijoin builds, distinct and
  // aggregation tables, loaded spill partitions). Materialized
  // intermediate relations only reach the NotePeakMemory high-water mark
  // and never trip it; row_budget bounds them. DESIGN.md §6a/§6c.
  std::size_t memory_budget_bytes = std::numeric_limits<std::size_t>::max();
  // When a governor limit trips, walk the degradation ladder — q-HD at
  // width k → k-1 → … → 1 → DP plan → GEQO plan — instead of failing with
  // kDeadlineExceeded. Each step is recorded in QueryRun::degradations.
  bool degrade_on_budget = true;
  // External cooperative-cancel flag polled by every governor checkpoint in
  // the run (ResourceGovernor::Options::cancel_flag). Setting the pointee
  // from any thread — a SIGINT handler, the query server's drain path —
  // makes the in-flight query return kDeadlineExceeded at its next
  // checkpoint. The pointee must outlive the Run call; nullptr disables.
  const std::atomic<bool>* cancel_flag = nullptr;

  // --- Memory-adaptive execution (spilling). With enable_spill set and a
  // finite memory_budget_bytes, an operator whose working set would push
  // live charged memory past soft_memory_fraction * memory_budget_bytes
  // switches to the Grace-partitioned spill path (byte-identical output,
  // recorded in QueryRun::degradations) instead of materializing in memory
  // and hard-tripping the budget. Spilling's own hard kill is
  // spill_disk_budget_bytes.
  bool enable_spill = false;
  double soft_memory_fraction = 0.5;  // clamped to (0, 1]
  std::string spill_dir;              // empty = the system temp directory
  std::size_t spill_disk_budget_bytes =
      std::numeric_limits<std::size_t>::max();

  // Worker lanes for the parallel execution engine and decomposition
  // search. 1 (the default) is the exact serial engine; N > 1 fans the
  // partitioned join/semijoin kernels, the Yannakakis/q-HD tree waves, and
  // the cost-k-decomp root candidates out over a process-wide thread pool.
  // Results and chosen decompositions are bit-identical at any setting.
  std::size_t num_threads = 1;

  // --- Sharded evaluation (off by default). With num_shards >= 1, the
  // Yannakakis/q-HD reduction passes run as a hash-partitioned semijoin
  // program: each forest node's relation splits into num_shards pieces on
  // its parent-link join columns (small or keyless relations broadcast via
  // replicate-small), and the up/down passes ship blocked Bloom filters —
  // or exact key sets under ShardOptions::exact_key_threshold (default
  // 4096) — between pieces instead of rows (exec/shard.h, DESIGN.md §6j).
  // Final output is byte-identical to the unsharded engine for the
  // forest-reduction modes and identical across any S and thread count for
  // all supported modes; RunResolved grows the shared pool by num_threads x
  // num_shards so shard fan-out gets real lanes. num_shards = 1 runs the
  // full sharded path with one piece (the scale-out baseline); 0 keeps
  // sharding entirely off. Plan-only modes (DP/GEQO/Naive) and replan-armed
  // runs ignore it.
  std::size_t num_shards = 0;
  std::size_t shard_replicate_threshold = 64;

  // --- Plan caching (opt-in). With use_plan_cache set, every q-HD width
  // attempt consults the process-wide DecompCache before searching: the
  // query's hypergraph is canonicalized (cache.lookup span), and a fresh
  // entry is rebound to this query's numbering (cache.rebind span) with
  // only Procedure Optimize re-run — skipping the decomposition search and
  // the stats lookup entirely on hits. Entries invalidate on statistics
  // epochs (StatsEpochRegistry) and concurrent misses on one fingerprint
  // compute once. Results are byte-identical to the uncached path at any
  // thread count. Off by default so single-shot library users and the
  // search-path tests/benches measure the real search. DESIGN.md §6e.
  bool use_plan_cache = false;

  // --- Adaptive mid-query re-planning (opt-in; q-HD modes only). With
  // enable_replan set, the q-HD evaluator compares every decomposition
  // node's actual cardinality against the cost model's estimate at each
  // wave barrier. When an intermediate exceeds its estimate by
  // replan_blowup_factor (and is at least replan_min_rows tall), the
  // completed node results are checkpointed, the decomposition search is
  // re-entered with the observed scan cardinalities pinned, and evaluation
  // resumes, reusing checkpoints whose subtree matches. Each replan records
  // a kReplan degradation entry and htqo_replans_total. The final answer is
  // canonically sorted whenever replan is armed, so a replanned query is
  // byte-identical to its never-replanned twin at any thread count.
  // DESIGN.md §6h.
  bool enable_replan = false;
  double replan_blowup_factor = 4.0;
  std::size_t replan_min_rows = 1024;
  std::size_t max_replans = 1;

  // --- Tracing (off by default: a null tracer costs one branch per
  // instrumentation point). With a tracer set, the pipeline emits one span
  // per stage — parse, isolation, stats lookup, each search width attempt,
  // Optimize, each Yannakakis pass/wave, each physical operator — under
  // trace.parent, and QueryRun::plan_details gains per-node actuals
  // (EXPLAIN ANALYZE). Span taxonomy: DESIGN.md §6d.
  TraceContext trace;
};

struct QueryRun {
  Relation output;           // final SELECT result
  ExecContext ctx;           // rows/work metering
  double parse_seconds = 0;  // SQL parse time (0 on pre-parsed entry points)
  double plan_seconds = 0;   // optimization time (decomposition or search)
  double exec_seconds = 0;   // evaluation time
  std::string plan_description;
  // Multi-line plan rendering (the decomposition tree for q-HD modes, the
  // join tree for plan modes); for EXPLAIN-style output. With tracing on,
  // nodes carry actuals: [rows=N time=T.TTTms ...].
  std::string plan_details;
  // q-HD modes only:
  std::size_t decomposition_width = 0;
  std::size_t pruned_lambda_entries = 0;
  // Why the produced plan differs from the requested mode: one entry per
  // degradation-ladder step taken, in order (empty when the requested mode
  // ran to completion). Benchmarks report these instead of silent failure.
  std::vector<std::string> degradations;
  // Aggregated governor observations across every attempt (search nodes,
  // peak memory, deadline/budget trips).
  GovernorStats governor;
  // Plan-cache outcome of the decomposition phase: "" when caching was off
  // (or a non-q-HD mode ran); otherwise "hit", "shared-hit" (waited on
  // another thread's in-flight compute), "miss", or "stale-miss" (an entry
  // existed but its statistics epochs were out of date).
  std::string plan_cache;
  // Spill-to-disk activity of the run (zeros when spilling never armed or
  // never activated). A run that spilled also records a degradation entry.
  SpillCounters spill;
  // Mid-query replans taken (enable_replan only). Each one also appends a
  // kReplan degradation entry and bumps governor.replan_trips.
  std::size_t replans = 0;
  // Sharded-evaluation activity (zeros when num_shards == 0): partition/
  // replicate counts, exchange message volume vs. the row-shipping
  // baseline, rows pruned by exchange probes, and piece-size skew.
  ShardStats shard;

  // Whether the produced plan differs from what the requested mode would
  // have produced unconstrained. Derived — `degradations` is the single
  // source of truth; every ladder step, mode fallback, and spill activation
  // appends exactly one entry there.
  bool used_fallback() const { return !degradations.empty(); }
};

class HybridOptimizer {
 public:
  // `stats` may be nullptr (no statistics gathered). Both pointees must
  // outlive the optimizer.
  HybridOptimizer(const Catalog* catalog, const StatisticsRegistry* stats)
      : catalog_(catalog), stats_(stats) {}

  // Parse + isolate only.
  Result<ResolvedQuery> Resolve(std::string_view sql,
                                TidMode tid_mode = TidMode::kAggregatesOnly)
      const;

  // Full pipeline on a SQL string. Nested queries (derived tables in FROM)
  // are supported: each subquery is recursively evaluated — under
  // TidMode::kAllAtoms, so bag semantics survive the materialization — and
  // registered as a scratch relation before the outer query runs.
  Result<QueryRun> Run(std::string_view sql, const RunOptions& options) const;

  // As Run, on an already parsed statement.
  Result<QueryRun> RunStatement(const SelectStatement& stmt,
                                const RunOptions& options) const;

  // Full pipeline on an already resolved query (lets benchmarks exclude
  // parse time and reuse isolations).
  Result<QueryRun> RunResolved(const ResolvedQuery& rq,
                               const RunOptions& options) const;

  // Stand-alone mode output: the query rewritten as SQL views following its
  // q-hypertree decomposition (requires a TidMode::kNone isolation).
  Result<RewrittenQuery> RewriteQuery(std::string_view sql,
                                      const RunOptions& options) const;

  const Catalog& catalog() const { return *catalog_; }
  const StatisticsRegistry* stats() const { return stats_; }

 private:
  const Catalog* catalog_;
  const StatisticsRegistry* stats_;
};

// Executes a RewrittenQuery by materializing every view bottom-up in an
// overlay catalog over `base` (base relations are read through, never
// copied) and running the final statement — the "evaluated on top of any
// DBMS" path, using our own engine as that DBMS. Used by tests and examples
// to validate rewritings.
Result<Relation> ExecuteRewrittenQuery(const RewrittenQuery& rewritten,
                                       const Catalog& base,
                                       ExecContext* ctx);

}  // namespace htqo

#endif  // HTQO_API_HYBRID_OPTIMIZER_H_
