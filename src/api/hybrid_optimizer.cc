#include "api/hybrid_optimizer.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "cache/decomp_cache.h"
#include "cq/hypergraph_builder.h"
#include "decomp/optimize.h"
#include "exec/adaptive.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "hypergraph/join_tree.h"
#include "obs/metrics.h"
#include "util/strings.h"
#include "opt/dp_optimizer.h"
#include "opt/bag_program.h"
#include "opt/geqo_optimizer.h"
#include "opt/naive_optimizer.h"
#include "decomp/tree_decomposition.h"
#include "sql/parser.h"
#include "util/thread_pool.h"

namespace htqo {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Folds a subquery run's meters into an accumulator (scalar, IN and
// derived-table paths of RunStatement all need the same bookkeeping).
void MergeSubRun(const QueryRun& sub, QueryRun* into) {
  into->ctx.rows_charged =
      SaturatingAdd(into->ctx.rows_charged, sub.ctx.rows_charged);
  into->ctx.work_charged =
      SaturatingAdd(into->ctx.work_charged, sub.ctx.work_charged);
  into->ctx.hash_probes =
      SaturatingAdd(into->ctx.hash_probes, sub.ctx.hash_probes);
  into->ctx.bloom_skips =
      SaturatingAdd(into->ctx.bloom_skips, sub.ctx.bloom_skips);
  into->ctx.batches = SaturatingAdd(into->ctx.batches, sub.ctx.batches);
  into->ctx.NotePeak(sub.ctx.peak_rows);
  into->plan_seconds += sub.plan_seconds;
  into->exec_seconds += sub.exec_seconds;
  into->governor.Merge(sub.governor);
  into->spill.Merge(sub.spill);
  into->shard.Merge(sub.shard);
  into->degradations.insert(into->degradations.end(),
                            sub.degradations.begin(),
                            sub.degradations.end());
}

// Opens the root "query" span when this call is the outermost traced entry
// on the calling thread. Run/RunStatement/RunResolved are all public, so
// whichever one the caller used becomes the root; deeper frames (and
// recursive subquery runs) nest under it via the thread-local span stack.
void BeginQueryRoot(std::optional<ScopedSpan>* root, const RunOptions& options,
                    OptimizerMode mode) {
  Tracer* tracer = options.trace.tracer;
  if (tracer == nullptr || Tracer::CurrentParent(tracer) != 0) return;
  root->emplace(tracer, "query", options.trace.parent);
  (*root)->Attr("mode", OptimizerModeName(mode));
  (*root)->Attr("threads", options.num_threads);
}

// EXPLAIN ANALYZE: rewrites the decomposition rendering with per-node
// actuals mined from the qhd.node spans the evaluator emitted — rows
// produced, wall time, worker thread — plus the batches and spill
// partitions of the operator spans beneath each node.
void AnnotatePlanDetails(const Tracer* tracer, const Hypergraph& h,
                         const Hypertree& hd, QueryRun* run) {
  if (tracer == nullptr) return;
  const std::vector<Span> spans = tracer->Snapshot();
  struct NodeActuals {
    double ms = 0;
    uint64_t rows = 0;
    uint64_t thread = 0;
    std::size_t spill_partitions = 0;
    uint64_t batches = 0;
  };
  std::map<std::size_t, NodeActuals> actuals;
  // Span ids are 1-based indexes in begin order, so every parent precedes
  // its children: one forward pass finds each span's nearest qhd.node.
  constexpr std::size_t kNone = HypertreeNode::kNoParent;
  std::vector<std::size_t> node_of(spans.size() + 1, kNone);
  for (const Span& span : spans) {
    const std::size_t owner =
        span.parent < node_of.size() ? node_of[span.parent] : kNone;
    node_of[span.id] = owner;
    if (span.name == "qhd.node") {
      std::size_t node = kNone;
      uint64_t rows = 0;
      for (const SpanAttr& attr : span.attrs) {
        if (attr.key == "node") node = std::stoull(attr.value);
        if (attr.key == "rows") rows = std::stoull(attr.value);
      }
      if (node == kNone) continue;
      node_of[span.id] = node;
      NodeActuals& na = actuals[node];
      na.ms = static_cast<double>(std::max<int64_t>(0, span.duration_ns)) / 1e6;
      na.rows = rows;
      na.thread = span.thread;
    } else if (owner != kNone && span.name == "spill.partition") {
      ++actuals[owner].spill_partitions;
    } else if (owner != kNone && span.name.rfind("op.", 0) == 0) {
      // Vectorized operator spans carry a "batches" attr.
      for (const SpanAttr& attr : span.attrs) {
        if (attr.key == "batches") {
          actuals[owner].batches += std::stoull(attr.value);
        }
      }
    }
  }
  if (actuals.empty()) return;
  run->plan_details = hd.ToString(h, [&](std::size_t p) -> std::string {
    auto it = actuals.find(p);
    if (it == actuals.end()) return std::string();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " [rows=%llu time=%.3fms thread=%llu",
                  static_cast<unsigned long long>(it->second.rows),
                  it->second.ms,
                  static_cast<unsigned long long>(it->second.thread));
    std::string annotation = buf;
    if (it->second.batches > 0) {
      annotation += " batches=" + std::to_string(it->second.batches);
    }
    if (it->second.spill_partitions > 0) {
      annotation +=
          " spill_partitions=" + std::to_string(it->second.spill_partitions);
    }
    annotation += "]";
    return annotation;
  });
}

}  // namespace

std::string OptimizerModeName(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kQhdHybrid:
      return "qhd-hybrid";
    case OptimizerMode::kQhdStructural:
      return "qhd-structural";
    case OptimizerMode::kQhdNoOptimize:
      return "qhd-no-optimize";
    case OptimizerMode::kDpStatistics:
      return "dp-statistics";
    case OptimizerMode::kNaive:
      return "naive";
    case OptimizerMode::kGeqoDefaults:
      return "geqo-defaults";
    case OptimizerMode::kYannakakis:
      return "yannakakis";
    case OptimizerMode::kClassicHd:
      return "classic-hd";
    case OptimizerMode::kTreeDecomposition:
      return "tree-decomposition";
  }
  return "?";
}

Result<ResolvedQuery> HybridOptimizer::Resolve(std::string_view sql,
                                               TidMode tid_mode) const {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) return stmt.status();
  IsolatorOptions options;
  options.tid_mode = tid_mode;
  return IsolateConjunctiveQuery(*stmt, *catalog_, options);
}

Result<QueryRun> HybridOptimizer::Run(std::string_view sql,
                                      const RunOptions& options) const {
  std::optional<ScopedSpan> root;
  BeginQueryRoot(&root, options, options.mode);
  std::optional<ScopedSpan> parse_span(std::in_place, options.trace.tracer,
                                       "parse");
  const auto parse_start = std::chrono::steady_clock::now();
  auto stmt = ParseSelect(sql);
  const double parse_seconds = SecondsSince(parse_start);
  parse_span.reset();
  if (!stmt.ok()) return stmt.status();
  auto run = RunStatement(*stmt, options);
  if (run.ok()) run->parse_seconds = parse_seconds;
  return run;
}

Result<QueryRun> HybridOptimizer::RunStatement(const SelectStatement& stmt,
                                               const RunOptions& options)
    const {
  std::optional<ScopedSpan> root;
  BeginQueryRoot(&root, options, options.mode);
  bool has_scalar = false;
  for (const Comparison& cmp : stmt.where) {
    has_scalar |= cmp.lhs.ContainsScalarSubquery() ||
                  cmp.rhs.ContainsScalarSubquery();
  }
  if (!has_scalar && !stmt.HasInSubqueries() && !stmt.HasDerivedTables()) {
    IsolatorOptions iso;
    iso.tid_mode = options.tid_mode;
    std::optional<ScopedSpan> isolate_span(std::in_place, options.trace.tracer,
                                           "isolate");
    auto rq = IsolateConjunctiveQuery(stmt, *catalog_, iso);
    if (rq.ok()) isolate_span->Attr("atoms", rq->cq.atoms.size());
    isolate_span.reset();
    if (!rq.ok()) return rq.status();
    return RunResolved(*rq, options);
  }

  // A nested statement is rewritten one level — its subqueries run first
  // and their meters accumulate — and the rewritten statement re-runs.
  SelectStatement rewritten = stmt.Clone();
  QueryRun accumulated;
  HybridOptimizer outer = *this;
  // Derived tables materialize into an overlay over the caller's database
  // (base relations and their statistics are read through, never copied).
  std::optional<Catalog> scratch;
  std::optional<StatisticsRegistry> scratch_stats;
  std::string suffix;
  if (has_scalar) {
    // Uncorrelated scalar subqueries in WHERE evaluate first and become
    // literals: x > (SELECT avg(y) FROM ...) compares against the computed
    // value. SQL semantics: more than one row is an error; zero rows
    // compare as unknown, i.e. the conjunct (and with it the whole WHERE)
    // is false.
    bool always_false = false;
    std::function<Status(Expr*)> replace = [&](Expr* e) -> Status {
      if (e->kind != ExprKind::kScalarSubquery) {
        Status s = e->lhs ? replace(e->lhs.get()) : Status::Ok();
        return s.ok() && e->rhs ? replace(e->rhs.get()) : s;
      }
      auto sub_run = RunStatement(*e->subquery, options);
      if (!sub_run.ok()) return sub_run.status();
      MergeSubRun(*sub_run, &accumulated);
      const Relation& out = sub_run->output;
      if (out.arity() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must select exactly one column");
      }
      if (out.NumRows() > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      always_false |= out.NumRows() == 0;
      *e = Expr::MakeLiteral(out.NumRows() == 0 ? Value::Int64(0)
                                                : out.At(0, 0));
      return Status::Ok();
    };
    for (Comparison& cmp : rewritten.where) {
      Status s = replace(&cmp.lhs);
      if (s.ok()) s = replace(&cmp.rhs);
      if (!s.ok()) return s;
    }
    if (always_false) {
      rewritten.where.clear();
      rewritten.where_in.clear();
      rewritten.where.emplace_back(Expr::MakeLiteral(Value::Int64(1)),
                                   CompareOp::kEq,
                                   Expr::MakeLiteral(Value::Int64(2)));
    }
  } else if (stmt.HasInSubqueries()) {
    // Uncorrelated IN-subqueries rewrite into a join with a DISTINCT
    // derived table: x IN (SELECT y FROM ...) ≡ JOIN (SELECT DISTINCT y
    // ...) s ON x = s.y — exact under bag semantics since the distinct
    // single column matches each outer row at most once. The rewritten
    // statement then goes through the derived-table materialization.
    std::vector<InCondition> remaining;
    std::size_t counter = 0;
    for (InCondition& cond : rewritten.where_in) {
      if (cond.subquery == nullptr) {
        remaining.push_back(std::move(cond));
        continue;
      }
      if (cond.subquery->items.size() != 1) {
        return Status::InvalidArgument(
            "IN subquery must select exactly one column");
      }
      if (cond.negated) {
        // NOT IN: a join rewrite would be wrong (anti-semijoin); instead
        // materialize the subquery's values into a negated membership
        // filter.
        auto sub_run = RunStatement(*cond.subquery, options);
        if (!sub_run.ok()) return sub_run.status();
        MergeSubRun(*sub_run, &accumulated);
        InCondition literal;
        literal.lhs = std::move(cond.lhs);
        literal.negated = true;
        literal.values.reserve(sub_run->output.NumRows());
        for (std::size_t r = 0; r < sub_run->output.NumRows(); ++r) {
          literal.values.push_back(sub_run->output.At(r, 0));
        }
        remaining.push_back(std::move(literal));
        continue;
      }
      // Wrap the subquery so its single output column gets a collision-free
      // name (outer unqualified references would otherwise become
      // ambiguous): SELECT DISTINCT w.<col> AS htqo_in_N FROM (<sub>) w.
      const SelectItem& item = cond.subquery->items[0];
      std::string inner_column = item.alias;
      if (inner_column.empty()) {
        inner_column = item.expr.kind == ExprKind::kColumnRef
                           ? item.expr.column
                           : "col0";
      }
      std::string unique = "htqo_in_" + std::to_string(counter);
      SelectStatement wrapper;
      wrapper.distinct = true;
      wrapper.items.emplace_back(Expr::MakeColumnRef("w", inner_column),
                                 unique);
      TableRef inner_ref;
      inner_ref.alias = "w";
      inner_ref.subquery = cond.subquery;
      wrapper.from.push_back(std::move(inner_ref));

      TableRef ref;
      ref.alias = "htqo_insub_" + std::to_string(counter);
      ref.subquery =
          std::make_shared<const SelectStatement>(std::move(wrapper));
      rewritten.from.push_back(ref);
      rewritten.where.emplace_back(std::move(cond.lhs), CompareOp::kEq,
                                   Expr::MakeColumnRef(ref.alias, unique));
      ++counter;
    }
    rewritten.where_in = std::move(remaining);
  } else {
    scratch.emplace(catalog_);
    scratch_stats.emplace(stats_);
    outer = HybridOptimizer(&*scratch, &*scratch_stats);
    std::size_t derived_count = 0;
    for (TableRef& table : rewritten.from) {
      if (!table.IsDerived()) continue;
      // Bag semantics must survive materialization: a non-DISTINCT subquery
      // feeding an outer aggregate contributes multiplicities.
      RunOptions sub_options = options;
      sub_options.tid_mode = TidMode::kAllAtoms;
      ScopedSpan subquery_span(options.trace.tracer, "subquery");
      subquery_span.Attr("alias", table.alias);
      auto sub_run = outer.RunStatement(*table.subquery, sub_options);
      if (!sub_run.ok()) return sub_run.status();

      std::string derived_name = "htqo_derived_" +
                                 std::to_string(derived_count++) + "_" +
                                 table.alias;
      scratch_stats->Put(derived_name, CollectStats(sub_run->output));
      scratch->Put(derived_name, std::move(sub_run->output));
      table.name = derived_name;
      table.subquery.reset();
      MergeSubRun(*sub_run, &accumulated);
    }
    suffix = " [+" + std::to_string(derived_count) + " materialized subquer" +
             (derived_count == 1 ? "y" : "ies") + "]";
  }

  auto run = outer.RunStatement(rewritten, options);
  if (!run.ok()) return run.status();
  MergeSubRun(accumulated, &run.value());
  run->plan_description += suffix;
  return run;
}

namespace {

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

// The query's cardinality estimate, under its own stats.lookup span.
CardinalityEstimate LookupEstimate(const ResolvedQuery& rq,
                                   const StatisticsRegistry* stats,
                                   Tracer* tracer) {
  ScopedSpan span(tracer, "stats.lookup");
  return BuildEdgeStats(rq.cq, Estimator(stats));
}

// Algorithm q-HypertreeDecomp (Fig. 4) under the statistics or the
// structural cost model.
Result<QhdResult> SearchQhd(const ResolvedQuery& rq, const Hypergraph& h,
                            const Bitset& out_vars,
                            const StatisticsRegistry* stats,
                            bool use_statistics, const QhdOptions& qopt) {
  if (!use_statistics) {
    StructuralCostModel model;
    return QHypertreeDecomp(h, out_vars, model, qopt);
  }
  StatsDecompositionCostModel model(h, LookupEstimate(rq, stats, qopt.tracer));
  return QHypertreeDecomp(h, out_vars, model, qopt);
}

// One step of the degradation ladder (DESIGN.md §6a).
struct Rung {
  enum class Kind {
    kEmptyAnswer, kQhd, kClassicHd, kTreeDecomposition, kJoinForest, kDp,
    kGeqo, kNaive
  };
  Kind kind;
  std::size_t width = 0;  // kQhd: this attempt's width bound
};
using RungKind = Rung::Kind;

// The mode's rungs, best first.
std::vector<Rung> Ladder(const ResolvedQuery& rq, const RunOptions& options) {
  const OptimizerMode mode = options.mode;
  if (rq.cq.always_false) return {{RungKind::kEmptyAnswer}};
  if (mode == OptimizerMode::kNaive) return {{RungKind::kNaive}};
  if (mode == OptimizerMode::kGeqoDefaults) return {{RungKind::kGeqo}};
  if (mode == OptimizerMode::kTreeDecomposition) {
    return {{RungKind::kTreeDecomposition}};
  }
  std::vector<Rung> rungs;
  if (mode == OptimizerMode::kClassicHd) {
    rungs.push_back({RungKind::kClassicHd});
  } else if (mode == OptimizerMode::kYannakakis) {
    rungs.push_back({RungKind::kJoinForest});
  } else if (mode != OptimizerMode::kDpStatistics) {  // the q-HD modes
    for (std::size_t w = options.max_width;; --w) {
      rungs.push_back({RungKind::kQhd, w});
      if (w <= 1) break;
    }
  }
  rungs.push_back({RungKind::kDp});
  rungs.push_back({RungKind::kGeqo});
  return rungs;
}

// The degradation entry for stepping from rung `from` down to `to`.
std::string StepDown(const Rung& from, const Rung& to, bool budget,
                     std::size_t max_width) {
  const std::string w = std::to_string(from.width);
  std::string step =
      from.kind == RungKind::kQhd
          ? (budget ? "q-HD search at width " + w + " exceeded its budget"
                    : "q-HD found no rooted decomposition of width <= " + w)
      : from.kind == RungKind::kClassicHd
          ? (budget ? "classic HD search exceeded its budget"
                    : "classic HD found no decomposition of width <= " +
                          std::to_string(max_width))
      : from.kind == RungKind::kJoinForest
          ? "yannakakis inapplicable (cyclic query)"
          : "DP join search exceeded its budget";
  if (to.kind == RungKind::kQhd) {
    return step + "; retrying at width " + std::to_string(to.width);
  }
  return step + (to.kind == RungKind::kDp ? "; falling back to the DP plan"
                                          : "; falling back to GEQO");
}

// What a rung hands the execute tail: a bag program for the tree rungs
// (kQhd, kClassicHd, kTreeDecomposition, kJoinForest), a join plan (kDp,
// kGeqo, kNaive), or nothing (kEmptyAnswer). `tree` is the decomposition a
// q-HD program was built from: replanning re-estimates it and EXPLAIN
// ANALYZE annotates it.
struct PhysicalPlan {
  BagProgram bags;
  Hypertree tree;
  std::unique_ptr<JoinPlan> join;
  std::string description;
  std::string details;
  std::size_t width = 0;
  std::size_t pruned = 0;
};

// One RunResolved call as an RAII scope. The constructor lends the
// QueryRun's ExecContext the worker pool, the shard runtime and the spill
// manager; each ladder attempt gets a fresh governor. The destructor seals
// the run on every exit, error or not: it merges the governor stats,
// snapshots the spill and shard counters, detaches every borrowed pointer
// (the QueryRun outlives the scope) and records the process-wide metrics,
// so failed queries are counted like answered ones.
class PipelineRun {
 public:
  PipelineRun(const ResolvedQuery& rq, const RunOptions& options,
              const Catalog& catalog, const StatisticsRegistry* stats,
              QueryRun* run)
      : rq_(rq),
        options_(options),
        catalog_(catalog),
        stats_(stats),
        run_(*run),
        tracer_(options.trace.tracer),
        h_(BuildHypergraph(rq.cq)),
        out_vars_(OutputVarsBitset(rq.cq)),
        use_statistics_(options.mode != OptimizerMode::kQhdStructural) {
    ExecContext& ctx = run_.ctx;
    ctx.row_budget = options.row_budget;
    ctx.work_budget = options.work_budget;
    // Process-wide worker pool; nullptr (serial) at one lane. Sharded runs
    // fan each wave out over num_shards x num_threads lanes, so the pool is
    // grown to the product up front — otherwise shard pieces would
    // serialize behind each other on a pool sized for one shard.
    const std::size_t shard_lanes =
        std::max<std::size_t>(std::size_t{1}, options.num_shards);
    ctx.pool = ThreadPool::Shared(
        std::min(kMaxShardLanes, options.num_threads * shard_lanes));
    ctx.num_threads = options.num_threads;
    ctx.tracer = tracer_;
    ctx.trace_parent = Tracer::CurrentParent(tracer_);

    // Sharded evaluation (DESIGN.md §6j): the bag-program executor checks
    // ctx.shard itself; quantitative plans never look at it.
    shard_.options.num_shards = options.num_shards;
    shard_.options.replicate_threshold = options.shard_replicate_threshold;
    if (options.num_shards >= 1) ctx.shard = &shard_;

    // Memory-adaptive execution: armed only when spilling is enabled AND
    // the memory budget is finite (the soft threshold is a fraction of it).
    if (options.enable_spill && options.memory_budget_bytes != kNoLimit) {
      SpillOptions sopt;
      sopt.dir = options.spill_dir;
      sopt.disk_budget_bytes = options.spill_disk_budget_bytes;
      spill_.emplace(std::move(sopt));
      ctx.spill = &*spill_;
      double frac = options.soft_memory_fraction;
      if (frac <= 0.0 || frac > 1.0) frac = 0.5;
      ctx.soft_memory_bytes = static_cast<std::size_t>(
          static_cast<double>(options.memory_budget_bytes) * frac);
    }

    // Tracing wants per-attempt nodes-visited counts, which the search
    // loops only report through a governor; an unlimited one counts without
    // ever tripping, so creating it is behavior-neutral.
    governed_ = options.deadline_seconds > 0 ||
                options.search_node_budget != kNoLimit ||
                options.memory_budget_bytes != kNoLimit ||
                options.cancel_flag != nullptr || tracer_ != nullptr;
    // One absolute wall deadline shared by every attempt; node and memory
    // budgets are granted afresh per attempt.
    if (options.deadline_seconds > 0) {
      deadline_ = ResourceGovernor::Clock::now() +
                  std::chrono::duration_cast<ResourceGovernor::Clock::duration>(
                      std::chrono::duration<double>(options.deadline_seconds));
    }
  }

  ~PipelineRun() {
    QueryRun& run = run_;
    if (governor_.has_value()) run.governor.Merge(governor_->stats());
    if (spill_.has_value()) {
      run.spill = spill_->counters();
      if (run.spill.spill_events > 0) {
        run.degradations.push_back(
            "memory-adaptive execution: " +
            std::to_string(run.spill.spill_events) + " operator(s) spilled " +
            std::to_string(run.spill.bytes_written) +
            " bytes to disk (soft threshold " +
            std::to_string(run.ctx.soft_memory_bytes) + " bytes)");
      }
    }
    if (run.ctx.shard != nullptr) run.shard = shard_.Snapshot();
    run.ctx.governor = nullptr;
    run.ctx.replan = nullptr;
    run.ctx.spill = nullptr;
    run.ctx.shard = nullptr;
    run.ctx.tracer = nullptr;
    run.ctx.trace_parent = 0;

    // Process-wide metrics: a handful of atomic adds per query, always on.
    MetricsRegistry& metrics = MetricsRegistry::Global();
    metrics.GetCounter(kMetricQueriesTotal)->Increment();
    metrics.GetHistogram(kMetricPlanLatencyUs)
        ->Record(static_cast<uint64_t>(run.plan_seconds * 1e6));
    metrics.GetHistogram(kMetricExecLatencyUs)
        ->Record(static_cast<uint64_t>(run.exec_seconds * 1e6));
    metrics.GetHistogram(kMetricRowsPerQuery)->Record(run.output.NumRows());
    metrics.GetHistogram(kMetricSearchNodesPerQuery)
        ->Record(run.governor.search_nodes);
    metrics.GetHistogram(kMetricHashProbesPerQuery)
        ->Record(run.ctx.hash_probes.load(std::memory_order_relaxed));
    metrics.GetHistogram(kMetricBloomSkipsPerQuery)
        ->Record(run.ctx.bloom_skips.load(std::memory_order_relaxed));
    metrics.GetHistogram(kMetricExecBatchesPerQuery)
        ->Record(run.ctx.batches.load(std::memory_order_relaxed));
    if (run.spill.spill_events > 0) {
      metrics.GetCounter(kMetricSpillEventsTotal)->Add(run.spill.spill_events);
      metrics.GetCounter(kMetricSpillBytesWrittenTotal)
          ->Add(run.spill.bytes_written);
    }
    if (run.governor.trips() > 0) {
      metrics.GetCounter(kMetricGovernorTripsTotal)->Add(run.governor.trips());
    }
    if (!run.degradations.empty()) {
      metrics.GetCounter(kMetricDegradationStepsTotal)
          ->Add(run.degradations.size());
    }
    if (run.shard.num_shards > 0) {
      metrics.GetCounter(kMetricShardedQueriesTotal)->Increment();
      metrics.GetCounter(kMetricShardFilterBytesTotal)
          ->Add(run.shard.filter_bytes);
      metrics.GetCounter(kMetricShardKeyBytesTotal)->Add(run.shard.key_bytes);
      metrics.GetCounter(kMetricShardRowShipBytesTotal)
          ->Add(run.shard.row_ship_bytes);
      metrics.GetCounter(kMetricShardRowsPrunedTotal)
          ->Add(run.shard.rows_pruned);
      metrics.GetHistogram(kMetricShardExchangesPerQuery)
          ->Record(run.shard.exchanges);
    }
  }

  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  // One rule loop over the ladder: a budget trip (with degrade_on_budget)
  // steps down to the next rung, "Failure" (kNotFound, with fallback_to_dp)
  // jumps to the DP rung, and anything else fails the run. Each step
  // appends one degradation entry. The chosen plan then executes.
  Status Run() {
    const std::vector<Rung> ladder = Ladder(rq_, options_);
    const auto plan_start = std::chrono::steady_clock::now();
    std::size_t i = 0;
    Result<PhysicalPlan> plan = Plan(ladder[i]);
    while (!plan.ok()) {
      const StatusCode code = plan.status().code();
      const bool budget =
          options_.degrade_on_budget && code == StatusCode::kDeadlineExceeded;
      std::size_t next = i + 1;
      if (!budget) {
        if (code != StatusCode::kNotFound || !options_.fallback_to_dp) {
          return plan.status();
        }
        while (next < ladder.size() && ladder[next].kind != RungKind::kDp) {
          ++next;
        }
      }
      if (next >= ladder.size()) return plan.status();
      run_.degradations.push_back(
          StepDown(ladder[i], ladder[next], budget, options_.max_width));
      i = next;
      plan = Plan(ladder[i]);
    }
    run_.plan_seconds += SecondsSince(plan_start);
    return Execute(ladder[i], std::move(plan.value()));
  }

 private:
  // A fresh governor with the per-attempt node and memory budgets under the
  // run's one wall deadline (nullptr when the run is ungoverned).
  // `last_resort` lifts the per-attempt budgets, not the deadline, for a
  // GEQO rung reached by degradation: its search is iteration-bounded, so
  // the ladder ends in a plan rather than a tripped budget.
  ResourceGovernor* BeginAttempt(bool last_resort = false) {
    if (!governed_) return nullptr;
    if (governor_.has_value()) run_.governor.Merge(governor_->stats());
    ResourceGovernor::Options gopt;
    gopt.deadline = deadline_;
    gopt.node_budget = last_resort ? kNoLimit : options_.search_node_budget;
    gopt.memory_budget_bytes =
        last_resort ? kNoLimit : options_.memory_budget_bytes;
    gopt.cancel_flag = options_.cancel_flag;
    governor_.emplace(gopt);
    run_.ctx.governor = &*governor_;
    return &*governor_;
  }

  Result<PhysicalPlan> Plan(const Rung& rung) {
    // Every attempt but the constant-false answer runs governed.
    ResourceGovernor* gov =
        rung.kind == RungKind::kEmptyAnswer
            ? nullptr
            : BeginAttempt(rung.kind == RungKind::kGeqo &&
                           run_.used_fallback());
    // One search span per attempt, indexed by RungKind; the join-forest
    // check and the naive plan search nothing.
    static constexpr const char* kSearchSpans[] = {
        "", "search.qhd", "search.classic-hd", "search.tree-decomposition",
        "", "search.dp",  "search.geqo",       ""};
    const char* span_name = kSearchSpans[static_cast<int>(rung.kind)];
    ScopedSpan span(*span_name != '\0' ? tracer_ : nullptr, span_name);

    Result<PhysicalPlan> plan = PhysicalPlan();
    switch (rung.kind) {
      case RungKind::kQhd:
        plan = PlanQhd(rung.width, gov, &span);
        break;
      case RungKind::kClassicHd: {
        // No out(Q) rooting, no Optimize: the pre-q-HD pipeline.
        StatsDecompositionCostModel model(
            h_, LookupEstimate(rq_, stats_, tracer_));
        span.Attr("max_width", options_.max_width);
        auto hd = CostKDecomp(h_, options_.max_width, model,
                              /*root_conn=*/nullptr, gov, run_.ctx.pool,
                              options_.num_threads);
        plan = hd.ok() ? ClassicPlan(std::move(hd.value()))
                       : Result<PhysicalPlan>(hd.status());
        if (plan.ok()) {
          plan->description = "classic HD + Yannakakis (width " +
                              std::to_string(plan->width) + ")";
        }
        break;
      }
      case RungKind::kTreeDecomposition: {
        TreeDecomposition td = MinFillTreeDecomposition(h_);
        plan = ClassicPlan(TreeDecompositionToHypertree(h_, td));
        if (!plan.ok()) break;
        span.Attr("treewidth", td.Width());
        span.Attr("width", plan->width);
        plan->description = "min-fill tree decomposition (treewidth " +
                            std::to_string(td.Width()) + ", cover width " +
                            std::to_string(plan->width) + ") + Yannakakis";
        break;
      }
      case RungKind::kJoinForest: {
        Result<JoinForest> forest = BuildJoinForest(h_);
        if (!forest.ok()) {
          plan = Status::NotFound(
              "Yannakakis's algorithm requires an acyclic query hypergraph");
          break;
        }
        plan->bags = YannakakisProgram(rq_, h_, *forest);
        plan->description = "yannakakis three-pass over the join forest";
        break;
      }
      case RungKind::kDp: {
        const JoinGraph graph = LookupEstimate(rq_, stats_, tracer_);
        PlanCostModel cost(graph);
        // Left-deep System-R search: the plan space of the commercial
        // optimizers the paper benchmarked against. (Bushy DP is available
        // via DpOptions for library users.)
        DpOptions dp_options;
        dp_options.bushy = false;
        dp_options.governor = gov;
        auto dp = DpOptimize(graph, cost, dp_options);
        plan = dp.ok() ? Result<PhysicalPlan>(JoinPlanOf(std::move(*dp)))
                       : dp.status();
        break;
      }
      case RungKind::kGeqo: {
        // No statistics: the estimator runs on PostgreSQL-style defaults,
        // and the optimizer prefers nested loops for inputs it believes are
        // small — which, under default estimates, is all of them.
        const JoinGraph graph = BuildEdgeStats(rq_.cq, Estimator(nullptr));
        PlanCostModel cost(graph);
        GeqoOptions geqo;
        geqo.seed = options_.seed;
        geqo.nested_loop_threshold = 2000.0;
        geqo.governor = gov;
        auto best = GeqoOptimize(graph, cost, geqo);
        plan = best.ok() ? Result<PhysicalPlan>(JoinPlanOf(std::move(*best)))
                         : best.status();
        break;
      }
      case RungKind::kNaive:
        plan = JoinPlanOf(
            NaiveFromOrderPlan(rq_.cq.atoms.size(), JoinAlgo::kNestedLoop));
        break;
      case RungKind::kEmptyAnswer:
        plan->description = "constant-false";
        break;
    }
    if (gov != nullptr) span.Attr("nodes_visited", gov->stats().search_nodes);
    span.Attr("outcome",
              plan.ok() ? "ok"
              : plan.status().code() == StatusCode::kDeadlineExceeded
                  ? "budget-exceeded"
                  : "failure");
    return plan;
  }

  Result<PhysicalPlan> PlanQhd(std::size_t width, ResourceGovernor* gov,
                               ScopedSpan* span) {
    span->Attr("width", width);
    span->Attr("cost_model", use_statistics_ ? "statistics" : "structural");
    // The search runs without Procedure Optimize, which runs below on
    // whichever tree comes back. The plan cache stores these pre-Optimize
    // trees, so pruning (a cheap, purely structural pass) stays per-run
    // while the expensive search is shared; a hit skips the search *and*
    // the stats lookup.
    QhdOptions qopt = QhdSearchOptions(width, gov);
    const bool run_optimize = qopt.run_optimize;
    qopt.run_optimize = false;
    auto search = [&] {
      return SearchQhd(rq_, h_, out_vars_, stats_, use_statistics_, qopt);
    };
    Result<QhdResult> decomp = Status::Internal("unset");
    if (options_.use_plan_cache) {
      // The certificate's edge labels and the statistics-epoch keys: one
      // lowercased relation name per hyperedge, in atom order.
      std::vector<std::string> edge_labels;
      for (const Atom& atom : rq_.cq.atoms) {
        edge_labels.push_back(ToLower(atom.relation));
      }
      PlanCacheOutcome cache_outcome;
      decomp = CachedQHypertreeDecomp(h_, out_vars_, edge_labels, stats_,
                                      width, use_statistics_, gov, tracer_,
                                      search, &cache_outcome);
      run_.plan_cache = cache_outcome.ToString();
      span->Attr("plan_cache", run_.plan_cache);
    } else {
      decomp = search();
    }
    if (decomp.ok() && run_optimize) {
      ScopedSpan optimize_span(tracer_, "optimize");
      decomp->pruned = OptimizeDecomposition(h_, &decomp->hd, gov);
      optimize_span.Attr("pruned", decomp->pruned);
      if (gov != nullptr && gov->exhausted()) decomp = gov->trip_status();
    }
    if (!decomp.ok()) return decomp.status();
    span->Attr("pruned", decomp->pruned);
    return RootedPlan(std::move(decomp.value()), "");
  }

  PhysicalPlan RootedPlan(QhdResult decomp, const std::string& note) const {
    PhysicalPlan plan;
    plan.width = decomp.width;
    plan.pruned = decomp.pruned;
    plan.description = "q-hypertree decomposition (width " +
                       std::to_string(decomp.width) + ", " +
                       std::to_string(decomp.pruned) + " pruned" + note + ")";
    plan.details = decomp.hd.ToString(h_);
    plan.bags = QhdProgram(rq_, decomp.hd);
    plan.tree = std::move(decomp.hd);
    return plan;
  }

  // The classic S2'/S2'' plan over a complete decomposition of H(Q).
  Result<PhysicalPlan> ClassicPlan(Hypertree tree) const {
    CompleteDecomposition(h_, &tree);
    auto program = ClassicProgram(rq_, h_, tree);
    if (!program.ok()) return program.status();
    PhysicalPlan plan;
    plan.bags = std::move(program.value());
    plan.width = tree.Width();
    return plan;
  }

  // What the run reports of the plan it executes.
  void Publish(const PhysicalPlan& plan) {
    run_.decomposition_width = plan.width;
    run_.pruned_lambda_entries = plan.pruned;
    run_.plan_description = plan.description;
    run_.plan_details = plan.details;
  }

  PhysicalPlan JoinPlanOf(std::unique_ptr<JoinPlan> join) const {
    PhysicalPlan plan;
    plan.description =
        (run_.used_fallback() ? "fallback: " : "") + join->ToString(rq_);
    plan.details = join->ToString(rq_) + "\n";
    plan.join = std::move(join);
    return plan;
  }

  QhdOptions QhdSearchOptions(std::size_t width, ResourceGovernor* gov) const {
    QhdOptions qopt;
    qopt.max_width = width;
    qopt.run_optimize = options_.mode != OptimizerMode::kQhdNoOptimize;
    qopt.governor = gov;
    qopt.pool = run_.ctx.pool;
    qopt.num_threads = options_.num_threads;
    qopt.tracer = tracer_;
    return qopt;
  }

  // The one execute tail: the rung's evaluator, then the SELECT output.
  Status Execute(const Rung& rung, PhysicalPlan plan) {
    Publish(plan);
    const auto exec_start = std::chrono::steady_clock::now();
    std::optional<ScopedSpan> exec_span(std::in_place, tracer_, "execute");
    run_.ctx.trace_parent = exec_span->id();
    Result<Relation> answer = Status::Internal("unset");
    if (plan.join != nullptr) {
      auto joined = ExecuteJoinPlan(*plan.join, rq_, catalog_, &run_.ctx);
      if (!joined.ok()) return joined.status();
      answer = ProjectToOutputVars(rq_, *joined, &run_.ctx);
    } else if (rung.kind == RungKind::kQhd && options_.enable_replan) {
      // Only the q-HD rungs replan: they own a search to re-enter.
      answer = EvaluateReplanning(rung.width, &plan);
    } else {
      // Every tree rung runs its bag program; the constant-false rung's
      // empty program answers with the empty relation.
      answer = RunBagProgram(plan.bags, rq_, catalog_, &run_.ctx);
    }
    if (!answer.ok()) return answer.status();
    auto out = EvaluateSelectOutput(rq_, *answer, &run_.ctx);
    if (!out.ok()) return out.status();
    run_.output = std::move(out.value());
    exec_span.reset();
    run_.exec_seconds = SecondsSince(exec_start);
    if (rung.kind == RungKind::kQhd) {
      AnnotatePlanDetails(tracer_, h_, plan.tree, &run_);
    }
    return Status::Ok();
  }

  // The q-HD bag program of `plan` with adaptive mid-query re-planning
  // (DESIGN.md §6h). With the controller on the context, the executor backs
  // out when an intermediate blows past its estimate; the observed scan
  // cardinalities are then pinned into the query's estimate, the search is
  // re-entered at the same width bound, and evaluation resumes —
  // checkpointed subtree results carry over. Structural mode re-plans with
  // the stats model on defaults: the pins land either way.
  Result<Relation> EvaluateReplanning(std::size_t width, PhysicalPlan* plan) {
    ReplanController::Options ropt;
    ropt.blowup_factor = options_.replan_blowup_factor;
    ropt.min_rows = options_.replan_min_rows;
    ReplanController controller(ropt);
    controller.set_armed(options_.max_replans > 0);
    run_.ctx.replan = &controller;
    // The tree's node estimates and every replanning search read this one
    // model; observed scans are pinned into it between searches.
    StatsDecompositionCostModel model(h_,
                                      LookupEstimate(rq_, stats_, tracer_));

    Result<Relation> answer = Status::Internal("unset");
    for (;;) {
      const Hypertree& tree = plan->tree;  // replans assign through `plan`
      std::vector<double> estimates(tree.NumNodes(), 0.0);
      for (std::size_t p = 0; p < tree.NumNodes(); ++p) {
        estimates[p] = model.VertexRows(tree.node(p).lambda, tree.node(p).chi);
      }
      controller.BeginTree(std::move(estimates));
      answer = RunBagProgram(plan->bags, rq_, catalog_, &run_.ctx);
      if (answer.ok() || !controller.tripped()) break;

      // The executor tripped: account for the replan, then re-optimize
      // with the observed cardinalities pinned.
      ++run_.replans;
      run_.governor.replan_trips += 1;
      const std::size_t trip_node = controller.tripped_node();
      const std::size_t actual = controller.tripped_actual();
      const double estimate = std::max(1.0, controller.tripped_estimate());
      const double actual_f =
          static_cast<double>(std::max<std::size_t>(1, actual));
      const double error_factor =
          std::max(actual_f, estimate) / std::min(actual_f, estimate);
      MetricsRegistry& metrics = MetricsRegistry::Global();
      metrics.GetCounter(kMetricReplansTotal)->Increment();
      metrics.GetHistogram(kMetricEstimateErrorFactor)
          ->Record(static_cast<uint64_t>(std::llround(error_factor)));
      run_.degradations.push_back(
          "mid-query replan: node " + std::to_string(trip_node) +
          " produced " + std::to_string(actual) + " rows vs estimate " +
          std::to_string(static_cast<std::size_t>(estimate)) +
          "; re-planning with observed cardinalities");
      std::optional<ScopedSpan> replan_span(std::in_place, tracer_, "replan");
      replan_span->Attr("node", trip_node);
      replan_span->Attr("actual", actual);
      replan_span->Attr("estimate", static_cast<std::size_t>(estimate));
      replan_span->Attr("checkpoints", controller.checkpoints_stored());

      for (const auto& [atom, rows] : controller.ObservedEdgeRows()) {
        if (atom < h_.NumEdges()) model.Pin(atom, static_cast<double>(rows));
      }

      // Fresh node/memory budgets for the re-planning search and the
      // resumed evaluation; the wall deadline keeps running. The pinned
      // search bypasses the plan cache: it is specific to this execution.
      const auto replan_start = std::chrono::steady_clock::now();
      auto re = QHypertreeDecomp(h_, out_vars_, model,
                                 QhdSearchOptions(width, BeginAttempt()));
      run_.plan_seconds += SecondsSince(replan_start);
      if (re.ok()) {
        *plan = RootedPlan(std::move(re.value()),
                           ", replanned x" + std::to_string(run_.replans));
        Publish(*plan);
      }
      // On search failure the current tree stands — the checkpoints still
      // short-circuit its finished subtrees.
      replan_span.reset();
      controller.set_armed(run_.replans < options_.max_replans);
    }
    // The controller lives on this frame and must not stay on the context.
    // Canonical order: the resumed tree may emit rows in a different order,
    // so every replan-armed run sorts its answer — a replanned query and
    // its never-replanned twin become byte-identical.
    run_.ctx.replan = nullptr;
    if (answer.ok()) answer->SortBy({});
    return answer;
  }

  const ResolvedQuery& rq_;
  const RunOptions& options_;
  const Catalog& catalog_;
  const StatisticsRegistry* stats_;
  QueryRun& run_;
  Tracer* const tracer_;
  const Hypergraph h_;
  const Bitset out_vars_;
  const bool use_statistics_;
  bool governed_ = false;
  ResourceGovernor::Clock::time_point deadline_ =
      ResourceGovernor::Clock::time_point::max();
  ShardRuntime shard_;
  std::optional<SpillManager> spill_;
  std::optional<ResourceGovernor> governor_;
};

}  // namespace

Result<QueryRun> HybridOptimizer::RunResolved(const ResolvedQuery& rq,
                                              const RunOptions& options)
    const {
  std::optional<ScopedSpan> query_root;
  BeginQueryRoot(&query_root, options, options.mode);
  QueryRun run;
  Status status;
  {
    PipelineRun pipeline(rq, options, *catalog_, stats_, &run);
    status = pipeline.Run();
  }  // ~PipelineRun seals the run, answered or failed
  if (!status.ok()) return status;
  return run;
}

Result<RewrittenQuery> HybridOptimizer::RewriteQuery(
    std::string_view sql, const RunOptions& options) const {
  auto rq = Resolve(sql, TidMode::kNone);
  if (!rq.ok()) return rq.status();

  Hypergraph h = BuildHypergraph(rq->cq);
  Bitset out_vars = OutputVarsBitset(rq->cq);
  QhdOptions qhd;
  qhd.max_width = options.max_width;
  qhd.run_optimize = options.mode != OptimizerMode::kQhdNoOptimize;
  qhd.tracer = options.trace.tracer;
  auto decomp = SearchQhd(
      *rq, h, out_vars, stats_,
      options.mode != OptimizerMode::kQhdStructural && stats_ != nullptr,
      qhd);
  if (!decomp.ok()) return decomp.status();
  return RewriteAsViews(*rq, h, decomp->hd);
}

Result<Relation> ExecuteRewrittenQuery(const RewrittenQuery& rewritten,
                                       const Catalog& base,
                                       ExecContext* ctx) {
  // Materialized views live in an overlay over the base relations.
  Catalog scratch(&base);

  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;  // any engine would do
  options.row_budget = ctx->row_budget;
  options.work_budget = ctx->work_budget;

  const HybridOptimizer engine(&scratch, nullptr);
  const std::size_t views = rewritten.view_bodies.size();
  for (std::size_t i = 0;; ++i) {
    auto run = engine.Run(
        i < views ? rewritten.view_bodies[i] : rewritten.final_statement,
        options);
    if (!run.ok()) return run.status();
    ctx->rows_charged += run->ctx.rows_charged;
    ctx->work_charged += run->ctx.work_charged;
    ctx->NotePeak(run->ctx.peak_rows);
    if (i == views) return std::move(run->output);
    scratch.Put(rewritten.view_names[i], std::move(run->output));
  }
}

}  // namespace htqo
