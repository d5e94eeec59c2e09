#include "api/hybrid_optimizer.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <unordered_map>

#include "cache/decomp_cache.h"
#include "cq/hypergraph_builder.h"
#include "decomp/optimize.h"
#include "exec/adaptive.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "obs/metrics.h"
#include "util/strings.h"
#include "opt/dp_optimizer.h"
#include "opt/geqo_optimizer.h"
#include "opt/naive_optimizer.h"
#include "decomp/tree_decomposition.h"
#include "opt/yannakakis.h"
#include "sql/parser.h"
#include "util/thread_pool.h"

namespace htqo {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool IsQhdMode(OptimizerMode mode) {
  return mode == OptimizerMode::kQhdHybrid ||
         mode == OptimizerMode::kQhdStructural ||
         mode == OptimizerMode::kQhdNoOptimize;
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
// produced, wall time, worker thread, spill partitions under the node.
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
  std::unordered_map<uint64_t, uint64_t> parent_of;
  std::unordered_map<uint64_t, std::size_t> span_to_node;
  parent_of.reserve(spans.size());
  for (const Span& span : spans) parent_of[span.id] = span.parent;
  for (const Span& span : spans) {
    if (span.name != "qhd.node") continue;
    std::size_t node = HypertreeNode::kNoParent;
    uint64_t rows = 0;
    for (const SpanAttr& attr : span.attrs) {
      if (attr.key == "node") node = std::stoull(attr.value);
      if (attr.key == "rows") rows = std::stoull(attr.value);
    }
    if (node == HypertreeNode::kNoParent) continue;
    span_to_node[span.id] = node;
    NodeActuals& na = actuals[node];
    na.ms = static_cast<double>(std::max<int64_t>(0, span.duration_ns)) / 1e6;
    na.rows = rows;
    na.thread = span.thread;
  }
  if (actuals.empty()) return;
  for (const Span& span : spans) {
    const bool is_spill = span.name == "spill.partition";
    uint64_t span_batches = 0;
    if (!is_spill) {
      // Vectorized operator spans (op.*) carry a "batches" attr; roll those
      // up into the owning decomposition node like the spill partitions.
      if (span.name.rfind("op.", 0) != 0) continue;
      for (const SpanAttr& attr : span.attrs) {
        if (attr.key == "batches") span_batches = std::stoull(attr.value);
      }
      if (span_batches == 0) continue;
    }
    // Attribute the span to its nearest qhd.node ancestor.
    uint64_t cursor = span.parent;
    for (int guard = 0; cursor != 0 && guard < 64; ++guard) {
      auto node_it = span_to_node.find(cursor);
      if (node_it != span_to_node.end()) {
        if (is_spill) {
          ++actuals[node_it->second].spill_partitions;
        } else {
          actuals[node_it->second].batches += span_batches;
        }
        break;
      }
      auto parent_it = parent_of.find(cursor);
      if (parent_it == parent_of.end()) break;
      cursor = parent_it->second;
    }
  }
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
  // Uncorrelated scalar subqueries in WHERE evaluate first and become
  // literals: x > (SELECT avg(y) FROM ...) compares against the computed
  // value. SQL semantics: more than one row is an error; zero rows compare
  // as unknown, i.e. the conjunct (and with it the whole WHERE) is false.
  bool has_scalar = false;
  for (const Comparison& cmp : stmt.where) {
    has_scalar |= cmp.lhs.ContainsScalarSubquery() ||
                  cmp.rhs.ContainsScalarSubquery();
  }
  if (has_scalar) {
    SelectStatement rewritten = stmt.Clone();
    QueryRun accumulated;
    bool always_false = false;
    std::function<Status(Expr*)> replace = [&](Expr* e) -> Status {
      if (e->kind == ExprKind::kScalarSubquery) {
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
        if (out.NumRows() == 0) {
          always_false = true;
          *e = Expr::MakeLiteral(Value::Int64(0));
          return Status::Ok();
        }
        *e = Expr::MakeLiteral(out.At(0, 0));
        return Status::Ok();
      }
      if (e->lhs) {
        Status s = replace(e->lhs.get());
        if (!s.ok()) return s;
      }
      if (e->rhs) {
        Status s = replace(e->rhs.get());
        if (!s.ok()) return s;
      }
      return Status::Ok();
    };
    for (Comparison& cmp : rewritten.where) {
      Status s = replace(&cmp.lhs);
      if (!s.ok()) return s;
      s = replace(&cmp.rhs);
      if (!s.ok()) return s;
    }
    if (always_false) {
      rewritten.where.clear();
      rewritten.where_in.clear();
      rewritten.where.emplace_back(Expr::MakeLiteral(Value::Int64(1)),
                                   CompareOp::kEq,
                                   Expr::MakeLiteral(Value::Int64(2)));
    }
    auto run = RunStatement(rewritten, options);
    if (!run.ok()) return run.status();
    MergeSubRun(accumulated, &run.value());
    return run;
  }

  // Uncorrelated IN-subqueries rewrite into a join with a DISTINCT derived
  // table: x IN (SELECT y FROM ...) ≡ JOIN (SELECT DISTINCT y ...) s ON
  // x = s.y — exact under bag semantics since the distinct single column
  // matches each outer row at most once. The rewritten statement then goes
  // through the derived-table materialization below.
  if (stmt.HasInSubqueries()) {
    SelectStatement rewritten = stmt.Clone();
    std::vector<InCondition> remaining;
    std::size_t counter = 0;
    QueryRun accumulated_in;
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
        MergeSubRun(*sub_run, &accumulated_in);
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
    auto run = RunStatement(rewritten, options);
    if (!run.ok()) return run.status();
    MergeSubRun(accumulated_in, &run.value());
    return run;
  }

  if (!stmt.HasDerivedTables()) {
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

  // Materialize every derived table into an overlay over the caller's
  // database (base relations and their statistics are read through, never
  // copied), then run the rewritten outer statement against it.
  Catalog scratch(catalog_);
  StatisticsRegistry scratch_stats(stats_);

  SelectStatement rewritten = stmt.Clone();
  QueryRun accumulated;
  std::size_t derived_count = 0;
  for (TableRef& table : rewritten.from) {
    if (!table.IsDerived()) continue;
    // Bag semantics must survive materialization: a non-DISTINCT subquery
    // feeding an outer aggregate contributes multiplicities.
    RunOptions sub_options = options;
    sub_options.tid_mode = TidMode::kAllAtoms;
    HybridOptimizer sub_engine(&scratch, &scratch_stats);
    ScopedSpan subquery_span(options.trace.tracer, "subquery");
    subquery_span.Attr("alias", table.alias);
    auto sub_run = sub_engine.RunStatement(*table.subquery, sub_options);
    if (!sub_run.ok()) return sub_run.status();

    std::string derived_name =
        "htqo_derived_" + std::to_string(derived_count++) + "_" + table.alias;
    scratch_stats.Put(derived_name, CollectStats(sub_run->output));
    scratch.Put(derived_name, std::move(sub_run->output));
    table.name = derived_name;
    table.subquery.reset();

    MergeSubRun(*sub_run, &accumulated);
  }

  HybridOptimizer outer(&scratch, &scratch_stats);
  auto run = outer.RunStatement(rewritten, options);
  if (!run.ok()) return run.status();
  MergeSubRun(accumulated, &run.value());
  run->plan_description += " [+" + std::to_string(derived_count) +
                           " materialized subquer" +
                           (derived_count == 1 ? "y" : "ies") + "]";
  return run;
}

Result<QueryRun> HybridOptimizer::RunResolved(const ResolvedQuery& rq,
                                              const RunOptions& options)
    const {
  std::optional<ScopedSpan> query_root;
  BeginQueryRoot(&query_root, options, options.mode);
  Tracer* const tracer = options.trace.tracer;

  QueryRun run;
  run.ctx.row_budget = options.row_budget;
  run.ctx.work_budget = options.work_budget;
  // Process-wide worker pool; nullptr (serial) when num_threads <= 1.
  // Sharded runs fan each wave out over num_shards x num_threads lanes, so
  // the pool is grown to the product up front — otherwise shard pieces
  // would serialize behind each other on a pool sized for one shard.
  const std::size_t shard_lanes =
      std::max<std::size_t>(std::size_t{1}, options.num_shards);
  ThreadPool* pool = ThreadPool::Shared(std::min(
      kMaxShardLanes, options.num_threads * shard_lanes));
  run.ctx.pool = pool;
  run.ctx.num_threads = options.num_threads;
  run.ctx.tracer = tracer;
  run.ctx.trace_parent = Tracer::CurrentParent(tracer);

  // Sharded evaluation (DESIGN.md §6j): stack-owned runtime, borrowed by
  // the context like the governor; seal() snapshots and detaches it. The
  // forest-reduction evaluators check ctx->shard themselves; quantitative
  // modes simply never look at it.
  ShardRuntime shard_runtime;
  shard_runtime.options.num_shards = options.num_shards;
  shard_runtime.options.replicate_threshold =
      options.shard_replicate_threshold;
  shard_runtime.options.exact_key_threshold =
      options.shard_exact_key_threshold;
  if (options.num_shards >= 1) run.ctx.shard = &shard_runtime;

  if (rq.cq.always_false) {
    auto out = EvaluateSelectOutput(rq, EmptyAnswer(rq), &run.ctx);
    if (!out.ok()) return out.status();
    run.output = std::move(out.value());
    run.plan_description = "constant-false";
    run.ctx.tracer = nullptr;
    run.ctx.trace_parent = 0;
    run.ctx.shard = nullptr;  // stack-local runtime, must not escape
    MetricsRegistry::Global().GetCounter(kMetricQueriesTotal)->Increment();
    return run;
  }

  constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();
  // Tracing wants per-attempt nodes-visited counts, which the search loops
  // only report through a governor; an unlimited one counts without ever
  // tripping, so creating it is behavior-neutral.
  const bool governed = options.deadline_seconds > 0 ||
                        options.search_node_budget != kNoLimit ||
                        options.memory_budget_bytes != kNoLimit ||
                        options.cancel_flag != nullptr ||
                        tracer != nullptr;

  // Memory-adaptive execution: armed only when spilling is enabled AND the
  // memory budget is finite (the soft threshold is a fraction of it). The
  // manager lives on this frame; seal() snapshots its counters and clears
  // the borrowed pointer before QueryRun escapes.
  const bool spill_armed =
      options.enable_spill && options.memory_budget_bytes != kNoLimit;
  std::optional<SpillManager> spill_manager;
  if (spill_armed) {
    SpillOptions sopt;
    sopt.dir = options.spill_dir;
    sopt.disk_budget_bytes = options.spill_disk_budget_bytes;
    spill_manager.emplace(std::move(sopt));
    run.ctx.spill = &*spill_manager;
    double frac = options.soft_memory_fraction;
    if (frac <= 0.0 || frac > 1.0) frac = 0.5;
    run.ctx.soft_memory_bytes = static_cast<std::size_t>(
        static_cast<double>(options.memory_budget_bytes) * frac);
  }
  // One absolute wall deadline shared by every degradation-ladder attempt;
  // node and memory budgets are granted afresh per attempt.
  const auto wall_deadline =
      options.deadline_seconds > 0
          ? ResourceGovernor::Clock::now() +
                std::chrono::duration_cast<ResourceGovernor::Clock::duration>(
                    std::chrono::duration<double>(options.deadline_seconds))
          : ResourceGovernor::Clock::time_point::max();

  std::optional<ResourceGovernor> governor;
  // `last_resort` lifts the per-attempt budgets (not the deadline) for the
  // final GEQO rung, whose search is iteration-bounded by construction —
  // guaranteeing the ladder ends in a plan rather than a tripped budget.
  auto begin_attempt = [&](bool last_resort = false) -> ResourceGovernor* {
    if (!governed) return nullptr;
    if (governor.has_value()) run.governor.Merge(governor->stats());
    ResourceGovernor::Options gopt;
    gopt.deadline = wall_deadline;
    gopt.node_budget = last_resort ? kNoLimit : options.search_node_budget;
    gopt.memory_budget_bytes =
        last_resort ? kNoLimit : options.memory_budget_bytes;
    if (spill_armed) gopt.soft_memory_bytes = run.ctx.soft_memory_bytes;
    gopt.cancel_flag = options.cancel_flag;
    governor.emplace(gopt);
    run.ctx.governor = &*governor;
    return &*governor;
  };
  // QueryRun holds its ExecContext by value and outlives this frame, so the
  // stack-local governor must never escape through it: seal before every
  // successful return.
  auto seal = [&]() {
    if (governor.has_value()) run.governor.Merge(governor->stats());
    run.ctx.governor = nullptr;
    run.ctx.replan = nullptr;  // stack-local controller, must not escape
    if (spill_manager.has_value()) {
      run.spill = spill_manager->counters();
      if (run.spill.spill_events > 0) {
        run.degradations.push_back(
            "memory-adaptive execution: " +
            std::to_string(run.spill.spill_events) +
            " operator(s) spilled " +
            std::to_string(run.spill.bytes_written) +
            " bytes to disk (soft threshold " +
            std::to_string(run.ctx.soft_memory_bytes) + " bytes)");
      }
    }
    run.ctx.spill = nullptr;
    if (run.ctx.shard != nullptr) {
      run.shard = run.ctx.shard->Snapshot();
      run.ctx.shard = nullptr;  // stack-local runtime, must not escape
    }
    // The tracer is caller-owned like the governor: don't let the borrowed
    // pointer escape through the embedded context.
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
  };
  auto budget_tripped = [&](const Status& s) {
    return options.degrade_on_budget &&
           s.code() == StatusCode::kDeadlineExceeded;
  };

  OptimizerMode mode = options.mode;
  auto start = std::chrono::steady_clock::now();

  if (mode == OptimizerMode::kYannakakis) {
    begin_attempt();
    std::optional<ScopedSpan> exec_span(std::in_place, tracer, "execute");
    run.ctx.trace_parent = exec_span->id();
    auto answer = YannakakisEvaluate(rq, *catalog_, &run.ctx);
    if (!answer.ok()) {
      exec_span.reset();
      if (answer.status().code() == StatusCode::kNotFound &&
          options.fallback_to_dp) {
        run.degradations.push_back(
            "yannakakis inapplicable (cyclic query); falling back to the DP "
            "plan");
        mode = OptimizerMode::kDpStatistics;
      } else {
        return answer.status();
      }
    } else {
      run.plan_description = "yannakakis three-pass over the join forest";
      auto out = EvaluateSelectOutput(rq, *answer, &run.ctx);
      if (!out.ok()) return out.status();
      run.output = std::move(out.value());
      exec_span.reset();
      run.exec_seconds = SecondsSince(start);
      seal();
      return run;
    }
  }

  if (mode == OptimizerMode::kTreeDecomposition) {
    begin_attempt();
    Hypergraph h = BuildHypergraph(rq.cq);
    std::optional<ScopedSpan> search_span(std::in_place, tracer,
                                          "search.tree-decomposition");
    TreeDecomposition td = MinFillTreeDecomposition(h);
    Hypertree hd = TreeDecompositionToHypertree(h, td);
    CompleteDecomposition(h, &hd);
    search_span->Attr("treewidth", td.Width());
    search_span->Attr("width", hd.Width());
    search_span.reset();
    run.plan_seconds = SecondsSince(start);
    run.decomposition_width = hd.Width();
    run.plan_description = "min-fill tree decomposition (treewidth " +
                           std::to_string(td.Width()) + ", cover width " +
                           std::to_string(hd.Width()) + ") + Yannakakis";
    auto exec_start = std::chrono::steady_clock::now();
    std::optional<ScopedSpan> exec_span(std::in_place, tracer, "execute");
    run.ctx.trace_parent = exec_span->id();
    auto answer = EvaluateDecompositionClassic(rq, *catalog_, h, hd,
                                               &run.ctx);
    if (!answer.ok()) return answer.status();
    auto out = EvaluateSelectOutput(rq, *answer, &run.ctx);
    if (!out.ok()) return out.status();
    run.output = std::move(out.value());
    exec_span.reset();
    run.exec_seconds = SecondsSince(exec_start);
    seal();
    return run;
  }

  if (mode == OptimizerMode::kClassicHd) {
    ResourceGovernor* gov = begin_attempt();
    Hypergraph h = BuildHypergraph(rq.cq);
    std::optional<ScopedSpan> stats_span(std::in_place, tracer, "stats.lookup");
    Estimator estimator(stats_);
    StatsDecompositionCostModel model(h, BuildEdgeStats(rq.cq, estimator));
    stats_span.reset();
    // No out(Q) rooting, no Optimize: the pre-q-HD pipeline.
    std::optional<ScopedSpan> search_span(std::in_place, tracer,
                                          "search.classic-hd");
    search_span->Attr("max_width", options.max_width);
    auto hd = CostKDecomp(h, options.max_width, model, /*root_conn=*/nullptr,
                          gov, pool, options.num_threads);
    if (gov != nullptr) {
      search_span->Attr("nodes_visited", gov->stats().search_nodes);
    }
    search_span->Attr("outcome", hd.ok() ? "ok" : "failure");
    search_span.reset();
    run.plan_seconds = SecondsSince(start);
    if (!hd.ok()) {
      bool degrade = budget_tripped(hd.status());
      if (!degrade && (hd.status().code() != StatusCode::kNotFound ||
                       !options.fallback_to_dp)) {
        return hd.status();
      }
      run.degradations.push_back(
          degrade ? "classic HD search exceeded its budget; falling back to "
                    "the DP plan"
                  : "classic HD found no decomposition of width <= " +
                        std::to_string(options.max_width) +
                        "; falling back to the DP plan");
      mode = OptimizerMode::kDpStatistics;
    } else {
      CompleteDecomposition(h, &hd.value());
      run.decomposition_width = hd->Width();
      run.plan_description = "classic HD + Yannakakis (width " +
                             std::to_string(hd->Width()) + ")";
      auto exec_start = std::chrono::steady_clock::now();
      std::optional<ScopedSpan> exec_span(std::in_place, tracer, "execute");
      run.ctx.trace_parent = exec_span->id();
      auto answer =
          EvaluateDecompositionClassic(rq, *catalog_, h, *hd, &run.ctx);
      if (!answer.ok()) return answer.status();
      auto out = EvaluateSelectOutput(rq, *answer, &run.ctx);
      if (!out.ok()) return out.status();
      run.output = std::move(out.value());
      exec_span.reset();
      run.exec_seconds = SecondsSince(exec_start);
      seal();
      return run;
    }
  }

  if (IsQhdMode(mode)) {
    const bool use_statistics = mode != OptimizerMode::kQhdStructural;
    const bool run_optimize = mode != OptimizerMode::kQhdNoOptimize;

    Hypergraph h = BuildHypergraph(rq.cq);
    Bitset out_vars = OutputVarsBitset(rq.cq);

    // Plan cache: lowercased relation names, one per hyperedge (atom
    // order) — the canonical certificate's edge labels and the keys of the
    // statistics-epoch snapshot.
    std::vector<std::string> edge_labels;
    if (options.use_plan_cache) {
      edge_labels.reserve(rq.cq.atoms.size());
      for (const Atom& atom : rq.cq.atoms) {
        edge_labels.push_back(ToLower(atom.relation));
      }
    }

    // Degradation ladder, upper rungs: a governed q-HD attempt that trips
    // its budget retries at the next smaller width (cheaper search space)
    // before surrendering to the quantitative fallbacks below.
    std::size_t width = options.max_width;
    while (IsQhdMode(mode)) {
      ResourceGovernor* gov = begin_attempt();
      QhdOptions dopt;
      dopt.max_width = width;
      dopt.run_optimize = run_optimize;
      dopt.governor = gov;
      dopt.pool = pool;
      dopt.num_threads = options.num_threads;
      dopt.tracer = tracer;
      auto attempt_start = std::chrono::steady_clock::now();
      // One span per width attempt: the degradation ladder's retries show
      // up as search.qhd siblings with descending width attributes.
      std::optional<ScopedSpan> attempt_span(std::in_place, tracer,
                                             "search.qhd");
      attempt_span->Attr("width", width);
      attempt_span->Attr("cost_model",
                         use_statistics ? "statistics" : "structural");
      auto run_search = [&](const QhdOptions& sopt) -> Result<QhdResult> {
        if (use_statistics) {
          std::optional<ScopedSpan> stats_span(std::in_place, tracer,
                                               "stats.lookup");
          Estimator estimator(stats_);
          StatsDecompositionCostModel model(h,
                                            BuildEdgeStats(rq.cq, estimator));
          stats_span.reset();
          return QHypertreeDecomp(h, out_vars, model, sopt);
        }
        StructuralCostModel model;
        return QHypertreeDecomp(h, out_vars, model, sopt);
      };
      Result<QhdResult> decomp = Status::Internal("unset");
      if (options.use_plan_cache) {
        // The cache stores pre-Optimize trees, so the search closure
        // disables Optimize and it is re-run below on whichever tree comes
        // back — rebound hit or fresh miss — keeping pruning (a cheap,
        // purely structural pass) per-run while the expensive search is
        // shared. A hit skips the search *and* the stats lookup.
        QhdOptions search_opt = dopt;
        search_opt.run_optimize = false;
        PlanCacheOutcome cache_outcome;
        decomp = CachedQHypertreeDecomp(
            h, out_vars, edge_labels, stats_, width, use_statistics, gov,
            tracer, [&] { return run_search(search_opt); }, &cache_outcome);
        run.plan_cache = cache_outcome.ToString();
        attempt_span->Attr("plan_cache", run.plan_cache);
        if (decomp.ok() && run_optimize) {
          ScopedSpan optimize_span(tracer, "optimize");
          decomp->pruned = OptimizeDecomposition(h, &decomp->hd, gov);
          optimize_span.Attr("pruned", decomp->pruned);
          if (gov != nullptr && gov->exhausted()) {
            decomp = gov->trip_status();
          }
        }
      } else {
        decomp = run_search(dopt);
      }
      if (gov != nullptr) {
        attempt_span->Attr("nodes_visited", gov->stats().search_nodes);
      }
      attempt_span->Attr(
          "outcome",
          decomp.ok() ? "ok"
                      : (budget_tripped(decomp.status()) ? "budget-exceeded"
                                                         : "failure"));
      if (decomp.ok()) attempt_span->Attr("pruned", decomp->pruned);
      attempt_span.reset();
      run.plan_seconds += SecondsSince(attempt_start);

      if (decomp.ok()) {
        run.decomposition_width = decomp->width;
        run.pruned_lambda_entries = decomp->pruned;
        run.plan_description =
            "q-hypertree decomposition (width " +
            std::to_string(decomp->width) + ", " +
            std::to_string(decomp->pruned) + " pruned)";
        run.plan_details = decomp->hd.ToString(h);

        // Adaptive mid-query re-planning (DESIGN.md §6h). With a controller
        // on the context, the evaluator backs out when an intermediate blows
        // past its estimate; we then pin the observed scan cardinalities
        // into the edge statistics, re-enter the decomposition search, and
        // resume — checkpointed subtree results carry over. Structural mode
        // re-plans with the stats model on defaults: the pins land either
        // way.
        std::optional<ReplanController> controller;
        std::vector<StatsDecompositionCostModel::EdgeStats> edge_stats;
        if (options.enable_replan) {
          ReplanController::Options ropt;
          ropt.blowup_factor = options.replan_blowup_factor;
          ropt.min_rows = options.replan_min_rows;
          controller.emplace(ropt);
          controller->set_armed(options.max_replans > 0);
          run.ctx.replan = &*controller;
          Estimator estimator(stats_);
          edge_stats = BuildEdgeStats(rq.cq, estimator);
        }

        Hypertree current_hd = std::move(decomp->hd);
        auto exec_start = std::chrono::steady_clock::now();
        std::optional<ScopedSpan> exec_span(std::in_place, tracer, "execute");
        run.ctx.trace_parent = exec_span->id();
        Result<Relation> answer = Status::Internal("unset");
        for (;;) {
          if (controller.has_value()) {
            StatsDecompositionCostModel est_model(h, edge_stats);
            std::vector<double> estimates(current_hd.NumNodes(), 0.0);
            for (std::size_t p = 0; p < current_hd.NumNodes(); ++p) {
              estimates[p] = est_model.VertexRows(current_hd.node(p).lambda,
                                                  current_hd.node(p).chi);
            }
            controller->BeginTree(std::move(estimates));
          }
          answer = EvaluateDecomposition(rq, *catalog_, h, current_hd,
                                         &run.ctx);
          if (answer.ok()) break;
          if (!controller.has_value() || !controller->tripped()) {
            run.ctx.replan = nullptr;
            return answer.status();
          }

          // The evaluator tripped: account for the replan, then re-optimize
          // with the observed cardinalities pinned.
          ++run.replans;
          run.governor.replan_trips += 1;
          const std::size_t trip_node = controller->tripped_node();
          const std::size_t actual = controller->tripped_actual();
          const double estimate =
              std::max(1.0, controller->tripped_estimate());
          const double actual_f =
              static_cast<double>(std::max<std::size_t>(1, actual));
          const double error_factor = std::max(actual_f, estimate) /
                                      std::min(actual_f, estimate);
          MetricsRegistry& metrics = MetricsRegistry::Global();
          metrics.GetCounter(kMetricReplansTotal)->Increment();
          metrics.GetHistogram(kMetricEstimateErrorFactor)
              ->Record(static_cast<uint64_t>(std::llround(error_factor)));
          run.degradations.push_back(
              "mid-query replan: node " + std::to_string(trip_node) +
              " produced " + std::to_string(actual) + " rows vs estimate " +
              std::to_string(static_cast<std::size_t>(estimate)) +
              "; re-planning with observed cardinalities");
          std::optional<ScopedSpan> replan_span(std::in_place, tracer,
                                                "replan");
          replan_span->Attr("node", trip_node);
          replan_span->Attr("actual", actual);
          replan_span->Attr("estimate",
                            static_cast<std::size_t>(estimate));
          replan_span->Attr("checkpoints",
                            controller->checkpoints_stored());

          for (const auto& [atom, rows] : controller->ObservedEdgeRows()) {
            if (atom >= edge_stats.size()) continue;
            const double r = std::max(1.0, static_cast<double>(rows));
            edge_stats[atom].rows = r;
            for (auto& [var, distinct] : edge_stats[atom].distinct) {
              (void)var;
              distinct = std::min(distinct, r);
            }
          }

          // Fresh node/memory budgets for the re-planning search and the
          // resumed evaluation; the wall deadline keeps running.
          ResourceGovernor* rgov = begin_attempt();
          auto replan_start = std::chrono::steady_clock::now();
          QhdOptions sopt2;
          sopt2.max_width = width;
          sopt2.run_optimize = run_optimize;
          sopt2.governor = rgov;
          sopt2.pool = pool;
          sopt2.num_threads = options.num_threads;
          sopt2.tracer = tracer;
          StatsDecompositionCostModel pinned_model(h, edge_stats);
          // Deliberately bypasses the plan cache: a pinned search is
          // specific to this execution's observations.
          auto re = QHypertreeDecomp(h, out_vars, pinned_model, sopt2);
          run.plan_seconds += SecondsSince(replan_start);
          if (re.ok()) {
            current_hd = std::move(re->hd);
            run.decomposition_width = re->width;
            run.pruned_lambda_entries = re->pruned;
            run.plan_description =
                "q-hypertree decomposition (width " +
                std::to_string(re->width) + ", " +
                std::to_string(re->pruned) + " pruned, replanned x" +
                std::to_string(run.replans) + ")";
            run.plan_details = current_hd.ToString(h);
          }
          // On search failure the current tree stands — the checkpoints
          // still short-circuit its finished subtrees.
          replan_span.reset();
          controller->set_armed(run.replans < options.max_replans);
        }
        if (controller.has_value()) {
          // Canonical order: the resumed tree may emit rows in a different
          // order, so every replan-armed run sorts its answer — a replanned
          // query and its never-replanned twin become byte-identical.
          answer->SortBy({});
          run.ctx.replan = nullptr;
        }
        auto out = EvaluateSelectOutput(rq, *answer, &run.ctx);
        if (!out.ok()) return out.status();
        run.output = std::move(out.value());
        exec_span.reset();
        run.exec_seconds = SecondsSince(exec_start);
        AnnotatePlanDetails(tracer, h, current_hd, &run);
        seal();
        return run;
      }
      if (budget_tripped(decomp.status())) {
        if (width > 1) {
          run.degradations.push_back(
              "q-HD search at width " + std::to_string(width) +
              " exceeded its budget; retrying at width " +
              std::to_string(width - 1));
          --width;
          continue;
        }
        run.degradations.push_back(
            "q-HD search at width 1 exceeded its budget; falling back to "
            "the DP plan");
        mode = OptimizerMode::kDpStatistics;
      } else if (decomp.status().code() == StatusCode::kNotFound &&
                 options.fallback_to_dp) {
        run.degradations.push_back(
            "q-HD found no rooted decomposition of width <= " +
            std::to_string(width) + "; falling back to the DP plan");
        mode = OptimizerMode::kDpStatistics;  // hybrid fallback below
      } else {
        return decomp.status();
      }
    }
  }

  // --- Quantitative plan modes (and the hybrid fallback). -------------------
  start = std::chrono::steady_clock::now();
  std::unique_ptr<JoinPlan> plan;
  if (mode == OptimizerMode::kDpStatistics) {
    ResourceGovernor* gov = begin_attempt();
    std::optional<ScopedSpan> stats_span(std::in_place, tracer, "stats.lookup");
    Estimator estimator(stats_);
    JoinGraph graph = BuildJoinGraph(rq, estimator);
    PlanCostModel cost(graph);
    stats_span.reset();
    // Left-deep System-R search: the plan space of the commercial
    // optimizers the paper benchmarked against. (Bushy DP is available
    // via DpOptions for library users.)
    DpOptions dp_options;
    dp_options.bushy = false;
    dp_options.governor = gov;
    std::optional<ScopedSpan> search_span(std::in_place, tracer, "search.dp");
    auto dp = DpOptimize(graph, cost, dp_options);
    if (gov != nullptr) {
      search_span->Attr("nodes_visited", gov->stats().search_nodes);
    }
    search_span->Attr("outcome", dp.ok() ? "ok" : "budget-exceeded");
    search_span.reset();
    if (dp.ok()) {
      plan = std::move(dp.value());
    } else if (budget_tripped(dp.status())) {
      // Bottom rung: the genetic search is iteration-bounded, so it always
      // produces some plan (unless the wall deadline itself has passed).
      run.degradations.push_back(
          "DP join search exceeded its budget; falling back to GEQO");
      mode = OptimizerMode::kGeqoDefaults;
    } else {
      return dp.status();
    }
  }
  if (plan == nullptr && mode == OptimizerMode::kNaive) {
    plan = NaiveFromOrderPlan(rq.cq.atoms.size(), JoinAlgo::kNestedLoop);
    begin_attempt();  // execution still honors the deadline
  }
  if (plan == nullptr && mode == OptimizerMode::kGeqoDefaults) {
    ResourceGovernor* gov = begin_attempt(/*last_resort=*/run.used_fallback());
    // No statistics: the estimator runs on PostgreSQL-style defaults, and
    // the optimizer prefers nested loops for inputs it believes are small
    // — which, under default estimates, is all of them.
    Estimator estimator(nullptr);
    JoinGraph graph = BuildJoinGraph(rq, estimator);
    PlanCostModel cost(graph);
    GeqoOptions geqo;
    geqo.seed = options.seed;
    geqo.nested_loop_threshold = 2000.0;
    geqo.governor = gov;
    std::optional<ScopedSpan> search_span(std::in_place, tracer, "search.geqo");
    auto best = GeqoOptimize(graph, cost, geqo);
    if (gov != nullptr) {
      search_span->Attr("nodes_visited", gov->stats().search_nodes);
    }
    search_span.reset();
    if (!best.ok()) return best.status();
    plan = std::move(best.value());
  }
  if (plan == nullptr) return Status::Internal("unhandled optimizer mode");

  run.plan_seconds += SecondsSince(start);
  if (run.plan_description.empty() || run.used_fallback()) {
    run.plan_description = (run.used_fallback() ? "fallback: " : "") +
                           plan->ToString(rq);
  }
  run.plan_details = plan->ToString(rq) + "\n";

  auto exec_start = std::chrono::steady_clock::now();
  std::optional<ScopedSpan> exec_span(std::in_place, tracer, "execute");
  run.ctx.trace_parent = exec_span->id();
  auto joined = ExecuteJoinPlan(*plan, rq, *catalog_, &run.ctx);
  if (!joined.ok()) return joined.status();
  auto answer = ProjectToOutputVars(rq, *joined, &run.ctx);
  if (!answer.ok()) return answer.status();
  auto out = EvaluateSelectOutput(rq, *answer, &run.ctx);
  if (!out.ok()) return out.status();
  run.output = std::move(out.value());
  exec_span.reset();
  run.exec_seconds = SecondsSince(exec_start);
  seal();
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

  Result<QhdResult> decomp = Status::Internal("unset");
  if (options.mode == OptimizerMode::kQhdStructural || stats_ == nullptr) {
    StructuralCostModel model;
    decomp = QHypertreeDecomp(h, out_vars, model, qhd);
  } else {
    Estimator estimator(stats_);
    StatsDecompositionCostModel model(h, BuildEdgeStats(rq->cq, estimator));
    decomp = QHypertreeDecomp(h, out_vars, model, qhd);
  }
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

  for (std::size_t i = 0; i < rewritten.view_bodies.size(); ++i) {
    HybridOptimizer engine(&scratch, nullptr);
    auto run = engine.Run(rewritten.view_bodies[i], options);
    if (!run.ok()) return run.status();
    ctx->rows_charged += run->ctx.rows_charged;
    ctx->work_charged += run->ctx.work_charged;
    ctx->NotePeak(run->ctx.peak_rows);
    scratch.Put(rewritten.view_names[i], std::move(run->output));
  }
  HybridOptimizer engine(&scratch, nullptr);
  auto run = engine.Run(rewritten.final_statement, options);
  if (!run.ok()) return run.status();
  ctx->rows_charged += run->ctx.rows_charged;
  ctx->work_charged += run->ctx.work_charged;
  ctx->NotePeak(run->ctx.peak_rows);
  return std::move(run->output);
}

}  // namespace htqo
