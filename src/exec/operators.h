// Physical operators. Every operator fully materializes its output and
// charges an ExecContext, whose budgets realize the paper's "does not
// terminate after 10 minutes" observations as deterministic DNF outcomes in
// the benchmark harness instead of wall-clock blow-ups.
//
// Column-naming convention: all intermediate relations carry one column per
// CQ variable, named with the variable's name. Joins are therefore natural
// joins on shared column names, and the q-HD evaluator's chi-projections are
// name-based projections.

#ifndef HTQO_EXEC_OPERATORS_H_
#define HTQO_EXEC_OPERATORS_H_

#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cq/isolator.h"
#include "exec/spill.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "util/governor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace htqo {

class ReplanController;
struct ShardRuntime;

// Budget/accounting shared by one query execution. Counters saturate at
// SIZE_MAX instead of wrapping, so near-max budgets cannot be lapped.
//
// Thread safety: the counters are atomic because the parallel join/semijoin
// kernels and tree-wave evaluators charge one shared context from every pool
// lane. Atomic saturating adds commute, so the totals — and therefore
// whether a budget trips — are identical at any thread count; only *which*
// charge call observes the crossing varies. Budgets are plain fields set
// before execution starts.
struct ExecContext {
  // Max rows any single operator run may emit in total.
  std::size_t row_budget = std::numeric_limits<std::size_t>::max();
  // Max abstract work units (nested-loop probes, hash probes, scan rows).
  std::size_t work_budget = std::numeric_limits<std::size_t>::max();
  // Optional query governor: every charge is forwarded, so a wall-clock
  // deadline or cancellation also stops execution, not just the searches.
  // Borrowed; the owner (HybridOptimizer::RunResolved) clears it before the
  // context outlives the governor.
  ResourceGovernor* governor = nullptr;
  // Parallel execution: nullptr (the default) keeps every operator on the
  // exact serial code path; a pool plus num_threads > 1 unlocks the
  // partitioned kernels. Borrowed from ThreadPool::Shared.
  ThreadPool* pool = nullptr;
  std::size_t num_threads = 1;
  // Memory-adaptive execution: with a SpillManager armed, an operator whose
  // projected working set would push live charged memory past
  // soft_memory_bytes takes the Grace-partitioned spill path instead of
  // materializing (and possibly hard-tripping the governor's memory budget)
  // in memory. Borrowed; cleared by the owner like `governor`.
  SpillManager* spill = nullptr;
  std::size_t soft_memory_bytes = std::numeric_limits<std::size_t>::max();
  // Tracing: null tracer = off (one branch per operator). `trace_parent` is
  // the span id operator spans attach to when the worker's thread-local
  // stack is empty (pool lanes); the wave dispatchers repoint it between
  // barrier waves. Borrowed like `governor`.
  Tracer* tracer = nullptr;
  uint64_t trace_parent = 0;
  // Adaptive mid-query re-planning (exec/adaptive.h): with a controller
  // armed, ScanAtom reports actual cardinalities and the q-HD evaluator
  // checks intermediates against their estimates at every wave barrier.
  // Borrowed like `governor`; nullptr (the default) keeps every operator on
  // the exact non-adaptive code path.
  ReplanController* replan = nullptr;
  // Sharded evaluation (exec/shard.h): with a runtime attached, the
  // Yannakakis/q-HD reduction passes run as a hash-partitioned semijoin
  // program with Bloom-filter exchange between shard pieces. Borrowed like
  // `governor`; nullptr (the default) keeps the single-shard code paths.
  // Replan-armed runs ignore it (replanning already owns the wave
  // barriers); sharding silently stays off there.
  ShardRuntime* shard = nullptr;

  std::atomic<std::size_t> rows_charged{0};
  std::atomic<std::size_t> work_charged{0};
  // High-water mark of single-relation size, for reporting.
  std::atomic<std::size_t> peak_rows{0};
  // Build-side probe count of the hash join/semijoin kernels (one add per
  // probe batch, not per row); feeds the htqo_hash_probes_per_query metric.
  std::atomic<std::size_t> hash_probes{0};
  // Probes the blocked Bloom filter resolved without a chain walk. A
  // deterministic function of the input data (the filter is built from the
  // same precomputed hashes at every thread count), so serial and parallel
  // runs report identical counts. Feeds htqo_bloom_skips_per_query.
  std::atomic<std::size_t> bloom_skips{0};
  // Columnar batches processed by the batch kernels, spill partitions
  // included. Feeds EXPLAIN ANALYZE per-operator batch counts and the
  // htqo_exec_batches_per_query metric. Deterministic at any thread count:
  // the parallel grain equals kBatchRows, so chunk boundaries match.
  std::atomic<std::size_t> batches{0};

  ExecContext() = default;
  // Copyable/assignable despite the atomics so QueryRun (which embeds one)
  // still moves through Result<T>. Only the owner copies, never a worker.
  ExecContext(const ExecContext& other) { *this = other; }
  ExecContext& operator=(const ExecContext& other) {
    row_budget = other.row_budget;
    work_budget = other.work_budget;
    governor = other.governor;
    pool = other.pool;
    num_threads = other.num_threads;
    spill = other.spill;
    soft_memory_bytes = other.soft_memory_bytes;
    tracer = other.tracer;
    trace_parent = other.trace_parent;
    replan = other.replan;
    shard = other.shard;
    rows_charged.store(other.rows_charged.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    work_charged.store(other.work_charged.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    peak_rows.store(other.peak_rows.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    hash_probes.store(other.hash_probes.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    bloom_skips.store(other.bloom_skips.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    batches.store(other.batches.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  // Parent for an operator span: the innermost open span on this thread
  // (serial path and nested operators), else the cross-thread parent a
  // dispatcher left in `trace_parent` (pool lanes start with an empty
  // thread-local stack).
  uint64_t SpanParent() const {
    const uint64_t tls = Tracer::CurrentParent(tracer);
    return tls != 0 ? tls : trace_parent;
  }

  bool parallel() const { return pool != nullptr && num_threads > 1; }

  Status ChargeRows(std::size_t rows) {
    if (AtomicSaturatingAdd(&rows_charged, rows) > row_budget) {
      return Status::ResourceExhausted("row budget exceeded");
    }
    if (governor != nullptr) return governor->ChargeExecution(rows);
    return Status::Ok();
  }
  Status ChargeWork(std::size_t work) {
    if (AtomicSaturatingAdd(&work_charged, work) > work_budget) {
      return Status::ResourceExhausted("work budget exceeded");
    }
    if (governor != nullptr) return governor->ChargeExecution(work);
    return Status::Ok();
  }
  void NotePeak(std::size_t rows) {
    AtomicMax(&peak_rows, rows);
    if (governor != nullptr) {
      governor->NotePeakMemory(rows * sizeof(Value));
    }
  }
  // Relation-aware overload: reports the real footprint — tuple store plus
  // interned-string payload bytes (each distinct string counted once) — so
  // the governor's peak-memory high-water mark reflects string-heavy
  // relations, not just their 16-byte handles. Like the row overload it
  // only records a peak: materialized relations never count against
  // memory_budget_bytes (row_budget bounds them). The row-count
  // high-water mark is unchanged.
  void NotePeak(const Relation& rel) {
    AtomicMax(&peak_rows, rel.NumRows());
    if (governor != nullptr) {
      governor->NotePeakMemory(rel.FootprintBytes());
    }
  }

  // True when materializing `projected_bytes` more working set should take
  // the spill path: a manager is armed and the projection added to the
  // governor's live balance crosses the soft threshold. Operators ask it
  // only through SpillOrCharge.
  bool ShouldSpill(std::size_t projected_bytes) const {
    if (spill == nullptr) return false;
    std::size_t live =
        governor != nullptr ? governor->live_memory_bytes() : 0;
    return SaturatingAdd(live, projected_bytes) > soft_memory_bytes;
  }

};

// RAII live-memory charge for an operator working set (hash tables, loaded
// spill partitions): charges the governor on construction (status()
// reports a hard memory-budget trip), releases the same amount on
// destruction — every operator exit path, error or success, credits the
// governor back.
class ScopedTableMemory {
 public:
  ScopedTableMemory(ExecContext* ctx, std::size_t bytes)
      : governor_(ctx->governor), bytes_(bytes) {
    if (governor_ != nullptr) status_ = governor_->ChargeMemory(bytes);
  }
  ~ScopedTableMemory() {
    if (governor_ != nullptr) governor_->ReleaseMemory(bytes_);
  }
  ScopedTableMemory(const ScopedTableMemory&) = delete;
  ScopedTableMemory& operator=(const ScopedTableMemory&) = delete;

  const Status& status() const { return status_; }

 private:
  ResourceGovernor* governor_;
  std::size_t bytes_;
  Status status_;
};

// Scans the base relation of atom `atom_index` of `rq`: applies the atom's
// constant filters, local comparisons and intra-atom variable equalities,
// and projects to one column per bound variable (named after the variable;
// the synthetic tuple-id column holds the source row index).
Result<Relation> ScanAtom(const ResolvedQuery& rq, std::size_t atom_index,
                          const Catalog& catalog, ExecContext* ctx);

// Natural hash join on all shared column names (cross product when none).
// Output schema: left columns followed by right-only columns. Bag semantics.
Result<Relation> NaturalHashJoin(const Relation& left, const Relation& right,
                                 ExecContext* ctx);

// Same result as NaturalHashJoin, computed by nested loops — the execution
// regime of a misconfigured/statistics-less system.
Result<Relation> NaturalNestedLoopJoin(const Relation& left,
                                       const Relation& right,
                                       ExecContext* ctx);

// Rows of `left` having at least one natural-join partner in `right`.
Result<Relation> NaturalSemiJoin(const Relation& left, const Relation& right,
                                 ExecContext* ctx);

// Projects `rel` onto the named columns (in that order; unknown names are a
// checked failure) and deduplicates through SpillableDistinct below, so a
// projection whose dedup working set crosses the soft memory threshold
// spills instead of materializing its hash index in memory.
Result<Relation> ProjectByName(const Relation& rel,
                               const std::vector<std::string>& columns,
                               ExecContext* ctx);

// Duplicate elimination with working-set accounting and a Grace-partitioned
// spill path: the first occurrence of every row, in input order, whether or
// not it spills. A zero-arity input keeps at most one row.
Result<Relation> SpillableDistinct(const Relation& rel, ExecContext* ctx);

// Column indices of `names` within rel's schema (checked).
std::vector<std::size_t> IndicesOf(const Relation& rel,
                                   const std::vector<std::string>& names);

// ---------- Grace spill driver (DESIGN.md §6c) ----------------------------

// The spill question, asked in one place for every operator and for every
// loaded spill partition: true when the working set takes the Grace path —
// the input can be partitioned (`partitionable`) and ctx->ShouldSpill
// says `working_bytes` crosses the soft threshold. On false the caller runs
// in memory; when `charge` is given it then holds `working_bytes` against
// the governor until the caller drops it (its status() reports a trip).
bool SpillOrCharge(ExecContext* ctx, bool partitionable,
                   std::size_t working_bytes,
                   std::optional<ScopedTableMemory>* charge);

// A Grace operator's output before its merge: rows, each with the tag (the
// input row index) it was emitted for, recorded as runs — one run per
// kernel call, tags ascending within a run.
struct TaggedRuns {
  Relation rows;
  std::vector<uint64_t> tags;
  std::vector<std::size_t> ends;  // one past each run's last row
};

// One input of the Grace driver and the key columns it is partitioned on.
struct GraceInput {
  const Relation* rel = nullptr;
  std::vector<std::size_t> key_cols;
};

// What an operator hands the Grace driver. Each callback sees one loaded
// partition: one relation per GraceInput, in the same order.
struct GraceOperator {
  // In-memory working set over a partition: the recursion's spill question.
  std::function<std::size_t(std::span<const Relation>)> working_bytes;
  // Bytes a loaded partition keeps resident while it drains.
  std::function<std::size_t(std::span<const Relation>)> loaded_bytes;
  // The in-memory kernel over one partition, each loaded relation with its
  // input's key columns: appends its output rows to `out` with tags from
  // `tags` (parallel to the last input), ascending.
  std::function<Status(std::span<const GraceInput> in,
                       const std::vector<uint64_t>& tags, TaggedRuns* out)>
      kernel;
};

// Grace-partitioned evaluation (DeWitt et al., SIGMOD 1984) of an operator
// over one input or two: every input is hash-partitioned to disk on its key
// columns, the last one tagged with its row index (a build side of two goes
// untagged). Partitions drain one at a time under the operator's loaded
// charge; one whose working set still crosses the soft threshold
// re-partitions, up to SpillOptions::max_recursion_depth and above a row
// floor. The kernels' runs merge back into the last input's row order, so
// the output is byte-identical to the operator's in-memory path.
Result<Relation> GraceEvaluate(const std::vector<GraceInput>& inputs,
                               const GraceOperator& op, Schema out_schema,
                               ExecContext* ctx);

namespace internal {

// K-way merge of `runs` into `out` by ascending tag: equal tags keep run
// order, then their order within the run. The Grace driver uses it to
// reassemble partitioned output in serial emission order, in O(n log runs)
// with no table sized by the largest tag. Exposed for bench_operators and
// the unit tests.
Status MergeRuns(const TaggedRuns& runs, Relation* out, ExecContext* ctx);

}  // namespace internal

}  // namespace htqo

#endif  // HTQO_EXEC_OPERATORS_H_
