#include "exec/operators.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "exec/adaptive.h"
#include "exec/batch.h"
#include "exec/spill.h"
#include "util/bloom.h"
#include "util/hash_chain.h"

namespace htqo {

namespace {

// Minimum input size before an operator fans out onto the pool; below this
// the chunk bookkeeping costs more than it buys.
constexpr std::size_t kParallelRowThreshold = 2048;
// Rows per chunk. Chunk boundaries never affect results: per-chunk outputs
// are concatenated in chunk order, which equals serial row order. Equals
// kBatchRows so serial batch loops and pool lanes process identical
// batches — per-batch charges and batch counts match at any thread count.
constexpr std::size_t kParallelGrain = 1024;
static_assert(kParallelGrain == kBatchRows);

bool UseParallel(const ExecContext* ctx, std::size_t rows) {
  return ctx->parallel() && rows >= kParallelRowThreshold;
}

// ---------- Batch kernels ---------------------------------------------------
//
// Operators extract columns into typed vectors (exec/batch.h) and run tight
// per-batch loops, charging the context once per batch. Hashes and equality
// reproduce Value::Hash/Value::Compare bit for bit, and batch boundaries
// equal the parallel grain, so output bytes, charge totals and probe/bloom
// meters are identical at any thread count.

// `a <op> b` over int64 payloads — Value::Compare's int64/date branch.
bool I64Cmp(CompareOp op, int64_t a, int64_t b) {
  switch (op) {
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return a != b;
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return a <= b;
    case CompareOp::kGt: return a > b;
    case CompareOp::kGe: return a >= b;
  }
  return false;
}

// `a <op> b` over doubles with Value::Compare's ordering (a NaN operand
// makes Compare return 0, i.e. "equal"), so kEq/kNe/kLe/kGe must be spelled
// through < and > rather than ==.
bool F64Cmp(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kEq: return !(a < b) && !(a > b);
    case CompareOp::kNe: return (a < b) || (a > b);
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return !(a > b);
    case CompareOp::kGt: return a > b;
    case CompareOp::kGe: return !(a < b);
  }
  return false;
}

// Narrows `sel` to the elements of `cv` satisfying `f`. Typed loops cover
// the simple column-op-constant cases; membership/NOT IN and class mixes
// the typed loops can't express take AtomFilter::Matches on reconstructed
// Values — exactly the row path's predicate (checked failures included).
void FilterSelection(const AtomFilter& f, const ColumnVector& cv,
                     Selection* sel) {
  Selection& s = *sel;
  std::size_t kept = 0;
  if (f.in_values.empty() && !f.negated) {
    const ValueType vt = f.value.type();
    if (cv.cls == ColumnClass::kI64 &&
        (vt == ValueType::kInt64 || vt == ValueType::kDate)) {
      // Branchless compaction (here and in the loops below): the survivor
      // store always executes and the cursor advances by the predicate
      // bit, so mid-selectivity batches cost no branch mispredictions.
      const int64_t c = f.value.AsInt64();
      for (uint32_t r : s) {
        s[kept] = r;
        kept += I64Cmp(f.op, cv.i64[r], c) ? 1 : 0;
      }
      s.resize(kept);
      return;
    }
    const bool col_num =
        cv.cls == ColumnClass::kI64 || cv.cls == ColumnClass::kF64;
    if (col_num && vt != ValueType::kString) {
      // At least one double side: Value::Compare promotes both to double.
      const double c = f.value.AsDouble();
      if (cv.cls == ColumnClass::kF64) {
        for (uint32_t r : s) {
          s[kept] = r;
          kept += F64Cmp(f.op, cv.f64[r], c) ? 1 : 0;
        }
      } else {
        for (uint32_t r : s) {
          s[kept] = r;
          kept += F64Cmp(f.op, static_cast<double>(cv.i64[r]), c) ? 1 : 0;
        }
      }
      s.resize(kept);
      return;
    }
    if (cv.cls == ColumnClass::kStr && vt == ValueType::kString &&
        f.op == CompareOp::kEq) {
      const std::string* c = &f.value.AsString();
      for (uint32_t r : s) {
        s[kept] = r;
        kept += cv.str[r] == c ? 1 : 0;  // interned pointer equality
      }
      s.resize(kept);
      return;
    }
  }
  for (uint32_t r : s) {
    if (f.Matches(cv.ValueAt(r))) s[kept++] = r;
  }
  s.resize(kept);
}

// Narrows `sel` by the column/column comparison `lc <op> rc`.
void CompareSelection(CompareOp op, const ColumnVector& lc,
                      const ColumnVector& rc, Selection* sel) {
  Selection& s = *sel;
  std::size_t kept = 0;
  if (lc.cls == ColumnClass::kI64 && rc.cls == ColumnClass::kI64) {
    for (uint32_t r : s) {
      s[kept] = r;
      kept += I64Cmp(op, lc.i64[r], rc.i64[r]) ? 1 : 0;
    }
    s.resize(kept);
    return;
  }
  const bool l_num = lc.cls == ColumnClass::kI64 || lc.cls == ColumnClass::kF64;
  const bool r_num = rc.cls == ColumnClass::kI64 || rc.cls == ColumnClass::kF64;
  if (l_num && r_num) {
    for (uint32_t r : s) {
      const double a = lc.cls == ColumnClass::kF64
                           ? lc.f64[r]
                           : static_cast<double>(lc.i64[r]);
      const double b = rc.cls == ColumnClass::kF64
                           ? rc.f64[r]
                           : static_cast<double>(rc.i64[r]);
      s[kept] = r;
      kept += F64Cmp(op, a, b) ? 1 : 0;
    }
    s.resize(kept);
    return;
  }
  for (uint32_t r : s) {
    if (EvalCompare(op, lc.ValueAt(r), rc.ValueAt(r))) s[kept++] = r;
  }
  s.resize(kept);
}

// Narrows `sel` to elements where the two columns agree (intra-atom
// variable equality), under Value::Compare()==0 semantics.
void EqualitySelection(const ColumnVector& a, const ColumnVector& b,
                       Selection* sel) {
  Selection& s = *sel;
  std::size_t kept = 0;
  for (uint32_t r : s) {
    if (ColumnElemsEqual(a, r, b, r)) s[kept++] = r;
  }
  s.resize(kept);
}

// Gathers the selected elements of `cv` into row-major output at column
// `at`: base[k * stride + at] = element sel[k], with exact type tags and
// no intern-pool lookups.
void GatherColumn(const ColumnVector& cv, const Selection& sel, Value* base,
                  std::size_t stride, std::size_t at) {
  switch (cv.cls) {
    case ColumnClass::kI64:
      if (cv.value_tag == ValueType::kDate) {
        for (std::size_t k = 0; k < sel.size(); ++k) {
          base[k * stride + at] = Value::Date(cv.i64[sel[k]]);
        }
      } else {
        for (std::size_t k = 0; k < sel.size(); ++k) {
          base[k * stride + at] = Value::Int64(cv.i64[sel[k]]);
        }
      }
      return;
    case ColumnClass::kF64:
      for (std::size_t k = 0; k < sel.size(); ++k) {
        base[k * stride + at] = Value::Double(cv.f64[sel[k]]);
      }
      return;
    case ColumnClass::kStr:
      for (std::size_t k = 0; k < sel.size(); ++k) {
        base[k * stride + at] = Value::InternedString(cv.str[sel[k]]);
      }
      return;
    case ColumnClass::kGeneric:
      for (std::size_t k = 0; k < sel.size(); ++k) {
        base[k * stride + at] = cv.generic[sel[k]];
      }
      return;
  }
}

// Number of kBatchRows batches covering `total` rows; the deterministic
// per-operator batch count reported on op spans.
std::size_t NumBatches(std::size_t total) {
  return (total + kBatchRows - 1) / kBatchRows;
}

// Distinct kernel: indices of the first occurrence of every row of `rel`,
// in input order. Dedups on one full-row KeyBlock (hashes equal HashRowKey
// over all columns) with typed equality against the kept rows. Counts one
// batch per kBatchRows input rows and charges nothing. Requires arity > 0. The in-memory distinct and every
// loaded spill partition run this same loop.
std::vector<uint32_t> DistinctKept(const Relation& rel, ExecContext* ctx) {
  std::vector<std::size_t> all_cols(rel.arity());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  const std::size_t n = rel.NumRows();
  KeyBlock keys = BuildKeyBlock(rel, all_cols);
  HashChainIndex seen(n);
  std::vector<uint32_t> kept;
  kept.reserve(n);
  for (std::size_t lo = 0; lo < n; lo += kBatchRows) {
    const std::size_t hi = std::min(lo + kBatchRows, n);
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t h = keys.hashes[r];
      bool dup = false;
      for (uint32_t it = seen.First(h); it != HashChainIndex::kEnd;
           it = seen.Next(it)) {
        if (keys.hashes[kept[it]] == h &&
            KeyRowsEqual(keys, kept[it], keys, r)) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        seen.Insert(h, kept.size());
        kept.push_back(static_cast<uint32_t>(r));
      }
    }
    ctx->batches.fetch_add(1, std::memory_order_relaxed);
  }
  return kept;
}

// Appends rows first_row + idx[k] of `rel` to `out` as whole-row memcpys.
void AppendRowsAt(const Relation& rel, std::size_t first_row,
                  const std::vector<uint32_t>& idx, Relation* out) {
  const std::size_t stride = rel.arity();
  Value* base = out->AppendRaw(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    std::copy_n(rel.RowPtr(first_row + idx[k]), stride, base + k * stride);
  }
}

// Build side of a hash join or semijoin: key columns and hashes
// (bit-identical to HashRowKey), a Bloom prefilter and a chain index over
// the hashes. Built once, then probed read-only from every lane, so chain
// order — and with it every candidate count and match order — is the same
// at any thread count.
struct HashBuild {
  KeyBlock key;
  BlockedBloomFilter bloom;
  HashChainIndex table;

  HashBuild(const Relation& rel, const std::vector<std::size_t>& cols)
      : key(BuildKeyBlock(rel, cols)),
        bloom(rel.NumRows()),
        table(rel.NumRows()) {
    for (std::size_t h : key.hashes) bloom.Add(h);
    for (std::size_t r = 0; r < rel.NumRows(); ++r) {
      table.Insert(key.hashes[r], r);
    }
  }
};

// What one probe batch visited: chain candidates (the hash join's
// per-candidate work) and probes the Bloom filter rejected.
struct ProbeTally {
  std::size_t candidates = 0;
  std::size_t bloom_skipped = 0;
};

// True when both key blocks are one int64 column. The hash is then a pure
// function of the payload, so payload equality decides exactly what the
// hash check + KeyRowsEqual pair decides — one load and compare per
// candidate.
bool SingleI64Key(const KeyBlock& a, const KeyBlock& b) {
  return a.cols.size() == 1 && a.cols[0].cls == ColumnClass::kI64 &&
         b.cols[0].cls == ColumnClass::kI64;
}

// Match kernel of the hash join and the semijoin: probes key rows [lo, hi)
// of `probe` against `build`, in probe order and LIFO chain order within a
// probe. The join (kSemi = false) calls emit(build row, probe row) for every
// match and tallies every chain candidate it visits — its per-candidate
// work. The semijoin (kSemi = true) stops at a probe row's first match and
// tallies no candidates: its work charge is the per-input-row charge.
template <bool kSemi, typename Emit>
ProbeTally ProbeMatches(const HashBuild& build, const KeyBlock& probe,
                        std::size_t lo, std::size_t hi, const Emit& emit) {
  ProbeTally tally;
  const bool key_i64 = SingleI64Key(build.key, probe);
  const int64_t* bkey_i64 = key_i64 ? build.key.cols[0].i64.data() : nullptr;
  const int64_t* pkey_i64 = key_i64 ? probe.cols[0].i64.data() : nullptr;
  for (std::size_t p = lo; p < hi; ++p) {
    const std::size_t h = probe.hashes[p];
    if (!build.bloom.MayContain(h)) {
      ++tally.bloom_skipped;
      continue;
    }
    if (key_i64) {
      const int64_t key = pkey_i64[p];
      for (uint32_t it = build.table.First(h); it != HashChainIndex::kEnd;
           it = build.table.Next(it)) {
        if (!kSemi) ++tally.candidates;
        if (bkey_i64[it] == key) {
          emit(it, static_cast<uint32_t>(p));
          if (kSemi) break;
        }
      }
      continue;
    }
    for (uint32_t it = build.table.First(h); it != HashChainIndex::kEnd;
         it = build.table.Next(it)) {
      if (!kSemi) ++tally.candidates;
      if (build.key.hashes[it] == h && KeyRowsEqual(build.key, it, probe, p)) {
        emit(it, static_cast<uint32_t>(p));
        if (kSemi) break;
      }
    }
  }
  return tally;
}

// Meters one probe batch of `probes` rows: one batch, the probes and their
// Bloom rejections, one work unit per tallied candidate and one row per
// emitted match.
Status MeterProbeBatch(ExecContext* ctx, std::size_t probes,
                       const ProbeTally& tally, std::size_t emitted) {
  ctx->batches.fetch_add(1, std::memory_order_relaxed);
  ctx->hash_probes.fetch_add(probes, std::memory_order_relaxed);
  ctx->bloom_skips.fetch_add(tally.bloom_skipped, std::memory_order_relaxed);
  if (tally.candidates > 0) {
    Status st = ctx->ChargeWork(tally.candidates);
    if (!st.ok()) return st;
  }
  if (emitted == 0) return Status::Ok();
  return ctx->ChargeRows(emitted);
}

// Output layout of a natural join: the left row, then the right row's
// right-only columns.
struct JoinShape {
  bool build_left;
  std::size_t left_arity;
  const std::vector<std::size_t>* right_only;
};

// Writes one joined row per match at `base`. `pdata` points at the probe
// row of key row 0 in the probe KeyBlock the matches index.
void GatherJoinRows(const JoinShape& shape, const Relation& build,
                    const Value* pdata, std::size_t parity,
                    const std::vector<std::pair<uint32_t, uint32_t>>& matches,
                    Value* base) {
  const std::size_t stride = shape.left_arity + shape.right_only->size();
  const std::size_t barity = build.arity();
  const Value* bdata = build.RowPtr(0);
  for (std::size_t k = 0; k < matches.size(); ++k) {
    const Value* brow = bdata + matches[k].first * barity;
    const Value* prow = pdata + matches[k].second * parity;
    const Value* lrow = shape.build_left ? brow : prow;
    const Value* rrow = shape.build_left ? prow : brow;
    Value* dst = base + k * stride;
    std::copy_n(lrow, shape.left_arity, dst);
    std::size_t i = shape.left_arity;
    for (std::size_t rc : *shape.right_only) dst[i++] = rrow[rc];
  }
}

// Runs range_body(lo, hi, sink) over [0, total) on the context's pool and
// appends the per-chunk sinks to `out` in chunk order — byte-identical to
// range_body(0, total, out) on one thread. Errors surface as the failing
// chunk with the lowest index (serial order), and a governor trip during
// the loop surfaces as the trip status even when chunks were skipped.
// `parent_span` (the caller's operator span, 0 = untraced) parents the
// per-chunk spans explicitly — chunks run on pool lanes whose thread-local
// span stack does not contain the operator.
Status ParallelAppend(
    ExecContext* ctx, std::size_t total, Relation* out, uint64_t parent_span,
    const std::function<Status(std::size_t, std::size_t, Relation*)>&
        range_body) {
  const std::size_t num_chunks =
      (total + kParallelGrain - 1) / kParallelGrain;
  std::vector<Relation> chunk_out(num_chunks, Relation{out->schema()});
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  ctx->pool->ParallelFor(
      0, total, kParallelGrain, ctx->num_threads, ctx->governor,
      [&](std::size_t lo, std::size_t hi) {
        ScopedSpan chunk_span(ctx->tracer, "chunk", parent_span);
        chunk_span.Attr("first_row", lo);
        chunk_span.Attr("rows", hi - lo);
        std::size_t c = lo / kParallelGrain;
        chunk_status[c] = range_body(lo, hi, &chunk_out[c]);
      });
  if (ctx->governor != nullptr && ctx->governor->exhausted()) {
    return ctx->governor->trip_status();
  }
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (!chunk_status[c].ok()) return chunk_status[c];
  }
  std::size_t merged_rows = out->NumRows();
  for (const Relation& chunk : chunk_out) merged_rows += chunk.NumRows();
  out->Reserve(merged_rows);
  for (const Relation& chunk : chunk_out) out->AppendFrom(chunk);
  return Status::Ok();
}

// Runs `batch_body` over [0, total) in kBatchRows strides, appending to
// `out`: on the pool through ParallelAppend when the context allows, else
// serially on this thread. Chunk boundaries are the same either way.
Status RunBatches(
    ExecContext* ctx, std::size_t total, Relation* out, uint64_t parent_span,
    const std::function<Status(std::size_t, std::size_t, Relation*)>&
        batch_body) {
  if (UseParallel(ctx, total)) {
    return ParallelAppend(ctx, total, out, parent_span, batch_body);
  }
  for (std::size_t lo = 0; lo < total; lo += kBatchRows) {
    Status s = batch_body(lo, std::min(lo + kBatchRows, total), out);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// Shared column names of two schemas, with their indices on both sides.
void SharedColumns(const Schema& left, const Schema& right,
                   std::vector<std::size_t>* lcols,
                   std::vector<std::size_t>* rcols,
                   std::vector<std::size_t>* right_only) {
  for (std::size_t r = 0; r < right.arity(); ++r) {
    auto l = left.IndexOf(right.column(r).name);
    if (l) {
      lcols->push_back(*l);
      rcols->push_back(r);
    } else {
      right_only->push_back(r);
    }
  }
}

Schema JoinedSchema(const Schema& left, const Schema& right,
                    const std::vector<std::size_t>& right_only) {
  std::vector<Column> cols = left.columns();
  for (std::size_t r : right_only) cols.push_back(right.column(r));
  return Schema(std::move(cols));
}

// ---------- Grace-style spill partitioning ---------------------------------
//
// When ExecContext::ShouldSpill says an operator's working set would cross
// the soft memory threshold, both inputs are hash-partitioned into
// SpillManager temp files and partition pairs are processed one at a time.
// Output rows are collected with a 64-bit tag — the probe row's original
// index — and merged back in tag order at the end, which reproduces the
// serial in-memory emission order byte for byte: key-equal rows always land
// in the same partition with their relative order preserved, and each
// loaded partition runs the in-memory operator's own kernel. Partition
// pairs are processed serially (the per-operator spill path is
// deterministic at any thread count); parallelism across tree-wave nodes is
// unaffected — each node's operator spills independently against the
// shared manager.

// Below this many build rows a partition is always processed in memory:
// with tiny soft thresholds (the equivalence tests force them) recursing on
// trivial partitions would only burn file handles until the depth cap.
constexpr std::size_t kMinSpillRows = 64;

// Working-set estimates in bytes, used both for the in-memory governor
// charge and the spill decision. A hash join pins the build rows, a chain
// index (~24 B/row with its hash array), and the probe hash array. The
// pinned side's interned-string payloads count once each (a 16-byte Value
// only holds the handle), so memory budgets and spill thresholds see the
// real footprint of string-heavy relations; numeric schemas skip the scan.
std::size_t JoinWorkingBytes(const Relation& build, const Relation& probe) {
  return build.NumRows() * (build.arity() * sizeof(Value) + 24) +
         build.StringPayloadBytes() + probe.NumRows() * 8;
}

std::size_t SemiJoinWorkingBytes(const Relation& right, const Relation& left) {
  return right.NumRows() * (right.arity() * sizeof(Value) + 24) +
         right.StringPayloadBytes() + left.NumRows() * 8;
}

std::size_t DistinctWorkingBytes(const Relation& rel) {
  return rel.NumRows() * (rel.arity() * sizeof(Value) + 16) +
         rel.StringPayloadBytes();
}

// Bytes a loaded partition pair keeps resident while its kernel runs.
std::size_t LoadedPairBytes(const Relation& build, const Relation& probe) {
  return build.NumRows() * (build.arity() * sizeof(Value) + 24) +
         probe.NumRows() * probe.arity() * sizeof(Value) +
         build.StringPayloadBytes() + probe.StringPayloadBytes();
}

// Partition index for `hash` at recursion `depth`: a depth-salted SplitMix64
// finalizer, decorrelated from the hash-chain bucket masks so a level-d
// partition re-splits at level d+1.
std::size_t SpillPartitionOf(std::size_t hash, std::size_t depth,
                             std::size_t fanout) {
  uint64_t z = (static_cast<uint64_t>(hash) + depth + 1) *
               0x9e3779b97f4a7c15ull;
  z ^= z >> 29;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 32;
  return static_cast<std::size_t>(z % fanout);
}

// Output rows plus the probe tags they were emitted for; merged by tag once
// a Grace operator has drained every partition.
struct TaggedRows {
  Relation rows;
  std::vector<uint64_t> tags;
};

// Hash-partitions `rel` on `cols` into the manager's fanout, writing each
// row with its tag from `tags` (parallel to rows), or untagged runs when
// `tags` is nullptr. Key hashes are computed per batch through the columnar
// extractor (one batch of key columns resident at a time — this path runs
// under memory pressure), and one work unit per row, charged per batch,
// covers the encode+write.
Result<std::vector<std::unique_ptr<SpillFile>>> PartitionToSpill(
    const Relation& rel, const std::vector<std::size_t>& cols,
    const std::vector<uint64_t>* tags, std::size_t depth, ExecContext* ctx) {
  HTQO_CHECK(!cols.empty());
  const std::size_t fanout = ctx->spill->options().fanout;
  std::vector<std::unique_ptr<SpillFile>> parts;
  parts.reserve(fanout);
  for (std::size_t i = 0; i < fanout; ++i) {
    auto file = ctx->spill->Create(/*tagged=*/tags != nullptr);
    if (!file.ok()) return file.status();
    parts.push_back(std::move(*file));
  }
  for (std::size_t lo = 0; lo < rel.NumRows(); lo += kBatchRows) {
    const std::size_t hi = std::min(lo + kBatchRows, rel.NumRows());
    Status w = ctx->ChargeWork(hi - lo);
    if (!w.ok()) return w;
    KeyBlock keys = BuildKeyBlock(rel, cols, lo, hi - lo);
    for (std::size_t r = lo; r < hi; ++r) {
      std::size_t p = SpillPartitionOf(keys.hashes[r - lo], depth, fanout);
      Status s = tags != nullptr ? parts[p]->Append((*tags)[r], rel.Row(r))
                                 : parts[p]->Append(rel.Row(r));
      if (!s.ok()) return s;
    }
    ctx->batches.fetch_add(1, std::memory_order_relaxed);
  }
  for (auto& part : parts) {
    Status s = part->Finish();
    if (!s.ok()) return s;
  }
  return parts;
}

std::vector<uint64_t> IdentityTags(std::size_t n) {
  std::vector<uint64_t> tags(n);
  std::iota(tags.begin(), tags.end(), uint64_t{0});
  return tags;
}

// Runs on one in-memory partition pair: build rows, probe rows and the
// probe rows' tags.
using PairKernel = std::function<Status(
    const Relation&, const Relation&, const std::vector<uint64_t>&)>;

// Recursive Grace driver of the hash join and the semijoin: partitions
// build and probe on their key columns (build runs untagged: only the
// probe side's order is merged back), then drains partition pairs
// serially, repartitioning a pair while it still exceeds the soft threshold
// and the depth cap allows. At the cap `kernel` runs in memory regardless
// (correctness over the threshold; all-equal keys cannot be split).
Status GracePairs(const Relation& build, const Relation& probe,
                  const std::vector<uint64_t>& probe_tags,
                  const std::vector<std::size_t>& bcols,
                  const std::vector<std::size_t>& pcols, std::size_t depth,
                  ExecContext* ctx, const PairKernel& kernel) {
  ctx->spill->NoteRecursionDepth(depth + 1);
  auto bparts = PartitionToSpill(build, bcols, nullptr, depth, ctx);
  if (!bparts.ok()) return bparts.status();
  auto pparts = PartitionToSpill(probe, pcols, &probe_tags, depth, ctx);
  if (!pparts.ok()) return pparts.status();
  const std::size_t max_depth = ctx->spill->options().max_recursion_depth;
  for (std::size_t i = 0; i < bparts->size(); ++i) {
    // The spill path is serial per operator, so the operator span (and,
    // when recursing, the outer partition span) is open on this thread.
    ScopedSpan part_span(ctx->tracer, "spill.partition");
    part_span.Attr("depth", depth);
    part_span.Attr("index", i);
    Relation bpart{build.schema()};
    Relation ppart{probe.schema()};
    std::vector<uint64_t> ptags;
    Status rs = (*bparts)[i]->ReadBack(&bpart, nullptr);
    if (!rs.ok()) return rs;
    rs = (*pparts)[i]->ReadBack(&ppart, &ptags);
    if (!rs.ok()) return rs;
    (*bparts)[i].reset();  // unlink both files before the pair runs
    (*pparts)[i].reset();
    part_span.Attr("rows_build", bpart.NumRows());
    part_span.Attr("rows_probe", ppart.NumRows());
    ScopedTableMemory loaded(ctx, LoadedPairBytes(bpart, ppart));
    if (!loaded.status().ok()) return loaded.status();
    if (depth + 1 < max_depth && bpart.NumRows() > kMinSpillRows &&
        ctx->ShouldSpill(JoinWorkingBytes(bpart, ppart))) {
      rs = GracePairs(bpart, ppart, ptags, bcols, pcols, depth + 1, ctx,
                      kernel);
    } else {
      rs = kernel(bpart, ppart, ptags);
    }
    if (!rs.ok()) return rs;
  }
  return Status::Ok();
}

// Grace hash join: each loaded partition pair runs the in-memory join's
// match kernel batch by batch, and every match carries its probe row's tag.
Result<Relation> GraceHashJoin(const Relation& left, const Relation& right,
                               bool build_left,
                               const std::vector<std::size_t>& lcols,
                               const std::vector<std::size_t>& rcols,
                               const std::vector<std::size_t>& right_only,
                               Schema out_schema, ExecContext* ctx) {
  ctx->spill->NoteSpillEvent();
  const JoinShape shape{build_left, left.arity(), &right_only};
  const std::vector<std::size_t>& bcols = build_left ? lcols : rcols;
  const std::vector<std::size_t>& pcols = build_left ? rcols : lcols;
  TaggedRows collected{Relation{out_schema}, {}};
  auto kernel = [&](const Relation& b, const Relation& p,
                    const std::vector<uint64_t>& ptags) -> Status {
    Status s = ctx->ChargeWork(b.NumRows() + p.NumRows());
    if (!s.ok()) return s;
    HashBuild table(b, bcols);
    std::vector<std::pair<uint32_t, uint32_t>> matches;
    for (std::size_t lo = 0; lo < p.NumRows(); lo += kBatchRows) {
      const std::size_t n = std::min(kBatchRows, p.NumRows() - lo);
      KeyBlock pkey = BuildKeyBlock(p, pcols, lo, n);
      matches.clear();
      const ProbeTally tally = ProbeMatches<false>(
          table, pkey, 0, n, [&](uint32_t brow, uint32_t prow) {
            matches.emplace_back(brow, prow);
          });
      s = MeterProbeBatch(ctx, n, tally, matches.size());
      if (!s.ok()) return s;
      if (matches.empty()) continue;
      GatherJoinRows(shape, b, p.RowPtr(lo), p.arity(), matches,
                     collected.rows.AppendRaw(matches.size()));
      for (const auto& m : matches) {
        collected.tags.push_back(ptags[lo + m.second]);
      }
    }
    return Status::Ok();
  };
  Status s = GracePairs(build_left ? left : right, build_left ? right : left,
                        IdentityTags((build_left ? right : left).NumRows()),
                        bcols, pcols, 0, ctx, kernel);
  if (!s.ok()) return s;
  Relation out{std::move(out_schema)};
  s = internal::MergeRowsByTag(collected.rows, collected.tags, &out, ctx);
  if (!s.ok()) return s;
  return out;
}

// Grace semijoin: `right` is the build side; each loaded pair runs the
// in-memory semijoin's match kernel batch by batch.
Result<Relation> GraceSemiJoin(const Relation& left, const Relation& right,
                               const std::vector<std::size_t>& lcols,
                               const std::vector<std::size_t>& rcols,
                               ExecContext* ctx) {
  ctx->spill->NoteSpillEvent();
  TaggedRows collected{Relation{left.schema()}, {}};
  auto kernel = [&](const Relation& r, const Relation& l,
                    const std::vector<uint64_t>& ltags) -> Status {
    Status s = ctx->ChargeWork(l.NumRows() + r.NumRows());
    if (!s.ok()) return s;
    HashBuild table(r, rcols);
    std::vector<uint32_t> matched;
    for (std::size_t lo = 0; lo < l.NumRows(); lo += kBatchRows) {
      const std::size_t n = std::min(kBatchRows, l.NumRows() - lo);
      KeyBlock lkey = BuildKeyBlock(l, lcols, lo, n);
      matched.clear();
      const ProbeTally tally = ProbeMatches<true>(
          table, lkey, 0, n,
          [&](uint32_t, uint32_t lrow) { matched.push_back(lrow); });
      s = MeterProbeBatch(ctx, n, tally, matched.size());
      if (!s.ok()) return s;
      AppendRowsAt(l, lo, matched, &collected.rows);
      for (uint32_t m : matched) collected.tags.push_back(ltags[lo + m]);
    }
    return Status::Ok();
  };
  Status s = GracePairs(right, left, IdentityTags(left.NumRows()), rcols,
                        lcols, 0, ctx, kernel);
  if (!s.ok()) return s;
  Relation out{left.schema()};
  s = internal::MergeRowsByTag(collected.rows, collected.tags, &out, ctx);
  if (!s.ok()) return s;
  return out;
}

}  // namespace

std::vector<std::size_t> IndicesOf(const Relation& rel,
                                   const std::vector<std::string>& names) {
  std::vector<std::size_t> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    auto idx = rel.schema().IndexOf(n);
    HTQO_CHECK(idx.has_value());
    out.push_back(*idx);
  }
  return out;
}

Result<Relation> ProjectByName(const Relation& rel,
                               const std::vector<std::string>& columns,
                               ExecContext* ctx) {
  ScopedSpan op_span(ctx->tracer, "op.project", ctx->SpanParent());
  op_span.Attr("rows_in", rel.NumRows());
  auto out = SpillableDistinct(rel.Project(IndicesOf(rel, columns)), ctx);
  if (out.ok()) op_span.Attr("rows_out", out->NumRows());
  return out;
}

Result<Relation> SpillableDistinct(const Relation& rel, ExecContext* ctx) {
  ScopedSpan op_span(ctx->tracer, "op.distinct", ctx->SpanParent());
  op_span.Attr("rows_in", rel.NumRows());
  if (rel.arity() == 0 || rel.NumRows() == 0) {
    // A zero-arity relation is a boolean: at most one (empty) row survives.
    Relation out{rel.schema()};
    if (rel.NumRows() > 0) out.AddRow(std::vector<Value>{});
    return out;
  }
  const std::size_t working_bytes = DistinctWorkingBytes(rel);
  if (!ctx->ShouldSpill(working_bytes)) {
    ScopedTableMemory working(ctx, working_bytes);
    if (!working.status().ok()) return working.status();
    Relation distinct{rel.schema()};
    AppendRowsAt(rel, 0, DistinctKept(rel, ctx), &distinct);
    op_span.Attr("rows_out", distinct.NumRows());
    op_span.Attr("batches", NumBatches(rel.NumRows()));
    return distinct;
  }

  // Grace path: partition on the full-row hash (value-equal rows always
  // share a partition), dedup each partition with the in-memory kernel,
  // keep each survivor's original row index as its tag. Merging by tag
  // yields exactly the in-memory output: the first occurrence of every row,
  // in input order.
  ctx->spill->NoteSpillEvent();
  std::vector<std::size_t> all_cols(rel.arity());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  const std::size_t fanout = ctx->spill->options().fanout;
  const std::size_t max_depth = ctx->spill->options().max_recursion_depth;
  TaggedRows collected{Relation{rel.schema()}, {}};
  std::function<Status(const Relation&, const std::vector<uint64_t>&,
                       std::size_t)>
      recurse = [&](const Relation& in, const std::vector<uint64_t>& tags,
                    std::size_t depth) -> Status {
    ctx->spill->NoteRecursionDepth(depth + 1);
    auto parts = PartitionToSpill(in, all_cols, &tags, depth, ctx);
    if (!parts.ok()) return parts.status();
    for (std::size_t i = 0; i < fanout; ++i) {
      ScopedSpan part_span(ctx->tracer, "spill.partition");
      part_span.Attr("depth", depth);
      part_span.Attr("index", i);
      Relation part{rel.schema()};
      std::vector<uint64_t> part_tags;
      Status rs = (*parts)[i]->ReadBack(&part, &part_tags);
      if (!rs.ok()) return rs;
      (*parts)[i].reset();
      part_span.Attr("rows", part.NumRows());
      ScopedTableMemory loaded(
          ctx, part.NumRows() * (part.arity() * sizeof(Value) + 16));
      if (!loaded.status().ok()) return loaded.status();
      if (depth + 1 < max_depth && part.NumRows() > kMinSpillRows &&
          ctx->ShouldSpill(DistinctWorkingBytes(part))) {
        rs = recurse(part, part_tags, depth + 1);
        if (!rs.ok()) return rs;
        continue;
      }
      const std::vector<uint32_t> kept = DistinctKept(part, ctx);
      AppendRowsAt(part, 0, kept, &collected.rows);
      for (uint32_t k : kept) collected.tags.push_back(part_tags[k]);
    }
    return Status::Ok();
  };
  Status s = recurse(rel, IdentityTags(rel.NumRows()), 0);
  if (!s.ok()) return s;
  Relation out{rel.schema()};
  s = internal::MergeRowsByTag(collected.rows, collected.tags, &out, ctx);
  if (!s.ok()) return s;
  op_span.Attr("rows_out", out.NumRows());
  op_span.Attr("spilled", 1);
  return out;
}

Result<Relation> ScanAtom(const ResolvedQuery& rq, std::size_t atom_index,
                          const Catalog& catalog, ExecContext* ctx) {
  const Atom& atom = rq.cq.atoms[atom_index];
  ScopedSpan op_span(ctx->tracer, "op.scan", ctx->SpanParent());
  op_span.Attr("relation", atom.relation);
  // The atom index ties this span back to rq.cq.atoms for the feedback
  // loop's actual-vs-estimated reconciliation (the relation name alone is
  // ambiguous under self-joins).
  op_span.Attr("atom", atom_index);
  auto base = catalog.Get(atom.relation);
  if (!base.ok()) return base.status();
  const Relation& rel = **base;

  // Output columns: one per distinct variable (first binding wins), tid last.
  std::vector<VarId> vars = atom.Vars();
  std::vector<Column> cols;
  std::vector<std::size_t> source_col;  // base column per output var; tid = -1
  constexpr std::size_t kTid = static_cast<std::size_t>(-1);
  for (VarId v : vars) {
    if (atom.has_tid && v == atom.tid_var) {
      cols.push_back(Column{rq.cq.vars[v].name, ValueType::kInt64});
      source_col.push_back(kTid);
      continue;
    }
    for (const AtomBinding& b : atom.bindings) {
      if (b.var == v) {
        cols.push_back(
            Column{rq.cq.vars[v].name, rel.schema().column(b.column).type});
        source_col.push_back(b.column);
        break;
      }
    }
  }
  Relation out{Schema(std::move(cols))};
  Status alloc = out.TryReserve(rel.NumRows());
  if (!alloc.ok()) return alloc;

  // Per batch, extract each referenced base column once, narrow a selection
  // vector through filters / local comparisons / intra-atom equalities with
  // typed loops, then gather the survivors column-wise. One work charge per
  // batch (one unit per input row), one row charge per batch's emissions.
  std::vector<std::size_t> referenced;  // base columns this scan touches
  std::vector<std::size_t> slot(rel.arity(), static_cast<std::size_t>(-1));
  auto reference = [&](std::size_t col) {
    if (slot[col] == static_cast<std::size_t>(-1)) {
      slot[col] = referenced.size();
      referenced.push_back(col);
    }
  };
  for (const AtomFilter& f : atom.filters) reference(f.column);
  for (const LocalComparison& c : atom.local_comparisons) {
    reference(c.lcolumn);
    reference(c.rcolumn);
  }
  for (const AtomBinding& b : atom.bindings) reference(b.column);
  for (std::size_t c : source_col) {
    if (c != kTid) reference(c);
  }
  // Intra-atom variable equality: every binding of a var must agree, which
  // the unordered pairs of same-var bindings below test.
  std::vector<std::pair<std::size_t, std::size_t>> equal_pairs;
  for (std::size_t i = 0; i < atom.bindings.size(); ++i) {
    for (std::size_t j = i + 1; j < atom.bindings.size(); ++j) {
      if (atom.bindings[i].var == atom.bindings[j].var &&
          atom.bindings[i].column != atom.bindings[j].column) {
        equal_pairs.emplace_back(atom.bindings[i].column,
                                 atom.bindings[j].column);
      }
    }
  }

  const bool parallel = UseParallel(ctx, rel.NumRows());
  auto scan_batch = [&](std::size_t lo, std::size_t hi,
                        Relation* sink) -> Status {
    Status work = ctx->ChargeWork(hi - lo);
    if (!work.ok()) return work;
    const std::size_t n = hi - lo;
    std::vector<ColumnVector> cols_v(referenced.size());
    for (std::size_t i = 0; i < referenced.size(); ++i) {
      cols_v[i] = ExtractColumn(rel, referenced[i], lo, n);
    }
    Selection sel(n);
    std::iota(sel.begin(), sel.end(), uint32_t{0});
    for (const AtomFilter& f : atom.filters) {
      if (sel.empty()) break;
      FilterSelection(f, cols_v[slot[f.column]], &sel);
    }
    for (const LocalComparison& c : atom.local_comparisons) {
      if (sel.empty()) break;
      CompareSelection(c.op, cols_v[slot[c.lcolumn]],
                       cols_v[slot[c.rcolumn]], &sel);
    }
    for (const auto& [ca, cb] : equal_pairs) {
      if (sel.empty()) break;
      EqualitySelection(cols_v[slot[ca]], cols_v[slot[cb]], &sel);
    }
    ctx->batches.fetch_add(1, std::memory_order_relaxed);
    if (sel.empty()) return Status::Ok();
    Status s = ctx->ChargeRows(sel.size());
    if (!s.ok()) return s;
    const std::size_t stride = source_col.size();
    if (!parallel) {
      // Serial sinks span every batch: extrapolate survivor density over
      // [0, hi) to the whole relation and reserve once (capped by the
      // input size — a scan never emits more rows than it reads) instead
      // of riding the doubling ladder. Parallel chunk sinks get one
      // exact-size append each.
      const std::size_t need = sink->NumRows() + sel.size();
      if (need > sink->CapacityRows()) {
        const auto projected = static_cast<std::size_t>(
            static_cast<double>(need) * static_cast<double>(rel.NumRows()) /
            static_cast<double>(hi));
        sink->Reserve(std::min(rel.NumRows(),
                               std::max(need, projected + projected / 8)));
      }
    }
    Value* base = sink->AppendRaw(sel.size());
    for (std::size_t i = 0; i < stride; ++i) {
      if (source_col[i] == kTid) {
        for (std::size_t k = 0; k < sel.size(); ++k) {
          base[k * stride + i] =
              Value::Int64(static_cast<int64_t>(lo + sel[k]));
        }
      } else {
        GatherColumn(cols_v[slot[source_col[i]]], sel, base, stride, i);
      }
    }
    return Status::Ok();
  };
  Status scan =
      RunBatches(ctx, rel.NumRows(), &out, op_span.id(), scan_batch);
  if (!scan.ok()) return scan;
  ctx->NotePeak(out);
  op_span.Attr("rows_out", out.NumRows());
  op_span.Attr("batches", NumBatches(rel.NumRows()));
  if (ctx->replan != nullptr) {
    ctx->replan->NoteScanActual(atom_index, out.NumRows());
  }
  return out;
}

Result<Relation> NaturalHashJoin(const Relation& left, const Relation& right,
                                 ExecContext* ctx) {
  ScopedSpan op_span(ctx->tracer, "op.hash_join", ctx->SpanParent());
  op_span.Attr("rows_left", left.NumRows());
  op_span.Attr("rows_right", right.NumRows());
  std::vector<std::size_t> lcols, rcols, right_only;
  SharedColumns(left.schema(), right.schema(), &lcols, &rcols, &right_only);
  Relation out{JoinedSchema(left.schema(), right.schema(), right_only)};
  Status alloc = out.TryReserve(std::max(left.NumRows(), right.NumRows()));
  if (!alloc.ok()) return alloc;

  // Build on the smaller input.
  const bool build_left = left.NumRows() <= right.NumRows();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const std::vector<std::size_t>& bcols = build_left ? lcols : rcols;
  const std::vector<std::size_t>& pcols = build_left ? rcols : lcols;

  Status s = ctx->ChargeWork(build.NumRows() + probe.NumRows());
  if (!s.ok()) return s;

  // Memory-adaptive branch: when the build table would push live memory
  // past the soft threshold, take the Grace spill path (byte-identical
  // output). Otherwise charge the working set against the governor — with
  // spilling disarmed this is where an undersized memory budget trips.
  const std::size_t working_bytes = JoinWorkingBytes(build, probe);
  if (!lcols.empty() && ctx->ShouldSpill(working_bytes)) {
    op_span.Attr("spilled", 1);
    auto spilled = GraceHashJoin(left, right, build_left, lcols, rcols,
                                 right_only, out.schema(), ctx);
    if (spilled.ok()) op_span.Attr("rows_out", spilled->NumRows());
    return spilled;
  }
  ScopedTableMemory working(ctx, working_bytes);
  if (!working.status().ok()) return working.status();

  if (lcols.empty()) {
    // Cross product: every build row matches every probe row, one work
    // unit and one row charge per pair.
    auto cross_range = [&](std::size_t lo, std::size_t hi,
                           Relation* sink) -> Status {
      std::vector<Value> row(out.arity());
      for (std::size_t p = lo; p < hi; ++p) {
        auto probe_row = probe.Row(p);
        for (std::size_t b = 0; b < build.NumRows(); ++b) {
          Status st = ctx->ChargeWork(1);
          if (!st.ok()) return st;
          auto build_row = build.Row(b);
          auto lrow = build_left ? build_row : probe_row;
          auto rrow = build_left ? probe_row : build_row;
          std::size_t i = 0;
          for (; i < left.arity(); ++i) row[i] = lrow[i];
          for (std::size_t r : right_only) row[i++] = rrow[r];
          st = ctx->ChargeRows(1);
          if (!st.ok()) return st;
          sink->AddRow(row);
        }
      }
      return Status::Ok();
    };
    Status cross = RunBatches(ctx, probe.NumRows(), &out, op_span.id(),
                              cross_range);
    if (!cross.ok()) return cross;
    ctx->NotePeak(out);
    op_span.Attr("rows_out", out.NumRows());
    return out;
  }

  // Each probe batch collects its (build, probe) match pairs through the
  // match kernel — no Status, no Value calls — then charges work for every
  // chain candidate visited and one row per match, and gathers output rows
  // as whole-row memcpys.
  const HashBuild table(build, bcols);
  const KeyBlock pkey = BuildKeyBlock(probe, pcols);
  const JoinShape shape{build_left, left.arity(), &right_only};
  const bool parallel = UseParallel(ctx, probe.NumRows());
  auto probe_batch = [&](std::size_t lo, std::size_t hi,
                         Relation* sink) -> Status {
    std::vector<std::pair<uint32_t, uint32_t>> matches;
    matches.reserve(hi - lo);
    const ProbeTally tally = ProbeMatches<false>(
        table, pkey, lo, hi, [&](uint32_t brow, uint32_t prow) {
          matches.emplace_back(brow, prow);
        });
    Status st = MeterProbeBatch(ctx, hi - lo, tally, matches.size());
    if (!st.ok() || matches.empty()) return st;
    if (!parallel) {
      // The serial sink spans every batch, so match density over [0, hi)
      // extrapolates to the whole probe side; one density-informed reserve
      // replaces the doubling ladder, which would recopy all rows gathered
      // so far at each step. Parallel chunk sinks see one exact-size append
      // each and skip this.
      const std::size_t need = sink->NumRows() + matches.size();
      if (need > sink->CapacityRows()) {
        const auto projected = static_cast<std::size_t>(
            static_cast<double>(need) * static_cast<double>(probe.NumRows()) /
            static_cast<double>(hi));
        sink->Reserve(std::max(need, projected + projected / 8));
      }
    }
    GatherJoinRows(shape, build, probe.RowPtr(0), probe.arity(), matches,
                   sink->AppendRaw(matches.size()));
    return Status::Ok();
  };
  Status probed =
      RunBatches(ctx, probe.NumRows(), &out, op_span.id(), probe_batch);
  if (!probed.ok()) return probed;
  ctx->NotePeak(out);
  op_span.Attr("rows_out", out.NumRows());
  op_span.Attr("batches", NumBatches(probe.NumRows()));
  return out;
}

Result<Relation> NaturalNestedLoopJoin(const Relation& left,
                                       const Relation& right,
                                       ExecContext* ctx) {
  ScopedSpan op_span(ctx->tracer, "op.nl_join", ctx->SpanParent());
  op_span.Attr("rows_left", left.NumRows());
  op_span.Attr("rows_right", right.NumRows());
  std::vector<std::size_t> lcols, rcols, right_only;
  SharedColumns(left.schema(), right.schema(), &lcols, &rcols, &right_only);
  Relation out{JoinedSchema(left.schema(), right.schema(), right_only)};
  Status alloc = out.TryReserve(std::max(left.NumRows(), right.NumRows()));
  if (!alloc.ok()) return alloc;

  std::vector<Value> row(out.arity());
  for (std::size_t l = 0; l < left.NumRows(); ++l) {
    auto lrow = left.Row(l);
    for (std::size_t r = 0; r < right.NumRows(); ++r) {
      Status st = ctx->ChargeWork(1);
      if (!st.ok()) return st;
      auto rrow = right.Row(r);
      if (!RowKeysEqual(lrow, lcols, rrow, rcols)) continue;
      std::size_t i = 0;
      for (; i < left.arity(); ++i) row[i] = lrow[i];
      for (std::size_t rc : right_only) row[i++] = rrow[rc];
      st = ctx->ChargeRows(1);
      if (!st.ok()) return st;
      out.AddRow(row);
    }
  }
  ctx->NotePeak(out);
  op_span.Attr("rows_out", out.NumRows());
  return out;
}

Result<Relation> NaturalSemiJoin(const Relation& left, const Relation& right,
                                 ExecContext* ctx) {
  ScopedSpan op_span(ctx->tracer, "op.semijoin", ctx->SpanParent());
  op_span.Attr("rows_left", left.NumRows());
  op_span.Attr("rows_right", right.NumRows());
  std::vector<std::size_t> lcols, rcols, right_only;
  SharedColumns(left.schema(), right.schema(), &lcols, &rcols, &right_only);
  Relation out{left.schema()};
  Status alloc = out.TryReserve(left.NumRows());
  if (!alloc.ok()) return alloc;
  if (lcols.empty()) {
    // Degenerate: keep left iff right nonempty.
    if (right.NumRows() == 0) return out;
    Status s = ctx->ChargeRows(left.NumRows());
    if (!s.ok()) return s;
    return left;
  }
  Status s = ctx->ChargeWork(left.NumRows() + right.NumRows());
  if (!s.ok()) return s;
  const std::size_t working_bytes = SemiJoinWorkingBytes(right, left);
  if (ctx->ShouldSpill(working_bytes)) {
    op_span.Attr("spilled", 1);
    auto spilled = GraceSemiJoin(left, right, lcols, rcols, ctx);
    if (spilled.ok()) op_span.Attr("rows_out", spilled->NumRows());
    return spilled;
  }
  ScopedTableMemory working(ctx, working_bytes);
  if (!working.status().ok()) return working.status();

  // Same shape as the hash join's probe, but first match wins and chain
  // candidates charge no work (the semijoin's work charge is the per-input-
  // row charge above). Matched left rows are gathered as whole-row memcpys
  // in probe order.
  const HashBuild table(right, rcols);
  const KeyBlock lkey = BuildKeyBlock(left, lcols);
  const bool parallel = UseParallel(ctx, left.NumRows());
  auto probe_batch = [&](std::size_t lo, std::size_t hi,
                         Relation* sink) -> Status {
    std::vector<uint32_t> matched;  // left rows in [lo, hi), ascending
    const ProbeTally tally = ProbeMatches<true>(
        table, lkey, lo, hi,
        [&](uint32_t, uint32_t lrow) { matched.push_back(lrow); });
    Status st = MeterProbeBatch(ctx, hi - lo, tally, matched.size());
    if (!st.ok() || matched.empty()) return st;
    if (!parallel) {
      // Same density-extrapolated reserve as the scan; a semijoin never
      // emits more rows than its left input.
      const std::size_t need = sink->NumRows() + matched.size();
      if (need > sink->CapacityRows()) {
        const auto projected = static_cast<std::size_t>(
            static_cast<double>(need) * static_cast<double>(left.NumRows()) /
            static_cast<double>(hi));
        sink->Reserve(std::min(left.NumRows(),
                               std::max(need, projected + projected / 8)));
      }
    }
    AppendRowsAt(left, 0, matched, sink);
    return Status::Ok();
  };
  Status probed =
      RunBatches(ctx, left.NumRows(), &out, op_span.id(), probe_batch);
  if (!probed.ok()) return probed;
  ctx->NotePeak(out);
  op_span.Attr("rows_out", out.NumRows());
  op_span.Attr("batches", NumBatches(left.NumRows()));
  return out;
}

namespace internal {

Status MergeRowsByTag(const Relation& rows, const std::vector<uint64_t>& tags,
                      Relation* out, ExecContext* ctx) {
  const std::size_t n = tags.size();
  Status alloc = out->TryReserve(rows.NumRows());
  if (!alloc.ok()) return alloc;
  if (n == 0) {
    ctx->NotePeak(*out);
    return Status::Ok();
  }
  uint64_t max_tag = 0;
  for (uint64_t t : tags) max_tag = std::max(max_tag, t);
  std::vector<std::size_t> order(n);
  if (max_tag > uint64_t{8} * n + 1024) {
    // Sparse tag range: the offset table would dwarf the payload; fall back
    // to the comparison sort.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tags[a] < tags[b];
                     });
  } else {
    // Dense tags (the spill kernels emit probe-row indices): one counting
    // pass, a prefix sum, and stable placement — O(n + max_tag) with no
    // comparator calls.
    std::vector<std::size_t> offsets(static_cast<std::size_t>(max_tag) + 2, 0);
    for (uint64_t t : tags) ++offsets[static_cast<std::size_t>(t) + 1];
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      offsets[i] += offsets[i - 1];
    }
    for (std::size_t i = 0; i < n; ++i) {
      order[offsets[static_cast<std::size_t>(tags[i])]++] = i;
    }
  }
  for (std::size_t idx : order) out->AddRow(rows.Row(idx));
  ctx->NotePeak(*out);
  return Status::Ok();
}

}  // namespace internal

}  // namespace htqo
