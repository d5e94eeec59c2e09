#include "exec/operators.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
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

// ---------- Grace spill driver ----------------------------------------------
//
// When SpillOrCharge says an operator's working set would cross the soft
// memory threshold, GraceEvaluate hash-partitions its inputs into
// SpillManager temp files and drains the partitions one at a time. Output
// rows are collected with a 64-bit tag — the original index of the row of
// the last input they were emitted for — and merged back in tag order at the
// end, which reproduces the serial in-memory emission order byte for byte:
// key-equal rows always land in the same partition with their relative
// order preserved, and each loaded partition runs the in-memory operator's
// own kernel. Partitions drain serially (the per-operator spill path is
// deterministic at any thread count); parallelism across tree-wave nodes is
// unaffected — each node's operator spills independently against the
// shared manager.

// Below this many rows in its first input a partition is always processed
// in memory: with tiny soft thresholds (the equivalence tests force them)
// recursing on trivial partitions would only burn file handles until the
// depth cap.
constexpr std::size_t kMinSpillRows = 64;

// Working-set estimates in bytes, used both for the in-memory governor
// charge and the spill decision. A hash join or semijoin pins the build
// rows, a chain index (~24 B/row with its hash array), and the probe hash
// array. The pinned side's interned-string payloads count once each (a
// 16-byte Value only holds the handle), so memory budgets and spill
// thresholds see the real footprint of string-heavy relations; numeric
// schemas skip the scan.
std::size_t JoinWorkingBytes(const Relation& build, const Relation& probe) {
  return build.NumRows() * (build.arity() * sizeof(Value) + 24) +
         build.StringPayloadBytes() + probe.NumRows() * 8;
}

std::size_t DistinctWorkingBytes(const Relation& rel) {
  return rel.NumRows() * (rel.arity() * sizeof(Value) + 16) +
         rel.StringPayloadBytes();
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

// One level of GraceEvaluate: partitions every input at `depth` (the last
// one tagged with `tags`), then drains partition i of every input together.
// The partition span is opened on this thread: the spill path is serial per
// operator, so the operator span (and, when recursing, the outer partition
// span) is the innermost open span here.
Status GraceLevel(const std::vector<GraceInput>& inputs,
                  const std::vector<uint64_t>& tags, std::size_t depth,
                  const GraceOperator& op, TaggedRuns* out, ExecContext* ctx) {
  ctx->spill->NoteRecursionDepth(depth + 1);
  const std::size_t last = inputs.size() - 1;
  std::vector<std::vector<std::unique_ptr<SpillFile>>> parts;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    auto p = PartitionToSpill(*inputs[k].rel, inputs[k].key_cols,
                              k == last ? &tags : nullptr, depth, ctx);
    if (!p.ok()) return p.status();
    parts.push_back(std::move(*p));
  }
  const std::size_t max_depth = ctx->spill->options().max_recursion_depth;
  for (std::size_t i = 0; i < parts[0].size(); ++i) {
    ScopedSpan part_span(ctx->tracer, "spill.partition");
    part_span.Attr("depth", depth);
    part_span.Attr("index", i);
    std::vector<Relation> loaded;
    std::vector<uint64_t> loaded_tags;
    loaded.reserve(inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      loaded.emplace_back(inputs[k].rel->schema());
      Status rs = parts[k][i]->ReadBack(&loaded[k],
                                        k == last ? &loaded_tags : nullptr);
      if (!rs.ok()) return rs;
    }
    for (auto& input_parts : parts) input_parts[i].reset();  // unlink
    if (loaded.size() == 2) {
      part_span.Attr("rows_build", loaded[0].NumRows());
      part_span.Attr("rows_probe", loaded[1].NumRows());
    } else {
      part_span.Attr("rows", loaded[0].NumRows());
    }
    ScopedTableMemory resident(ctx, op.loaded_bytes(loaded));
    if (!resident.status().ok()) return resident.status();
    // At the depth cap or the row floor the kernel runs in memory whatever
    // the threshold says (correctness over the threshold; all-equal keys
    // cannot be split by rehashing).
    const bool may_recurse =
        depth + 1 < max_depth && loaded[0].NumRows() > kMinSpillRows;
    std::vector<GraceInput> next;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      next.push_back(GraceInput{&loaded[k], inputs[k].key_cols});
    }
    Status rs;
    if (may_recurse &&
        SpillOrCharge(ctx, true, op.working_bytes(loaded), nullptr)) {
      rs = GraceLevel(next, loaded_tags, depth + 1, op, out, ctx);
    } else {
      rs = op.kernel(next, loaded_tags, out);
      out->ends.push_back(out->rows.NumRows());
    }
    if (!rs.ok()) return rs;
  }
  return Status::Ok();
}

// The Grace operator of the hash join (kSemi = false) and the semijoin:
// each loaded build/probe pair runs the in-memory match kernel batch by
// batch on the key columns it was partitioned on, and gathers `shape`'s
// rows (a semijoin's shape is the probe row alone), each carrying its probe
// row's tag. Both pin the build side like the in-memory join, and a loaded
// pair keeps both sides resident.
template <bool kSemi>
GraceOperator PairOperator(const JoinShape& shape, ExecContext* ctx) {
  GraceOperator op;
  op.working_bytes = [](std::span<const Relation> in) {
    return JoinWorkingBytes(in[0], in[1]);
  };
  op.loaded_bytes = [](std::span<const Relation> in) {
    return in[0].NumRows() * (in[0].arity() * sizeof(Value) + 24) +
           in[1].NumRows() * in[1].arity() * sizeof(Value) +
           in[0].StringPayloadBytes() + in[1].StringPayloadBytes();
  };
  op.kernel = [shape, ctx](std::span<const GraceInput> in,
                           const std::vector<uint64_t>& ptags,
                           TaggedRuns* out) -> Status {
    const Relation& b = *in[0].rel;
    const Relation& p = *in[1].rel;
    Status s = ctx->ChargeWork(b.NumRows() + p.NumRows());
    if (!s.ok()) return s;
    HashBuild table(b, in[0].key_cols);
    std::vector<std::pair<uint32_t, uint32_t>> matches;
    for (std::size_t lo = 0; lo < p.NumRows(); lo += kBatchRows) {
      const std::size_t n = std::min(kBatchRows, p.NumRows() - lo);
      KeyBlock pkey = BuildKeyBlock(p, in[1].key_cols, lo, n);
      matches.clear();
      const ProbeTally tally = ProbeMatches<kSemi>(
          table, pkey, 0, n, [&](uint32_t brow, uint32_t prow) {
            matches.emplace_back(brow, prow);
          });
      s = MeterProbeBatch(ctx, n, tally, matches.size());
      if (!s.ok()) return s;
      if (matches.empty()) continue;
      GatherJoinRows(shape, b, p.RowPtr(lo), p.arity(), matches,
                     out->rows.AppendRaw(matches.size()));
      for (const auto& m : matches) out->tags.push_back(ptags[lo + m.second]);
    }
    return Status::Ok();
  };
  return op;
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
  std::optional<ScopedTableMemory> working;
  if (!SpillOrCharge(ctx, true, DistinctWorkingBytes(rel), &working)) {
    if (!working->status().ok()) return working->status();
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
  std::vector<std::size_t> all_cols(rel.arity());
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  GraceOperator op;
  op.working_bytes = [](std::span<const Relation> in) {
    return DistinctWorkingBytes(in[0]);
  };
  op.loaded_bytes = [](std::span<const Relation> in) {
    return in[0].NumRows() * (in[0].arity() * sizeof(Value) + 16);
  };
  op.kernel = [&](std::span<const GraceInput> in,
                  const std::vector<uint64_t>& tags,
                  TaggedRuns* out) -> Status {
    const std::vector<uint32_t> kept = DistinctKept(*in[0].rel, ctx);
    AppendRowsAt(*in[0].rel, 0, kept, &out->rows);
    for (uint32_t k : kept) out->tags.push_back(tags[k]);
    return Status::Ok();
  };
  auto out = GraceEvaluate({{&rel, all_cols}}, op, rel.schema(), ctx);
  if (!out.ok()) return out.status();
  op_span.Attr("rows_out", out->NumRows());
  op_span.Attr("spilled", 1);
  return out;
}

bool SpillOrCharge(ExecContext* ctx, bool partitionable,
                   std::size_t working_bytes,
                   std::optional<ScopedTableMemory>* charge) {
  if (partitionable && ctx->ShouldSpill(working_bytes)) return true;
  if (charge != nullptr) charge->emplace(ctx, working_bytes);
  return false;
}

Result<Relation> GraceEvaluate(const std::vector<GraceInput>& inputs,
                               const GraceOperator& op, Schema out_schema,
                               ExecContext* ctx) {
  ctx->spill->NoteSpillEvent();
  std::vector<uint64_t> tags(inputs.back().rel->NumRows());
  std::iota(tags.begin(), tags.end(), uint64_t{0});
  TaggedRuns runs{Relation{out_schema}, {}, {}};
  Status s = GraceLevel(inputs, tags, 0, op, &runs, ctx);
  if (!s.ok()) return s;
  Relation out{std::move(out_schema)};
  s = internal::MergeRuns(runs, &out, ctx);
  if (!s.ok()) return s;
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
  const JoinShape shape{build_left, left.arity(), &right_only};
  std::optional<ScopedTableMemory> working;
  if (SpillOrCharge(ctx, !lcols.empty(), JoinWorkingBytes(build, probe),
                    &working)) {
    op_span.Attr("spilled", 1);
    auto spilled =
        GraceEvaluate({{&build, bcols}, {&probe, pcols}},
                      PairOperator<false>(shape, ctx),
                      out.schema(), ctx);
    if (spilled.ok()) op_span.Attr("rows_out", spilled->NumRows());
    return spilled;
  }
  if (!working->status().ok()) return working->status();

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
  std::optional<ScopedTableMemory> working;
  if (SpillOrCharge(ctx, true, JoinWorkingBytes(right, left), &working)) {
    op_span.Attr("spilled", 1);
    const std::vector<std::size_t> none;
    auto spilled = GraceEvaluate(
        {{&right, rcols}, {&left, lcols}},
        PairOperator<true>(JoinShape{false, left.arity(), &none}, ctx),
        left.schema(), ctx);
    if (spilled.ok()) op_span.Attr("rows_out", spilled->NumRows());
    return spilled;
  }
  if (!working->status().ok()) return working->status();

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

Status MergeRuns(const TaggedRuns& runs, Relation* out, ExecContext* ctx) {
  Status alloc = out->TryReserve(runs.rows.NumRows());
  if (!alloc.ok()) return alloc;
  // Min-heap of run heads keyed by (tag, run): the smallest tag comes out
  // first, and equal tags come out in run order.
  using Head = std::pair<uint64_t, std::size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  std::vector<std::size_t> cursor(runs.ends.size());
  for (std::size_t r = 0; r < runs.ends.size(); ++r) {
    cursor[r] = r == 0 ? 0 : runs.ends[r - 1];
    if (cursor[r] < runs.ends[r]) heads.emplace(runs.tags[cursor[r]], r);
  }
  while (!heads.empty()) {
    const std::size_t r = heads.top().second;
    heads.pop();
    out->AddRow(runs.rows.Row(cursor[r]++));
    if (cursor[r] < runs.ends[r]) heads.emplace(runs.tags[cursor[r]], r);
  }
  ctx->NotePeak(*out);
  return Status::Ok();
}

}  // namespace internal

}  // namespace htqo
