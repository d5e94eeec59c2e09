// Columnar batch layer of the execution engine.
//
// This layer extracts relation columns into typed vectors — int64/date
// payloads, doubles, interned-string pointers with dictionary codes — plus a
// null bitmap per column and a selection vector per chunk, so the operators
// run tight per-batch loops and charge the ExecContext once per batch
// instead of once per row.
//
// Equivalence contract: everything here reproduces the Value-level
// semantics bit for bit. ElemHash/KeyBlock hashes equal
// Value::Hash/HashRowKey exactly (same mixing constants, same
// integral-double folding, same std::hash for string content), so Bloom
// filters, bucket layouts and chain candidate counts do not depend on how a
// key was extracted — a whole relation or one spill batch at a time.
// ColumnElemsEqual reproduces Value::Compare()==0 exactly, including the
// int/double numeric mix and the interned-pointer fast path. A column whose
// values do not share one type tag degrades to ColumnClass::kGeneric, which
// falls back to Value::Hash/Value::Compare per element — never wrong, just
// slower.
//
// Null bitmaps: the SQL fragment has no NULL (see expression.h), so columns
// extracted from relations are always all-valid — the bitmap's AllValid fast
// path is one branch per batch. The bitmap is structural: batch-level
// consumers (and future NULL support) mark validity per element, and the
// chunk gather APIs honor it.

#ifndef HTQO_EXEC_BATCH_H_
#define HTQO_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/relation.h"

namespace htqo {

// Rows per execution batch. Equals the parallel kernels' chunk grain, so a
// serial vectorized operator and every lane of a parallel one see identical
// batch boundaries — identical per-batch charges and batch counts at any
// thread count.
constexpr std::size_t kBatchRows = 1024;

// Distinct interned strings a column dictionary caches hashes for before
// falling back to plain per-row hashing of the interned strings.
constexpr std::size_t kDictMaxEntries = 4096;

// Selection vector: row offsets (chunk-local or relation-global, per the
// kernel's contract) that survive the filters applied so far, in row order.
using Selection = std::vector<uint32_t>;

// Bit-packed per-column validity. Starts all-valid without allocating;
// words materialize on the first SetNull, so the no-NULL engine pays one
// empty() branch per batch.
class NullBitmap {
 public:
  // (Re)starts all-valid over `n` rows.
  void Reset(std::size_t n) {
    n_ = n;
    words_.clear();
  }

  std::size_t size() const { return n_; }
  bool AllValid() const { return words_.empty(); }

  void SetNull(std::size_t i) {
    HTQO_DCHECK(i < n_);
    if (words_.empty()) words_.assign((n_ + 63) / 64, ~uint64_t{0});
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void SetValid(std::size_t i) {
    HTQO_DCHECK(i < n_);
    if (!words_.empty()) words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  bool IsValid(std::size_t i) const {
    HTQO_DCHECK(i < n_);
    return words_.empty() || ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  std::size_t CountValid() const;

 private:
  std::size_t n_ = 0;
  std::vector<uint64_t> words_;  // empty = all valid
};

// Physical class of an extracted column. kI64 covers kInt64 and kDate
// (identical payload, hash and ordering); kGeneric is the heterogeneous
// fallback holding whole Values.
enum class ColumnClass : uint8_t { kI64, kF64, kStr, kGeneric };

// One extracted column: `size` elements of exactly one physical class.
// String columns carry interned pointers (pointer equality == content
// equality) plus, while the dictionary holds, per-element codes and a
// code-indexed cache of content hashes — Value::Hash for a low-cardinality
// string key then costs one table load per element instead of a full
// std::hash pass.
struct ColumnVector {
  ColumnClass cls = ColumnClass::kGeneric;
  ValueType value_tag = ValueType::kInt64;  // exact tag of kI64/kF64/kStr
  std::size_t size = 0;
  NullBitmap nulls;

  std::vector<int64_t> i64;             // kI64 payloads
  std::vector<double> f64;              // kF64 payloads
  std::vector<const std::string*> str;  // kStr interned pointers
  std::vector<Value> generic;           // kGeneric fallback

  bool dict_active = false;
  std::vector<uint32_t> codes;                  // parallel to str
  std::vector<const std::string*> dict_values;  // code -> pointer
  std::vector<std::size_t> dict_hashes;         // code -> content hash

  // Reconstructs the element as a Value with its exact original type tag.
  Value ValueAt(std::size_t r) const;
};

// Extracts rows [first_row, first_row + num_rows) of rel's column `col`.
// Columns mixing type tags (never produced by the SQL paths) come back as
// kGeneric. The bitmap starts all-valid: the engine has no NULL.
ColumnVector ExtractColumn(const Relation& rel, std::size_t col,
                           std::size_t first_row, std::size_t num_rows);

// Element hash, bit-identical to Value::Hash() of the same element.
std::size_t ElemHash(const ColumnVector& c, std::size_t r);

namespace internal_batch {
bool GenericElemsEqual(const ColumnVector& a, std::size_t ar,
                       const ColumnVector& b, std::size_t br);
}  // namespace internal_batch

// Equality under Value::Compare()==0 semantics: int64/date by payload,
// any numeric mix as doubles (NaN quirks included), strings by interned
// pointer. Mismatched or generic classes take the exact Value path.
inline bool ColumnElemsEqual(const ColumnVector& a, std::size_t ar,
                             const ColumnVector& b, std::size_t br) {
  if (a.cls == ColumnClass::kI64 && b.cls == ColumnClass::kI64) {
    return a.i64[ar] == b.i64[br];
  }
  if (a.cls == ColumnClass::kStr && b.cls == ColumnClass::kStr) {
    return a.str[ar] == b.str[br];  // interned: one pooled copy per content
  }
  const bool a_num = a.cls == ColumnClass::kI64 || a.cls == ColumnClass::kF64;
  const bool b_num = b.cls == ColumnClass::kI64 || b.cls == ColumnClass::kF64;
  if (a_num && b_num) {
    const double x = a.cls == ColumnClass::kF64
                         ? a.f64[ar]
                         : static_cast<double>(a.i64[ar]);
    const double y = b.cls == ColumnClass::kF64
                         ? b.f64[br]
                         : static_cast<double>(b.i64[br]);
    return !(x < y) && !(x > y);  // Compare()'s ordering; NaN compares equal
  }
  return internal_batch::GenericElemsEqual(a, ar, b, br);
}

// Key columns of a whole relation, extracted once, plus the combined
// per-row key hash — bit-identical to HashRowKey(rel.Row(r), key_cols).
// The join/semijoin/distinct kernels build Bloom filters and chain indexes
// from `hashes` and verify candidates with KeyRowsEqual.
struct KeyBlock {
  std::vector<ColumnVector> cols;
  std::vector<std::size_t> hashes;

  std::size_t num_rows() const { return hashes.size(); }
};

KeyBlock BuildKeyBlock(const Relation& rel,
                       const std::vector<std::size_t>& key_cols);

// Range variant over rows [first_row, first_row + num_rows); block-local
// indices. The spill partitioner hashes one batch at a time through this so
// its resident set stays one batch of key columns, not a relation copy.
KeyBlock BuildKeyBlock(const Relation& rel,
                       const std::vector<std::size_t>& key_cols,
                       std::size_t first_row, std::size_t num_rows);

// Row equality across two key blocks with the same column count.
inline bool KeyRowsEqual(const KeyBlock& a, std::size_t ar, const KeyBlock& b,
                         std::size_t br) {
  for (std::size_t c = 0; c < a.cols.size(); ++c) {
    if (!ColumnElemsEqual(a.cols[c], ar, b.cols[c], br)) return false;
  }
  return true;
}

// A fixed-size chunk of a relation in columnar form: one ColumnVector per
// attribute, a selection vector of surviving chunk-local offsets, and the
// global index of its first row. Chunks are the unit the vectorized scan
// pipelines filters through; AppendToRelation gathers the selection back
// into row-major storage (skipping null-carrying rows — the no-NULL SQL
// paths never produce any).
struct ColumnarChunk {
  std::size_t first_row = 0;
  std::size_t num_rows = 0;
  std::vector<ColumnVector> columns;
  Selection selection;  // chunk-local offsets, ascending

  static ColumnarChunk FromRelation(const Relation& rel, std::size_t first_row,
                                    std::size_t num_rows);

  // Appends the selected rows to `out` (arity must match), reconstructing
  // exact value tags. Rows with a null in any column are dropped.
  void AppendToRelation(Relation* out) const;
};

}  // namespace htqo

#endif  // HTQO_EXEC_BATCH_H_
