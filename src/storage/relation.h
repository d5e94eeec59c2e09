// In-memory relations: a schema plus a row-major tuple store.
//
// Rows are stored flat in a single vector with stride = arity, which keeps
// scans cache-friendly and row copies cheap. Relation is the unit of exchange
// between physical operators: every operator consumes and produces whole
// Relations (full materialization), which is the right fidelity for the
// paper's experiments — its cost phenomena are intermediate-result sizes.

#ifndef HTQO_STORAGE_RELATION_H_
#define HTQO_STORAGE_RELATION_H_

#include <span>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace htqo {

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  std::size_t arity() const { return schema_.arity(); }
  std::size_t NumRows() const {
    return arity() == 0 ? zero_arity_rows_ : data_.size() / arity();
  }

  // For zero-arity relations (Boolean query results) the row count is the
  // only payload: 0 rows = false, >0 = true.
  void SetZeroArityRows(std::size_t n) {
    HTQO_CHECK(arity() == 0);
    zero_arity_rows_ = n;
  }

  void Reserve(std::size_t rows) { data_.reserve(rows * arity()); }

  // Rows the tuple store can hold before reallocating. The vectorized join
  // extrapolates its output density through this to reserve once instead of
  // riding vector doubling (each doubling recopies every row written so far).
  std::size_t CapacityRows() const {
    return arity() == 0 ? 0 : data_.capacity() / arity();
  }

  // Fallible allocation entry point used by the physical operators when
  // materializing output: consults the fault injector's relation.alloc site
  // (so tests can simulate allocation failure as a clean Status) and
  // reserves up to `estimated_rows` rows, capped to keep speculative
  // reservations from dominating peak memory.
  Status TryReserve(std::size_t estimated_rows);

  void AddRow(std::vector<Value> row) {
    HTQO_CHECK(row.size() == arity());
    if (arity() == 0) {
      ++zero_arity_rows_;
      return;
    }
    for (auto& v : row) data_.push_back(std::move(v));
  }

  void AddRow(std::span<const Value> row) {
    HTQO_CHECK(row.size() == arity());
    if (arity() == 0) {
      ++zero_arity_rows_;
      return;
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }

  // Appends every row of `other` (same arity required), preserving order.
  // The parallel operators concatenate per-chunk outputs with this; bulk
  // vector insert, no per-row checks.
  void AppendFrom(const Relation& other) {
    HTQO_CHECK(other.arity() == arity());
    if (arity() == 0) {
      zero_arity_rows_ += other.zero_arity_rows_;
      return;
    }
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  }

  // Appends `n` default-initialized rows and returns a write pointer to the
  // first new value. The vectorized gather kernels fill output rows through
  // this instead of per-row AddRow span inserts. Returns nullptr for
  // zero-arity relations (the rows are still counted).
  Value* AppendRaw(std::size_t n) {
    if (arity() == 0) {
      zero_arity_rows_ += n;
      return nullptr;
    }
    std::size_t old = data_.size();
    data_.resize(old + n * arity());
    return data_.data() + old;
  }

  std::span<const Value> Row(std::size_t i) const {
    HTQO_DCHECK(i < NumRows());
    return {data_.data() + i * arity(), arity()};
  }

  // Raw pointer to row `i`'s first value; the vectorized kernels memcpy
  // whole rows through this (Value is trivially copyable).
  const Value* RowPtr(std::size_t i) const {
    HTQO_DCHECK(i < NumRows());
    return data_.data() + i * arity();
  }

  const Value& At(std::size_t row, std::size_t col) const {
    HTQO_DCHECK(row < NumRows() && col < arity());
    return data_[row * arity() + col];
  }

  // Relation with columns at `indices` (in that order), duplicates kept.
  Relation Project(const std::vector<std::size_t>& indices) const;

  // Sorts rows lexicographically by the given column indices (all columns
  // when empty). Used for canonicalization in tests and ORDER BY.
  void SortBy(const std::vector<std::size_t>& cols);

  // As above with a per-column descending flag (parallel to `cols`).
  void SortBy(const std::vector<std::size_t>& cols,
              const std::vector<bool>& descending);

  // Keeps only the first `n` rows (LIMIT).
  void Truncate(std::size_t n);

  // True when both relations contain the same multiset of rows, ignoring
  // order. Schemas must have equal arity; column names are not compared.
  bool SameRowsAs(const Relation& other) const;

  // Bytes of interned-string payload reachable from this relation, counting
  // each distinct pooled string once. Zero-cost when the schema declares no
  // string columns (the common numeric-join case).
  std::size_t StringPayloadBytes() const;

  // Approximate resident footprint: tuple store plus distinct string
  // payloads. Feeds governor memory accounting (NotePeak / spill
  // thresholds) so string-heavy relations register their real size.
  std::size_t FootprintBytes() const {
    return NumRows() * arity() * sizeof(Value) + StringPayloadBytes();
  }

  // Human-readable dump, truncated to `max_rows`.
  std::string ToString(std::size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Value> data_;
  std::size_t zero_arity_rows_ = 0;
};

// Hash of the row values at the given column indices. Used by hash join,
// distinct, and group-by.
std::size_t HashRowKey(std::span<const Value> row,
                       const std::vector<std::size_t>& cols);

// True when the two rows agree on their respective key columns.
bool RowKeysEqual(std::span<const Value> a, const std::vector<std::size_t>& ac,
                  std::span<const Value> b, const std::vector<std::size_t>& bc);

}  // namespace htqo

#endif  // HTQO_STORAGE_RELATION_H_
