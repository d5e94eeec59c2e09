#include "storage/relation.h"

#include <algorithm>
#include <unordered_set>

#include "util/fault_injector.h"
#include "util/strings.h"

namespace htqo {

Status Relation::TryReserve(std::size_t estimated_rows) {
  if (FaultInjector::Instance().ShouldFail(kFaultSiteRelationAlloc)) {
    return Status::ResourceExhausted(
        "injected fault: allocation failure in Relation");
  }
  constexpr std::size_t kMaxSpeculativeRows = 4096;
  Reserve(std::min(estimated_rows, kMaxSpeculativeRows));
  return Status::Ok();
}

namespace {

int CompareRows(std::span<const Value> a, std::span<const Value> b,
                const std::vector<std::size_t>& cols) {
  for (std::size_t c : cols) {
    int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp;
  }
  return 0;
}

}  // namespace

Relation Relation::Project(const std::vector<std::size_t>& indices) const {
  Relation out(schema_.Project(indices));
  out.Reserve(NumRows());
  std::vector<Value> row(indices.size());
  for (std::size_t r = 0; r < NumRows(); ++r) {
    auto src = Row(r);
    for (std::size_t i = 0; i < indices.size(); ++i) row[i] = src[indices[i]];
    out.AddRow(row);
  }
  if (arity() == 0 || indices.empty()) {
    out.zero_arity_rows_ = NumRows();
  }
  return out;
}

void Relation::SortBy(const std::vector<std::size_t>& cols) {
  SortBy(cols, std::vector<bool>(cols.size(), false));
}

void Relation::SortBy(const std::vector<std::size_t>& cols,
                      const std::vector<bool>& descending) {
  HTQO_CHECK(cols.size() == descending.size());
  if (arity() == 0 || NumRows() <= 1) return;
  std::vector<std::size_t> effective = cols;
  std::vector<bool> desc = descending;
  if (effective.empty()) {
    effective.resize(arity());
    for (std::size_t i = 0; i < arity(); ++i) effective[i] = i;
    desc.assign(arity(), false);
  }
  auto compare = [&](std::span<const Value> a,
                     std::span<const Value> b) {
    for (std::size_t i = 0; i < effective.size(); ++i) {
      int cmp = a[effective[i]].Compare(b[effective[i]]);
      if (cmp != 0) return desc[i] ? -cmp : cmp;
    }
    return 0;
  };
  std::vector<std::size_t> order(NumRows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return compare(Row(a), Row(b)) < 0;
                   });
  std::vector<Value> sorted;
  sorted.reserve(data_.size());
  for (std::size_t r : order) {
    auto row = Row(r);
    sorted.insert(sorted.end(), row.begin(), row.end());
  }
  data_ = std::move(sorted);
}

void Relation::Truncate(std::size_t n) {
  if (n >= NumRows()) return;
  if (arity() == 0) {
    zero_arity_rows_ = n;
    return;
  }
  data_.resize(n * arity());
}

bool Relation::SameRowsAs(const Relation& other) const {
  if (arity() != other.arity()) return false;
  if (NumRows() != other.NumRows()) return false;
  if (arity() == 0) return zero_arity_rows_ == other.zero_arity_rows_;
  Relation a = *this;
  Relation b = other;
  a.SortBy({});
  b.SortBy({});
  std::vector<std::size_t> all(arity());
  for (std::size_t i = 0; i < arity(); ++i) all[i] = i;
  for (std::size_t r = 0; r < a.NumRows(); ++r) {
    if (CompareRows(a.Row(r), b.Row(r), all) != 0) return false;
  }
  return true;
}

std::size_t Relation::StringPayloadBytes() const {
  bool any_string = false;
  for (const Column& c : schema_.columns()) {
    if (c.type == ValueType::kString) {
      any_string = true;
      break;
    }
  }
  if (!any_string) return 0;
  // Interned pointers are stable and unique per content, so a pointer set
  // counts each payload exactly once.
  std::unordered_set<const std::string*> seen;
  std::size_t bytes = 0;
  const std::size_t n = NumRows();
  for (std::size_t c = 0; c < arity(); ++c) {
    if (schema_.column(c).type != ValueType::kString) continue;
    for (std::size_t r = 0; r < n; ++r) {
      const Value& v = At(r, c);
      if (v.type() != ValueType::kString) continue;  // schema is advisory
      const std::string* s = &v.AsString();
      if (seen.insert(s).second) bytes += s->size() + sizeof(std::string);
    }
  }
  return bytes;
}

std::string Relation::ToString(std::size_t max_rows) const {
  std::string out = schema_.ToString() + " [" + std::to_string(NumRows()) +
                    " rows]\n";
  for (std::size_t r = 0; r < NumRows() && r < max_rows; ++r) {
    std::vector<std::string> cells;
    auto row = Row(r);
    cells.reserve(row.size());
    for (const Value& v : row) cells.push_back(v.ToString());
    out += "  (" + Join(cells, ", ") + ")\n";
  }
  if (NumRows() > max_rows) out += "  ...\n";
  return out;
}

std::size_t HashRowKey(std::span<const Value> row,
                       const std::vector<std::size_t>& cols) {
  std::size_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t c : cols) {
    h ^= row[c].Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

bool RowKeysEqual(std::span<const Value> a, const std::vector<std::size_t>& ac,
                  std::span<const Value> b,
                  const std::vector<std::size_t>& bc) {
  HTQO_DCHECK(ac.size() == bc.size());
  for (std::size_t i = 0; i < ac.size(); ++i) {
    if (a[ac[i]].Compare(b[bc[i]]) != 0) return false;
  }
  return true;
}

}  // namespace htqo
