// Shared helpers for htqo tests.

#ifndef HTQO_TESTS_TEST_UTIL_H_
#define HTQO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "storage/relation.h"

namespace htqo {

// Builds an all-int64 relation from a row-of-rows literal.
inline Relation IntRelation(const std::vector<std::string>& columns,
                            std::initializer_list<std::vector<int64_t>> rows) {
  std::vector<Column> cols;
  cols.reserve(columns.size());
  for (const std::string& c : columns) {
    cols.push_back(Column{c, ValueType::kInt64});
  }
  Relation rel{Schema(std::move(cols))};
  for (const auto& r : rows) {
    std::vector<Value> row;
    row.reserve(r.size());
    for (int64_t v : r) row.push_back(Value::Int64(v));
    rel.AddRow(std::move(row));
  }
  return rel;
}

// Deepest `spill.partition` depth that grouped aggregation itself reached in
// a traced run: partition spans whose chain of partition-span parents ends
// at `select.output` (SELECT DISTINCT spills under `op.distinct` instead).
// -1 when the aggregation did not spill; 0 when it partitioned once; d when
// it re-partitioned d times.
inline int AggregationSpillDepth(const Tracer& tracer) {
  const std::vector<Span> spans = tracer.Snapshot();
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  int deepest = -1;
  for (const Span& s : spans) {
    if (s.name != "spill.partition") continue;
    const Span* up = &s;
    while (up != nullptr && up->name == "spill.partition") {
      auto it = by_id.find(up->parent);
      up = it == by_id.end() ? nullptr : it->second;
    }
    if (up == nullptr || up->name != "select.output") continue;
    for (const SpanAttr& a : s.attrs) {
      if (a.key == "depth") deepest = std::max(deepest, std::stoi(a.value));
    }
  }
  return deepest;
}

}  // namespace htqo

#endif  // HTQO_TESTS_TEST_UTIL_H_
