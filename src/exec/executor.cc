#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <memory>

#include "exec/batch.h"
#include "exec/expression.h"
#include "exec/spill.h"
#include "util/strings.h"

namespace htqo {

namespace {

// Output column type inference (used so empty results still get a schema).
ValueType InferType(const Expr& e, const ResolvedQuery& rq,
                    const Relation& answer) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.type();
    case ExprKind::kColumnRef: {
      auto var = rq.ResolveRef(e);
      if (var.ok()) {
        auto idx = answer.schema().IndexOf(rq.cq.vars[*var].name);
        if (idx) return answer.schema().column(*idx).type;
      }
      return ValueType::kInt64;
    }
    case ExprKind::kBinary: {
      if (e.op == '/') return ValueType::kDouble;
      ValueType l = InferType(*e.lhs, rq, answer);
      ValueType r = InferType(*e.rhs, rq, answer);
      if (l == ValueType::kInt64 && r == ValueType::kInt64) {
        return ValueType::kInt64;
      }
      return ValueType::kDouble;
    }
    case ExprKind::kAggregate:
      switch (e.agg) {
        case AggFunc::kCount:
          return ValueType::kInt64;
        case AggFunc::kAvg:
          return ValueType::kDouble;
        case AggFunc::kSum:
          return e.lhs ? InferType(*e.lhs, rq, answer) : ValueType::kInt64;
        case AggFunc::kMin:
        case AggFunc::kMax:
          return e.lhs ? InferType(*e.lhs, rq, answer) : ValueType::kInt64;
      }
      return ValueType::kInt64;
    case ExprKind::kScalarSubquery:
      return ValueType::kDouble;  // placeholder; rewritten before execution
  }
  return ValueType::kInt64;
}

std::string ItemName(const SelectItem& item, std::size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr.kind == ExprKind::kColumnRef) return item.expr.column;
  return "col" + std::to_string(index);
}

Schema OutputSchema(const ResolvedQuery& rq, const Relation& answer) {
  std::vector<Column> cols;
  std::vector<std::string> used;
  for (std::size_t i = 0; i < rq.stmt.items.size(); ++i) {
    std::string name = ItemName(rq.stmt.items[i], i);
    std::string unique = name;
    int suffix = 2;
    auto taken = [&](const std::string& n) {
      for (const std::string& u : used) {
        if (EqualsIgnoreCase(u, n)) return true;
      }
      return false;
    };
    while (taken(unique)) unique = name + "_" + std::to_string(suffix++);
    used.push_back(unique);
    cols.push_back(Column{unique, InferType(rq.stmt.items[i].expr, rq, answer)});
  }
  return Schema(std::move(cols));
}

// Column index in `answer` for a column-ref expression.
Result<std::size_t> AnswerColumnOf(const ResolvedQuery& rq,
                                   const Relation& answer, const Expr& ref) {
  auto var = rq.ResolveRef(ref);
  if (!var.ok()) return var.status();
  auto idx = answer.schema().IndexOf(rq.cq.vars[*var].name);
  if (!idx) {
    return Status::Internal("output variable " + rq.cq.vars[*var].name +
                            " missing from answer relation");
  }
  return *idx;
}

Status ApplyOrderBy(const ResolvedQuery& rq, Relation* output) {
  if (rq.stmt.order_by.empty()) return Status::Ok();
  std::vector<std::size_t> cols;
  std::vector<bool> desc;
  for (const OrderItem& item : rq.stmt.order_by) {
    auto idx = output->schema().IndexOf(item.name);
    if (!idx) {
      return Status::InvalidArgument("ORDER BY references unknown column: " +
                                     item.name);
    }
    cols.push_back(*idx);
    desc.push_back(item.descending);
  }
  output->SortBy(cols, desc);
  return Status::Ok();
}

}  // namespace

Result<Relation> ProjectToOutputVars(const ResolvedQuery& rq,
                                     const Relation& join_result,
                                     ExecContext* ctx) {
  std::vector<std::string> names;
  names.reserve(rq.cq.output_vars.size());
  for (VarId v : rq.cq.output_vars) names.push_back(rq.cq.vars[v].name);
  Status s = ctx->ChargeWork(join_result.NumRows());
  if (!s.ok()) return s;
  auto out = ProjectByName(join_result, names, ctx);
  if (!out.ok()) return out.status();
  ctx->NotePeak(*out);
  return out;
}

Relation EmptyAnswer(const ResolvedQuery& rq) {
  std::vector<Column> cols;
  for (VarId v : rq.cq.output_vars) {
    cols.push_back(Column{rq.cq.vars[v].name, ValueType::kInt64});
  }
  return Relation{Schema(std::move(cols))};
}

Result<Relation> EvaluateSelectOutput(const ResolvedQuery& rq,
                                      const Relation& answer,
                                      ExecContext* ctx) {
  ScopedSpan out_span(ctx->tracer, "select.output", ctx->SpanParent());
  out_span.Attr("rows_in", answer.NumRows());
  const SelectStatement& stmt = rq.stmt;
  Relation output{OutputSchema(rq, answer)};

  // GROUP BY without aggregates and HAVING both route through the
  // aggregation machinery (one output row per group).
  const bool aggregate_query = stmt.HasAggregates() ||
                               !stmt.group_by.empty() ||
                               !stmt.having.empty();

  if (!aggregate_query) {
    // Each select item evaluates over a whole batch with column refs
    // resolved once per node per batch, then the item vectors transpose
    // into row-major output.
    ColumnIndexLookup col_index = [&](const Expr& ref) {
      auto idx = AnswerColumnOf(rq, answer, ref);
      HTQO_CHECK(idx.ok());
      return *idx;
    };
    const std::size_t n_items = stmt.items.size();
    std::vector<std::vector<Value>> item_vals(n_items);
    for (std::size_t lo = 0; lo < answer.NumRows(); lo += kBatchRows) {
      const std::size_t hi = std::min(lo + kBatchRows, answer.NumRows());
      Status s = ctx->ChargeWork(hi - lo);
      if (!s.ok()) return s;
      for (std::size_t i = 0; i < n_items; ++i) {
        EvalScalarBatch(stmt.items[i].expr, answer, lo, hi, col_index,
                        &item_vals[i]);
      }
      Status st = ctx->ChargeRows(hi - lo);
      if (!st.ok()) return st;
      Value* base = output.AppendRaw(hi - lo);
      for (std::size_t i = 0; i < n_items; ++i) {
        for (std::size_t k = 0; k < hi - lo; ++k) {
          base[k * n_items + i] = item_vals[i][k];
        }
      }
      ctx->batches.fetch_add(1, std::memory_order_relaxed);
    }
    if (stmt.distinct) {
      auto distinct = SpillableDistinct(output, ctx);
      if (!distinct.ok()) return distinct.status();
      output = std::move(distinct.value());
    }
    Status s = ApplyOrderBy(rq, &output);
    if (!s.ok()) return s;
    if (stmt.limit) output.Truncate(*stmt.limit);
    return output;
  }

  // --- Aggregation path. ----------------------------------------------------
  // Canonicalize the input order so floating-point accumulation is
  // plan-independent: every optimizer mode then produces bit-identical
  // aggregate results for the same CQ answer set.
  Relation sorted_answer = answer;
  sorted_answer.SortBy({});

  // Group key columns in the answer relation.
  std::vector<std::size_t> group_cols;
  for (const Expr& g : stmt.group_by) {
    auto idx = AnswerColumnOf(rq, answer, g);
    if (!idx.ok()) return idx.status();
    group_cols.push_back(*idx);
  }

  // All aggregate nodes across the select list and HAVING conjuncts, in
  // appearance order.
  std::vector<const Expr*> agg_nodes;
  std::function<void(const Expr&)> collect_aggs = [&](const Expr& e) {
    if (e.kind == ExprKind::kAggregate) {
      agg_nodes.push_back(&e);
      return;
    }
    if (e.lhs) collect_aggs(*e.lhs);
    if (e.rhs) collect_aggs(*e.rhs);
  };
  for (const SelectItem& item : stmt.items) collect_aggs(item.expr);
  for (const Comparison& hv : stmt.having) {
    collect_aggs(hv.lhs);
    collect_aggs(hv.rhs);
  }

  struct Group {
    std::vector<Value> key;
    std::vector<AggAccumulator> accumulators;
    uint64_t first_tag = 0;  // original row index of the group's first row
  };
  std::vector<Group> groups;
  std::unordered_multimap<std::size_t, std::size_t> group_index;

  // `h` is the group-key hash of `row` (HashRowKey over group_cols); the
  // spill path computes it per row, the in-memory path reads it from a
  // KeyBlock.
  auto find_or_create_group = [&](std::span<const Value> row, uint64_t tag,
                                  std::size_t h) -> Group& {
    auto [lo, hi] = group_index.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      Group& g = groups[it->second];
      bool match = true;
      for (std::size_t i = 0; i < group_cols.size(); ++i) {
        if (g.key[i].Compare(row[group_cols[i]]) != 0) {
          match = false;
          break;
        }
      }
      if (match) return g;
    }
    Group g;
    for (std::size_t c : group_cols) g.key.push_back(row[c]);
    g.accumulators.reserve(agg_nodes.size());
    for (const Expr* a : agg_nodes) g.accumulators.emplace_back(a->agg);
    g.first_tag = tag;
    groups.push_back(std::move(g));
    group_index.emplace(h, groups.size() - 1);
    return groups.back();
  };

  auto accumulate = [&](std::span<const Value> src, uint64_t tag) {
    Group& g = find_or_create_group(src, tag, HashRowKey(src, group_cols));
    ColumnLookup lookup = [&](const Expr& ref) {
      auto idx = AnswerColumnOf(rq, answer, ref);
      HTQO_CHECK(idx.ok());
      return src[*idx];
    };
    for (std::size_t a = 0; a < agg_nodes.size(); ++a) {
      if (agg_nodes[a]->lhs == nullptr) {
        g.accumulators[a].AddCountStar();
      } else {
        g.accumulators[a].Add(EvalScalar(*agg_nodes[a]->lhs, lookup));
      }
    }
  };

  // Grouping working set: keys plus hash index, bounded by one entry per
  // input row.
  const std::size_t group_working_bytes =
      sorted_answer.NumRows() *
      (group_cols.size() * sizeof(Value) + 4 * sizeof(std::size_t));

  if (!group_cols.empty() && ctx->ShouldSpill(group_working_bytes)) {
    // Spill path: hash-partition the canonicalized answer on the group key
    // (rows tagged with their input index), then aggregate one partition at
    // a time. A group's rows always share a partition and arrive in input
    // order, so every accumulator sees the same value sequence as the
    // in-memory loop; sorting the groups by first_tag afterwards restores
    // the in-memory first-appearance order exactly.
    ctx->spill->NoteSpillEvent();
    const std::size_t fanout = ctx->spill->options().fanout;
    std::vector<std::unique_ptr<SpillFile>> parts;
    parts.reserve(fanout);
    for (std::size_t i = 0; i < fanout; ++i) {
      auto file = ctx->spill->Create();
      if (!file.ok()) return file.status();
      parts.push_back(std::move(file.value()));
    }
    for (std::size_t r = 0; r < sorted_answer.NumRows(); ++r) {
      Status s = ctx->ChargeWork(1);
      if (!s.ok()) return s;
      auto src = sorted_answer.Row(r);
      std::size_t h = HashRowKey(src, group_cols);
      Status a = parts[h % fanout]->Append(r, src);
      if (!a.ok()) return a;
    }
    for (auto& p : parts) {
      Status s = p->Finish();
      if (!s.ok()) return s;
    }
    for (auto& p : parts) {
      Relation part{sorted_answer.schema()};
      std::vector<uint64_t> tags;
      Status s = p->ReadBack(&part, &tags);
      if (!s.ok()) return s;
      p.reset();  // unlink before loading the next partition
      ScopedTableMemory loaded(
          ctx, part.NumRows() * (part.arity() * sizeof(Value) + 8));
      if (!loaded.status().ok()) return loaded.status();
      for (std::size_t r = 0; r < part.NumRows(); ++r) {
        Status w = ctx->ChargeWork(1);
        if (!w.ok()) return w;
        accumulate(part.Row(r), tags[r]);
      }
    }
    std::stable_sort(groups.begin(), groups.end(),
                     [](const Group& a, const Group& b) {
                       return a.first_tag < b.first_tag;
                     });
    group_index.clear();
  } else {
    // Batch aggregation: group-key hashes for the whole canonicalized input
    // come from one KeyBlock (bit-identical to HashRowKey, so group
    // discovery order — and with it output order — matches the spill
    // path's), and each aggregate argument evaluates per batch.
    // Accumulation itself stays per row in input order: float sums must
    // add in the exact same sequence to stay bit-identical.
    ScopedTableMemory working(
        ctx, group_cols.empty() ? 0 : group_working_bytes);
    if (!working.status().ok()) return working.status();
    ColumnIndexLookup col_index = [&](const Expr& ref) {
      auto idx = AnswerColumnOf(rq, answer, ref);
      HTQO_CHECK(idx.ok());
      return *idx;
    };
    KeyBlock gkeys = BuildKeyBlock(sorted_answer, group_cols);
    std::vector<std::vector<Value>> arg_vals(agg_nodes.size());
    for (std::size_t lo = 0; lo < sorted_answer.NumRows(); lo += kBatchRows) {
      const std::size_t hi = std::min(lo + kBatchRows, sorted_answer.NumRows());
      Status s = ctx->ChargeWork(hi - lo);
      if (!s.ok()) return s;
      for (std::size_t a = 0; a < agg_nodes.size(); ++a) {
        if (agg_nodes[a]->lhs != nullptr) {
          EvalScalarBatch(*agg_nodes[a]->lhs, sorted_answer, lo, hi,
                          col_index, &arg_vals[a]);
        }
      }
      for (std::size_t r = lo; r < hi; ++r) {
        Group& g =
            find_or_create_group(sorted_answer.Row(r), r, gkeys.hashes[r]);
        for (std::size_t a = 0; a < agg_nodes.size(); ++a) {
          if (agg_nodes[a]->lhs == nullptr) {
            g.accumulators[a].AddCountStar();
          } else {
            g.accumulators[a].Add(arg_vals[a][r - lo]);
          }
        }
      }
      ctx->batches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // A query with aggregates but no GROUP BY emits one row even on empty
  // input.
  if (groups.empty() && stmt.group_by.empty()) {
    Group g;
    for (const Expr* a : agg_nodes) g.accumulators.emplace_back(a->agg);
    groups.push_back(std::move(g));
  }

  for (const Group& g : groups) {
    std::map<const Expr*, Value> agg_values;
    for (std::size_t a = 0; a < agg_nodes.size(); ++a) {
      agg_values[agg_nodes[a]] = g.accumulators[a].Finish();
    }
    ColumnLookup col_lookup = [&](const Expr& ref) {
      // Bare columns in an aggregate query are grouped (validated by the
      // isolator): locate the group-by entry with the same variable.
      auto var = rq.ResolveRef(ref);
      HTQO_CHECK(var.ok());
      for (std::size_t i = 0; i < stmt.group_by.size(); ++i) {
        auto gvar = rq.ResolveRef(stmt.group_by[i]);
        HTQO_CHECK(gvar.ok());
        if (*gvar == *var) return g.key[i];
      }
      HTQO_CHECK(false);
      return Value();
    };
    AggregateLookup agg_lookup = [&](const Expr& agg) {
      auto it = agg_values.find(&agg);
      HTQO_CHECK(it != agg_values.end());
      return it->second;
    };
    // HAVING: every conjunct must hold for the group.
    bool keep = true;
    for (const Comparison& hv : stmt.having) {
      Value lhs = EvalScalar(hv.lhs, col_lookup, &agg_lookup);
      Value rhs = EvalScalar(hv.rhs, col_lookup, &agg_lookup);
      if (!EvalCompare(hv.op, lhs, rhs)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    std::vector<Value> row(stmt.items.size());
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      row[i] = EvalScalar(stmt.items[i].expr, col_lookup, &agg_lookup);
    }
    Status st = ctx->ChargeRows(1);
    if (!st.ok()) return st;
    output.AddRow(row);
  }

  Status s = ApplyOrderBy(rq, &output);
  if (!s.ok()) return s;
  if (stmt.limit) output.Truncate(*stmt.limit);
  return output;
}

}  // namespace htqo
