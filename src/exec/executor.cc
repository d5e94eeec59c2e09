#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <optional>

#include "exec/batch.h"
#include "exec/expression.h"
#include "util/hash_chain.h"
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

  ColumnIndexLookup col_index = [&](const Expr& ref) {
    auto idx = AnswerColumnOf(rq, answer, ref);
    HTQO_CHECK(idx.ok());
    return *idx;
  };

  // One aggregation pass over `in` — the canonicalized answer, or one
  // spilled partition of it. Group-key hashes come from one KeyBlock and
  // each aggregate argument evaluates per batch; accumulation stays per row
  // in input order (float sums must add in the exact same sequence to stay
  // bit-identical). Appends one output row per group that passes HAVING to
  // `out`, in first-appearance order, and, when `first_rows` is given, the
  // group's first input row.
  auto aggregate = [&](const Relation& in, Relation* out,
                       std::vector<uint32_t>* first_rows) -> Status {
    struct Group {
      uint32_t first_row;  // its key is this input row's group columns
      std::vector<AggAccumulator> accumulators;
    };
    std::vector<Group> groups;
    auto open_group = [&](uint32_t first_row) {
      groups.push_back(Group{first_row, {}});
      for (const Expr* a : agg_nodes) {
        groups.back().accumulators.emplace_back(a->agg);
      }
    };
    const KeyBlock gkeys = BuildKeyBlock(in, group_cols);
    HashChainIndex group_index(in.NumRows());
    std::vector<std::vector<Value>> arg_vals(agg_nodes.size());
    for (std::size_t lo = 0; lo < in.NumRows(); lo += kBatchRows) {
      const std::size_t hi = std::min(lo + kBatchRows, in.NumRows());
      Status s = ctx->ChargeWork(hi - lo);
      if (!s.ok()) return s;
      for (std::size_t a = 0; a < agg_nodes.size(); ++a) {
        if (agg_nodes[a]->lhs != nullptr) {
          EvalScalarBatch(*agg_nodes[a]->lhs, in, lo, hi, col_index,
                          &arg_vals[a]);
        }
      }
      for (std::size_t r = lo; r < hi; ++r) {
        const std::size_t h = gkeys.hashes[r];
        uint32_t g = group_index.First(h);
        while (g != HashChainIndex::kEnd &&
               !(gkeys.hashes[groups[g].first_row] == h &&
                 KeyRowsEqual(gkeys, groups[g].first_row, gkeys, r))) {
          g = group_index.Next(g);
        }
        if (g == HashChainIndex::kEnd) {
          g = static_cast<uint32_t>(groups.size());
          group_index.Insert(h, g);
          open_group(static_cast<uint32_t>(r));
        }
        for (std::size_t a = 0; a < agg_nodes.size(); ++a) {
          if (agg_nodes[a]->lhs == nullptr) {
            groups[g].accumulators[a].AddCountStar();
          } else {
            groups[g].accumulators[a].Add(arg_vals[a][r - lo]);
          }
        }
      }
      ctx->batches.fetch_add(1, std::memory_order_relaxed);
    }

    // A query with aggregates but no GROUP BY emits one row even on empty
    // input.
    if (groups.empty() && group_cols.empty()) open_group(0);

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
          if (*gvar == *var) return in.At(g.first_row, group_cols[i]);
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
      out->AddRow(row);
      if (first_rows != nullptr) first_rows->push_back(g.first_row);
    }
    return Status::Ok();
  };

  // Grouping working set: keys plus hash index, bounded by one entry per
  // input row. Without GROUP BY there is one group and nothing to spill.
  auto group_working_bytes = [&](const Relation& in) {
    return in.NumRows() *
           (group_cols.size() * sizeof(Value) + 4 * sizeof(std::size_t));
  };
  std::optional<ScopedTableMemory> working;
  if (!SpillOrCharge(ctx, !group_cols.empty(),
                     group_cols.empty() ? 0 : group_working_bytes(sorted_answer),
                     &working)) {
    if (!working->status().ok()) return working->status();
    Status s = aggregate(sorted_answer, &output, nullptr);
    if (!s.ok()) return s;
  } else {
    // Grace path: partitions on the group key, so a group's rows share a
    // partition and reach its accumulators in input order; each partition
    // emits its groups tagged with their first row, and the merge restores
    // the in-memory first-appearance order exactly.
    GraceOperator op;
    op.working_bytes = [&](std::span<const Relation> in) {
      return group_working_bytes(in[0]);
    };
    op.loaded_bytes = [](std::span<const Relation> in) {
      return in[0].NumRows() * (in[0].arity() * sizeof(Value) + 8);
    };
    op.kernel = [&](std::span<const GraceInput> in,
                    const std::vector<uint64_t>& tags,
                    TaggedRuns* out) -> Status {
      std::vector<uint32_t> first_rows;
      Status s = aggregate(*in[0].rel, &out->rows, &first_rows);
      for (uint32_t r : first_rows) out->tags.push_back(tags[r]);
      return s;
    };
    auto spilled = GraceEvaluate({{&sorted_answer, group_cols}}, op,
                                 output.schema(), ctx);
    if (!spilled.ok()) return spilled.status();
    output = std::move(spilled.value());
    out_span.Attr("spilled", 1);
  }

  Status s = ApplyOrderBy(rq, &output);
  if (!s.ok()) return s;
  if (stmt.limit) output.Truncate(*stmt.limit);
  return output;
}

}  // namespace htqo
