// Reference evaluator for the engine's equivalence tests: a nested-loop
// evaluator of a ResolvedQuery over a Catalog.
//
// It shares no execution code with the engine. Rows are compared only
// through Value::Compare, atom filters through AtomFilter::Matches and
// same-atom comparisons through EvalCompare — no scan operator, hash index,
// key block, row hash or Bloom filter. Atoms are visited in query order;
// each candidate row must agree with every variable an earlier atom (or an
// earlier column of the same atom) already bound. The answer is the set of
// out(Q) tuples, and each one yields one output row of the SELECT list.
//
// Fragment: SELECT [DISTINCT] of column references, any WHERE the isolator
// accepts. Aggregates, GROUP BY, HAVING and LIMIT are rejected; ORDER BY is
// ignored, so compare results with Relation::SameRowsAs.

#ifndef HTQO_TESTS_ORACLE_H_
#define HTQO_TESTS_ORACLE_H_

#include <optional>
#include <set>
#include <vector>

#include "cq/isolator.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "util/status.h"

namespace htqo {
namespace oracle {

// Lexicographic order under Value::Compare; the answer set's key order.
struct TupleLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

using TupleSet = std::set<std::vector<Value>, TupleLess>;

// Binds `v` to `value` unless already bound; false when a bound value
// disagrees. Newly bound variables are pushed onto `trail` for undo.
inline bool Bind(VarId v, const Value& value,
                 std::vector<std::optional<Value>>* binding,
                 std::vector<VarId>* trail) {
  std::optional<Value>& slot = (*binding)[v];
  if (slot.has_value()) return slot->Compare(value) == 0;
  slot = value;
  trail->push_back(v);
  return true;
}

// Depth-first over atoms [atom, n): extends `binding` with each row of the
// atom's base relation that passes its filters and agrees with the
// bindings so far; a complete binding adds its out(Q) tuple to `answers`.
inline void Extend(const ResolvedQuery& rq,
                   const std::vector<const Relation*>& bases, std::size_t atom,
                   std::vector<std::optional<Value>>* binding,
                   TupleSet* answers) {
  if (atom == rq.cq.atoms.size()) {
    std::vector<Value> tuple;
    for (VarId v : rq.cq.output_vars) tuple.push_back(*(*binding)[v]);
    answers->insert(std::move(tuple));
    return;
  }
  const Atom& a = rq.cq.atoms[atom];
  const Relation& rel = *bases[atom];
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    auto row = rel.Row(r);
    bool pass = true;
    for (const AtomFilter& f : a.filters) {
      pass = pass && f.Matches(row[f.column]);
    }
    for (const LocalComparison& c : a.local_comparisons) {
      pass = pass && EvalCompare(c.op, row[c.lcolumn], row[c.rcolumn]);
    }
    if (!pass) continue;
    std::vector<VarId> trail;
    for (const AtomBinding& b : a.bindings) {
      pass = pass && Bind(b.var, row[b.column], binding, &trail);
    }
    if (pass && a.has_tid) {
      pass = Bind(a.tid_var, Value::Int64(static_cast<int64_t>(r)), binding,
                  &trail);
    }
    if (pass) Extend(rq, bases, atom + 1, binding, answers);
    for (VarId v : trail) (*binding)[v].reset();
  }
}

// Evaluates `rq` over `catalog` by nested loops.
inline Result<Relation> Evaluate(const ResolvedQuery& rq,
                                 const Catalog& catalog) {
  const SelectStatement& stmt = rq.stmt;
  if (stmt.HasAggregates() || !stmt.group_by.empty() ||
      !stmt.having.empty() || stmt.limit) {
    return Status::InvalidArgument("oracle: outside the SPJ fragment");
  }
  std::vector<Column> cols;
  std::vector<VarId> item_vars;
  for (const SelectItem& item : stmt.items) {
    if (item.expr.kind != ExprKind::kColumnRef) {
      return Status::InvalidArgument("oracle: select item is not a column");
    }
    auto var = rq.ResolveRef(item.expr);
    if (!var.ok()) return var.status();
    item_vars.push_back(*var);
    // SameRowsAs compares values, not column types.
    cols.push_back(Column{item.alias.empty() ? item.expr.column : item.alias,
                          ValueType::kInt64});
  }
  std::vector<const Relation*> bases;
  for (const Atom& a : rq.cq.atoms) {
    auto base = catalog.Get(a.relation);
    if (!base.ok()) return base.status();
    bases.push_back(*base);
  }
  TupleSet answers;
  if (!rq.cq.always_false) {
    std::vector<std::optional<Value>> binding(rq.cq.NumVars());
    Extend(rq, bases, 0, &binding, &answers);
  }
  // Position of each select item's variable within out(Q).
  std::vector<std::size_t> pos;
  for (VarId v : item_vars) {
    std::size_t i = 0;
    while (i < rq.cq.output_vars.size() && rq.cq.output_vars[i] != v) ++i;
    if (i == rq.cq.output_vars.size()) {
      return Status::Internal("oracle: select variable not in out(Q)");
    }
    pos.push_back(i);
  }
  Relation out{Schema(std::move(cols))};
  TupleSet emitted;
  for (const std::vector<Value>& answer : answers) {
    std::vector<Value> row;
    for (std::size_t p : pos) row.push_back(answer[p]);
    if (stmt.distinct && !emitted.insert(row).second) continue;
    out.AddRow(std::move(row));
  }
  return out;
}

}  // namespace oracle
}  // namespace htqo

#endif  // HTQO_TESTS_ORACLE_H_
