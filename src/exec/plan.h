// Join plans over CQ atoms: the plan shape produced by the quantitative
// optimizers (DP, GEQO, naive). A plan is a binary tree whose leaves are
// atom scans and whose internal nodes are natural joins on shared variables,
// each annotated with the join algorithm to use.

#ifndef HTQO_EXEC_PLAN_H_
#define HTQO_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "cq/isolator.h"
#include "exec/operators.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace htqo {

enum class JoinAlgo { kHash, kNestedLoop };

struct JoinPlan {
  // Leaf when left == nullptr: scans `atom`.
  std::size_t atom = 0;
  std::unique_ptr<JoinPlan> left;
  std::unique_ptr<JoinPlan> right;
  JoinAlgo algo = JoinAlgo::kHash;

  bool IsLeaf() const { return left == nullptr; }

  static std::unique_ptr<JoinPlan> Leaf(std::size_t atom);
  static std::unique_ptr<JoinPlan> Join(std::unique_ptr<JoinPlan> l,
                                        std::unique_ptr<JoinPlan> r,
                                        JoinAlgo algo);

  // Atoms of this subtree, left to right.
  void CollectAtoms(std::vector<std::size_t>* out) const;

  // "((a HJ b) NL c)" style rendering with atom aliases.
  std::string ToString(const ResolvedQuery& rq) const;
};

// Executes the plan: scans apply filters, joins are natural joins on shared
// variable columns. Bag semantics throughout (no deduplication) — the
// regime of a standard DBMS executor.
Result<Relation> ExecuteJoinPlan(const JoinPlan& plan, const ResolvedQuery& rq,
                                 const Catalog& catalog, ExecContext* ctx);

}  // namespace htqo

#endif  // HTQO_EXEC_PLAN_H_
