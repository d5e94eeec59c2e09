#include "exec/plan.h"

namespace htqo {

std::unique_ptr<JoinPlan> JoinPlan::Leaf(std::size_t atom) {
  auto node = std::make_unique<JoinPlan>();
  node->atom = atom;
  return node;
}

std::unique_ptr<JoinPlan> JoinPlan::Join(std::unique_ptr<JoinPlan> l,
                                         std::unique_ptr<JoinPlan> r,
                                         JoinAlgo algo) {
  auto node = std::make_unique<JoinPlan>();
  node->left = std::move(l);
  node->right = std::move(r);
  node->algo = algo;
  return node;
}

void JoinPlan::CollectAtoms(std::vector<std::size_t>* out) const {
  if (IsLeaf()) {
    out->push_back(atom);
    return;
  }
  left->CollectAtoms(out);
  right->CollectAtoms(out);
}

std::string JoinPlan::ToString(const ResolvedQuery& rq) const {
  if (IsLeaf()) return rq.cq.atoms[atom].alias;
  const char* op = algo == JoinAlgo::kHash ? " HJ " : " NL ";
  return "(" + left->ToString(rq) + op + right->ToString(rq) + ")";
}

Result<Relation> ExecuteJoinPlan(const JoinPlan& plan, const ResolvedQuery& rq,
                                 const Catalog& catalog, ExecContext* ctx) {
  ScopedSpan node_span(ctx->tracer, "plan.node", ctx->SpanParent());
  if (plan.IsLeaf()) {
    node_span.Attr("op", "scan");
    node_span.Attr("atom", rq.cq.atoms[plan.atom].alias);
    auto scan = ScanAtom(rq, plan.atom, catalog, ctx);
    if (scan.ok()) node_span.Attr("rows_out", scan->NumRows());
    return scan;
  }
  node_span.Attr("op",
                 plan.algo == JoinAlgo::kHash ? "hash_join" : "nl_join");
  auto left = ExecuteJoinPlan(*plan.left, rq, catalog, ctx);
  if (!left.ok()) return left.status();
  auto right = ExecuteJoinPlan(*plan.right, rq, catalog, ctx);
  if (!right.ok()) return right.status();
  Result<Relation> joined = Status::Internal("unknown join algorithm");
  switch (plan.algo) {
    case JoinAlgo::kHash:
      joined = NaturalHashJoin(*left, *right, ctx);
      break;
    case JoinAlgo::kNestedLoop:
      joined = NaturalNestedLoopJoin(*left, *right, ctx);
      break;
  }
  if (joined.ok()) node_span.Attr("rows_out", joined->NumRows());
  return joined;
}

}  // namespace htqo
