#include "opt/qhd_planner.h"

#include <algorithm>
#include <optional>

#include "cq/hypergraph_builder.h"
#include "exec/adaptive.h"
#include "exec/executor.h"
#include "exec/shard.h"
#include "opt/tree_waves.h"

namespace htqo {

namespace {

// Projects `rel` onto the chi variables that are present in its schema,
// deduplicating (set semantics).
Result<Relation> ProjectToChi(const ResolvedQuery& rq, const Bitset& chi,
                              const Relation& rel, ExecContext* ctx) {
  std::vector<std::string> keep;
  for (std::size_t v : chi.ToVector()) {
    const std::string& name = rq.cq.vars[v].name;
    if (rel.schema().IndexOf(name).has_value()) keep.push_back(name);
  }
  return ProjectByName(rel, keep, ctx);
}

}  // namespace

Result<Relation> EvaluateDecomposition(const ResolvedQuery& rq,
                                       const Catalog& catalog,
                                       const Hypergraph& /*h*/,
                                       const Hypertree& hd, ExecContext* ctx) {
  if (rq.cq.always_false) return EmptyAnswer(rq);

  std::vector<std::optional<Relation>> rel(hd.NumNodes());

  // Adaptive re-planning (DESIGN.md §6h): with a controller on the context,
  // both engines iterate height waves (so trip decisions happen at thread-
  // count-independent barriers), node results are compared against their
  // estimates after each wave, and checkpointed subtree results from an
  // abandoned pass short-circuit matching nodes of the resumed one.
  ReplanController* const rc = ctx->replan;
  std::vector<ReplanController::CheckpointKey> keys;
  // Checkpointed results are taken here, on the coordinating thread, before
  // any pool lane runs (the controller's checkpoint store is not locked);
  // nodes beneath a staged one are skipped entirely.
  std::vector<std::optional<Relation>> staged(hd.NumNodes());
  std::vector<bool> skip(hd.NumNodes(), false);
  // Nodes restored from a checkpoint already tripped (or were paid for) in
  // the abandoned pass; they never re-trigger a trip this pass.
  std::vector<bool> reused(hd.NumNodes(), false);
  if (rc != nullptr) {
    keys.resize(hd.NumNodes());
    std::vector<Bitset> subtree_lambda(hd.NumNodes());
    for (std::size_t p : hd.PostOrder()) {
      subtree_lambda[p] = hd.node(p).lambda;
      for (std::size_t c : hd.node(p).children) {
        subtree_lambda[p] |= subtree_lambda[c];
      }
      keys[p] = {subtree_lambda[p].ToVector(), hd.node(p).chi.ToVector()};
    }
    for (std::size_t p : hd.PreOrder()) {
      const std::size_t parent = hd.node(p).parent;
      if (parent != HypertreeNode::kNoParent &&
          (skip[parent] || staged[parent].has_value())) {
        skip[p] = true;
      } else {
        staged[p] = rc->TakeCheckpoint(keys[p]);
        reused[p] = staged[p].has_value();
      }
    }
  }

  // Sharded evaluation: scan every atom once (fanned across the pool's
  // shard lanes) and pre-reduce the scans with the hash-partitioned
  // exchange program over a spanning forest of the shares-a-variable
  // graph — sound even for cyclic queries, where it only drops rows that
  // cannot match a neighbouring atom on their shared variables. Nodes then
  // fold pre-reduced copies instead of re-scanning. The reduced contents
  // are S-invariant, so the greedy fold (and the final output) is
  // byte-identical at any shard count; vs. the unsharded engine only the
  // row multiset is guaranteed (smaller inputs can reorder the fold).
  // Replan-armed runs keep the scan path: replanning owns the barriers.
  const bool sharded = ctx->shard != nullptr && rc == nullptr;
  std::vector<Relation> reduced_atoms;
  if (sharded) {
    reduced_atoms.resize(rq.cq.atoms.size());
    Status s = ShardParallelMap(ctx, reduced_atoms.size(),
                                [&](std::size_t a) -> Status {
                                  auto scan = ScanAtom(rq, a, catalog, ctx);
                                  if (!scan.ok()) return scan.status();
                                  reduced_atoms[a] = std::move(scan.value());
                                  return Status::Ok();
                                });
    if (!s.ok()) return s;
    SpanningForest sf = BuildSharedColumnForest(reduced_atoms);
    s = ShardedReduceForest(&reduced_atoms, sf.parent, sf.children,
                            sf.postorder, SpanningForest::kNone, ctx);
    if (!s.ok()) return s;
  }

  auto process_node = [&](std::size_t p) -> Status {
    if (rc != nullptr) {
      if (skip[p]) return Status::Ok();
      if (staged[p].has_value()) {
        ScopedSpan node_span(ctx->tracer, "qhd.node", ctx->SpanParent());
        node_span.Attr("node", p);
        node_span.Attr("checkpoint", "reused");
        node_span.Attr("rows", staged[p]->NumRows());
        rel[p] = std::move(*staged[p]);
        staged[p].reset();
        return Status::Ok();
      }
    }
    const HypertreeNode& node = hd.node(p);
    // Explicit parent: under RunWaves this body runs on a pool lane whose
    // TLS stack is empty, so the wave span arrives via ctx->trace_parent.
    ScopedSpan node_span(ctx->tracer, "qhd.node", ctx->SpanParent());
    node_span.Attr("node", p);

    // --- Steps P' and P'', interleaved. ------------------------------------
    // The pool holds the lambda(p) scans and the children's messages. They
    // are folded together greedily, always preferring the smallest relation
    // that shares a column with the accumulated result. This realizes —
    // and generalizes — the paper's topological-order caveat (Section 4.1):
    // a decomposition vertex of a cyclic query typically carries atoms from
    // *remote* parts of the cycle in one lambda label; joining them before
    // the child message that connects them would temporarily materialize
    // their cross product. Priority children (recorded by Procedure
    // Optimize) are natural greedy picks: they are exactly the relations
    // bounding the variables a pruned atom used to bound.
    struct PoolItem {
      Relation rel;
      bool is_priority_child = false;
    };
    std::vector<PoolItem> pool;
    for (std::size_t a : node.lambda.ToVector()) {
      if (sharded) {
        // An atom may label several nodes' lambdas; each takes a copy of
        // the pre-reduced scan (charged as emitted rows, like a scan).
        Relation copy = reduced_atoms[a];
        Status s = ctx->ChargeRows(copy.NumRows());
        if (!s.ok()) return s;
        pool.push_back(PoolItem{std::move(copy), false});
        continue;
      }
      auto scan = ScanAtom(rq, a, catalog, ctx);
      if (!scan.ok()) return scan.status();
      pool.push_back(PoolItem{std::move(scan.value()), false});
    }
    for (std::size_t c : node.children) {
      HTQO_CHECK(rel[c].has_value());
      bool priority =
          std::find(node.priority_children.begin(),
                    node.priority_children.end(),
                    c) != node.priority_children.end();
      pool.push_back(PoolItem{std::move(*rel[c]), priority});
      rel[c].reset();  // free child memory eagerly
    }
    HTQO_CHECK(!pool.empty());

    // After each fold step, project to the chi variables plus everything a
    // remaining pool item still joins on (dropping those would break the
    // pending joins); deduplicate (set semantics) to keep the polynomial
    // bound.
    auto project_needed = [&](const Relation& in,
                              const std::vector<bool>& used) {
      std::vector<std::string> names;
      for (const Column& col : in.schema().columns()) {
        bool needed = false;
        for (std::size_t v : node.chi.ToVector()) {
          if (rq.cq.vars[v].name == col.name) needed = true;
        }
        if (!needed) {
          for (std::size_t i = 0; i < pool.size() && !needed; ++i) {
            if (used[i]) continue;
            needed = pool[i].rel.schema().IndexOf(col.name).has_value();
          }
        }
        if (needed) names.push_back(col.name);
      }
      return ProjectByName(in, names, ctx);
    };

    std::vector<bool> used(pool.size(), false);
    // Seed with the smallest relation (priority children win ties).
    std::size_t first = 0;
    for (std::size_t i = 1; i < pool.size(); ++i) {
      if (pool[i].rel.NumRows() < pool[first].rel.NumRows() ||
          (pool[i].rel.NumRows() == pool[first].rel.NumRows() &&
           pool[i].is_priority_child && !pool[first].is_priority_child)) {
        first = i;
      }
    }
    used[first] = true;
    std::optional<Relation> current = std::move(pool[first].rel);
    for (std::size_t step = 1; step < pool.size(); ++step) {
      auto connected = [&](std::size_t i) {
        for (const Column& c : pool[i].rel.schema().columns()) {
          if (current->schema().IndexOf(c.name).has_value()) return true;
        }
        return false;
      };
      std::size_t best = pool.size();
      bool best_connected = false;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (used[i]) continue;
        bool conn = connected(i);
        if (best == pool.size() || (conn && !best_connected) ||
            (conn == best_connected &&
             pool[i].rel.NumRows() < pool[best].rel.NumRows())) {
          best = i;
          best_connected = conn;
        }
      }
      used[best] = true;
      auto joined = NaturalHashJoin(*current, pool[best].rel, ctx);
      if (!joined.ok()) return joined.status();
      pool[best].rel = Relation();  // free eagerly
      Status s = ctx->ChargeWork(joined->NumRows());
      if (!s.ok()) return s;
      auto projected = project_needed(*joined, used);
      if (!projected.ok()) return projected.status();
      current = std::move(projected.value());
      ctx->NotePeak(*current);
    }
    // Final projection to chi(p) exactly.
    auto chi_rel = ProjectToChi(rq, node.chi, *current, ctx);
    if (!chi_rel.ok()) return chi_rel.status();
    current = std::move(chi_rel.value());
    ctx->NotePeak(*current);

    HTQO_CHECK(current.has_value());
    // Every chi(p) variable must now be available (guaranteed by condition 3
    // pre-Optimize and by the pruning guard post-Optimize).
    for (std::size_t v : node.chi.ToVector()) {
      HTQO_CHECK(current->schema().IndexOf(rq.cq.vars[v].name).has_value());
    }
    node_span.Attr("rows", current->NumRows());
    rel[p] = std::move(*current);
    return Status::Ok();
  };

  // Between waves — on the coordinating thread, after every node body of
  // the wave has joined — compare each freshly computed node against its
  // installed estimate. A completed wave set is a function of the tree
  // alone, so the trip decision (and the checkpointed node set) is
  // identical at any thread count. On a trip, every live intermediate is
  // checkpointed in node-index order and the evaluator backs out; the
  // optimizer re-plans with the observed cardinalities pinned and resumes.
  auto wave_barrier = [&]() -> Status {
    if (rc == nullptr || !rc->armed()) return Status::Ok();
    std::size_t trip_node = hd.NumNodes();
    for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
      if (reused[p] || !rel[p].has_value()) continue;
      if (rc->ShouldTrip(p, rel[p]->NumRows())) {
        trip_node = p;
        break;
      }
    }
    if (trip_node == hd.NumNodes()) return Status::Ok();
    const std::size_t actual = rel[trip_node]->NumRows();
    const double estimate = rc->NodeEstimate(trip_node);
    for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
      if (!rel[p].has_value()) continue;
      // Reused results are re-stored too: a second pass may need them.
      rc->StoreCheckpoint(keys[p], std::move(*rel[p]));
      rel[p].reset();
    }
    rc->RecordTrip(trip_node, actual);
    return Status::Internal(
        "mid-query replan requested: node " + std::to_string(trip_node) +
        " produced " + std::to_string(actual) + " rows vs estimate " +
        std::to_string(static_cast<std::size_t>(estimate)));
  };

  const std::vector<std::size_t> postorder = hd.PostOrder();
  if (ctx->parallel() || rc != nullptr) {
    // Sibling subtrees evaluate concurrently, height wave by height wave;
    // each node touches only its own slot and its finished children, so the
    // result is identical to the serial postorder sweep. Adaptive runs take
    // this path even on the serial engine: trip decisions must land at the
    // same wave barriers at every thread count.
    std::vector<std::vector<std::size_t>> children(hd.NumNodes());
    for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
      children[p] = hd.node(p).children;
    }
    Status s = RunWaves(ctx, HeightWaves(postorder, children), process_node,
                        rc != nullptr ? wave_barrier
                                      : std::function<Status()>());
    if (!s.ok()) return s;
  } else {
    for (std::size_t p : postorder) {
      Status s = process_node(p);
      if (!s.ok()) return s;
    }
  }

  // --- Step P''': project the root onto out(Q). ----------------------------
  Bitset out_vars = OutputVarsBitset(rq.cq);
  HTQO_CHECK(out_vars.IsSubsetOf(hd.node(hd.root()).chi));
  std::vector<std::string> out_names;
  out_names.reserve(rq.cq.output_vars.size());
  for (VarId v : rq.cq.output_vars) out_names.push_back(rq.cq.vars[v].name);
  return ProjectByName(*rel[hd.root()], out_names, ctx);
}

}  // namespace htqo
