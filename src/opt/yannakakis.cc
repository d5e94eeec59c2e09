#include "opt/yannakakis.h"

#include <algorithm>
#include <optional>

#include "exec/executor.h"
#include "exec/shard.h"
#include "opt/tree_waves.h"

namespace htqo {

namespace {

// Shared three-pass core over an arbitrary forest of var-column relations.
struct Forest {
  std::vector<std::size_t> parent;  // kNone for roots
  std::vector<std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Postorder (children before parents) covering all trees.
  std::vector<std::size_t> PostOrder() const {
    std::vector<std::size_t> order;
    order.reserve(parent.size());
    std::vector<std::size_t> stack;
    for (std::size_t r : roots) {
      stack.push_back(r);
      std::vector<std::size_t> pre;
      while (!stack.empty()) {
        std::size_t p = stack.back();
        stack.pop_back();
        pre.push_back(p);
        for (std::size_t c : children[p]) stack.push_back(c);
      }
      order.insert(order.end(), pre.rbegin(), pre.rend());
    }
    return order;
  }
};

Result<Relation> ThreePass(std::vector<Relation> nodes, const Forest& forest,
                           const std::vector<std::string>& out_names,
                           ExecContext* ctx) {
  const std::vector<std::size_t> postorder = forest.PostOrder();

  // Pass (i): bottom-up semijoin reduction. The body touches only nodes[p]
  // and its (finished) children, so equal-height nodes are independent.
  auto reduce_up = [&](std::size_t p) -> Status {
    for (std::size_t c : forest.children[p]) {
      auto reduced = NaturalSemiJoin(nodes[p], nodes[c], ctx);
      if (!reduced.ok()) return reduced.status();
      nodes[p] = std::move(reduced.value());
    }
    ctx->NotePeak(nodes[p]);
    return Status::Ok();
  };

  // Pass (ii): top-down semijoin reduction (preorder = reverse postorder).
  // The body writes p's children and reads nodes[p], so equal-depth nodes
  // are independent (their child sets are disjoint).
  auto reduce_down = [&](std::size_t p) -> Status {
    for (std::size_t c : forest.children[p]) {
      auto reduced = NaturalSemiJoin(nodes[c], nodes[p], ctx);
      if (!reduced.ok()) return reduced.status();
      nodes[c] = std::move(reduced.value());
    }
    return Status::Ok();
  };

  // Pass (iii): bottom-up joins, projecting onto the output columns found
  // so far plus whatever connects to the parent. Reads the parent's schema,
  // which a later wave has not yet moved from.
  std::vector<std::optional<Relation>> collected(nodes.size());
  auto collect = [&](std::size_t p) -> Status {
    Relation t = std::move(nodes[p]);
    for (std::size_t c : forest.children[p]) {
      HTQO_CHECK(collected[c].has_value());
      auto joined = NaturalHashJoin(t, *collected[c], ctx);
      if (!joined.ok()) return joined.status();
      t = std::move(joined.value());
      collected[c].reset();
      Status s = ctx->ChargeWork(t.NumRows());
      if (!s.ok()) return s;
    }
    // Keep: output columns present, plus columns shared with the parent.
    std::vector<std::string> keep;
    for (const Column& col : t.schema().columns()) {
      bool needed = std::find(out_names.begin(), out_names.end(), col.name) !=
                    out_names.end();
      if (!needed && forest.parent[p] != Forest::kNone) {
        needed = nodes[forest.parent[p]]
                     .schema()
                     .IndexOf(col.name)
                     .has_value();
      }
      if (needed) keep.push_back(col.name);
    }
    auto projected = ProjectByName(t, keep, ctx);
    if (!projected.ok()) return projected.status();
    collected[p] = std::move(projected.value());
    ctx->NotePeak(*collected[p]);
    return Status::Ok();
  };

  // Sharded evaluation replaces the two semijoin passes with the
  // hash-partitioned exchange reduction (exec/shard.h): same survivor
  // rows in the same order at any shard count, and any Bloom phantom left
  // dangling is eliminated by the collect joins below. Replan-armed runs
  // keep the semijoin passes (replanning owns the wave barriers).
  const bool sharded = ctx->shard != nullptr && ctx->replan == nullptr;
  if (sharded) {
    ScopedSpan pass_span(ctx->tracer, "yannakakis.pass");
    pass_span.Attr("phase", "shard_reduce");
    Status s = ShardedReduceForest(&nodes, forest.parent, forest.children,
                                   postorder, Forest::kNone, ctx);
    if (!s.ok()) return s;
  }

  if (ctx->parallel()) {
    // Sibling subtrees run concurrently, wave by wave; node results are
    // order-independent, so the output matches the serial sweeps exactly.
    auto up = HeightWaves(postorder, forest.children);
    if (!sharded) {
      auto down = DepthWaves(postorder, forest.parent, Forest::kNone);
      {
        ScopedSpan pass_span(ctx->tracer, "yannakakis.pass");
        pass_span.Attr("phase", "reduce_up");
        Status s = RunWaves(ctx, up, reduce_up);
        if (!s.ok()) return s;
      }
      {
        ScopedSpan pass_span(ctx->tracer, "yannakakis.pass");
        pass_span.Attr("phase", "reduce_down");
        Status s = RunWaves(ctx, down, reduce_down);
        if (!s.ok()) return s;
      }
    }
    {
      ScopedSpan pass_span(ctx->tracer, "yannakakis.pass");
      pass_span.Attr("phase", "collect");
      Status s = RunWaves(ctx, up, collect);
      if (!s.ok()) return s;
    }
  } else {
    if (!sharded) {
      {
        ScopedSpan pass_span(ctx->tracer, "yannakakis.pass");
        pass_span.Attr("phase", "reduce_up");
        for (std::size_t p : postorder) {
          Status s = reduce_up(p);
          if (!s.ok()) return s;
        }
      }
      {
        ScopedSpan pass_span(ctx->tracer, "yannakakis.pass");
        pass_span.Attr("phase", "reduce_down");
        for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
          Status s = reduce_down(*it);
          if (!s.ok()) return s;
        }
      }
    }
    {
      ScopedSpan pass_span(ctx->tracer, "yannakakis.pass");
      pass_span.Attr("phase", "collect");
      for (std::size_t p : postorder) {
        Status s = collect(p);
        if (!s.ok()) return s;
      }
    }
  }

  // Combine the trees of the forest (cross products when disconnected).
  std::optional<Relation> result;
  for (std::size_t r : forest.roots) {
    HTQO_CHECK(collected[r].has_value());
    if (!result.has_value()) {
      result = std::move(*collected[r]);
    } else {
      auto joined = NaturalHashJoin(*result, *collected[r], ctx);
      if (!joined.ok()) return joined.status();
      result = std::move(joined.value());
    }
    collected[r].reset();
  }
  HTQO_CHECK(result.has_value());
  return ProjectByName(*result, out_names, ctx);
}

std::vector<std::string> OutNames(const ResolvedQuery& rq) {
  std::vector<std::string> out;
  out.reserve(rq.cq.output_vars.size());
  for (VarId v : rq.cq.output_vars) out.push_back(rq.cq.vars[v].name);
  return out;
}

}  // namespace

Result<Relation> YannakakisEvaluate(const ResolvedQuery& rq,
                                    const Catalog& catalog,
                                    const Hypergraph& h,
                                    const JoinForest& join_forest,
                                    ExecContext* ctx) {
  if (rq.cq.always_false) return EmptyAnswer(rq);
  HTQO_CHECK(join_forest.parent.size() == h.NumEdges());
  Forest forest;
  forest.parent = join_forest.parent;
  forest.roots = join_forest.roots;
  forest.children.resize(h.NumEdges());
  for (std::size_t e = 0; e < h.NumEdges(); ++e) {
    if (forest.parent[e] != Forest::kNone) {
      forest.children[forest.parent[e]].push_back(e);
    }
  }

  std::vector<Relation> nodes(rq.cq.atoms.size());
  if (ctx->shard != nullptr && ctx->replan == nullptr) {
    // Sharded runs fan the independent per-atom scans across the pool's
    // shard lanes; each task writes only its own slot and ScanAtom output
    // is deterministic at any thread count, so results don't depend on
    // scheduling.
    Status s = ShardParallelMap(ctx, nodes.size(), [&](std::size_t a) {
      auto scan = ScanAtom(rq, a, catalog, ctx);
      if (!scan.ok()) return scan.status();
      nodes[a] = std::move(scan.value());
      return Status::Ok();
    });
    if (!s.ok()) return s;
  } else {
    for (std::size_t a = 0; a < rq.cq.atoms.size(); ++a) {
      auto scan = ScanAtom(rq, a, catalog, ctx);
      if (!scan.ok()) return scan.status();
      nodes[a] = std::move(scan.value());
    }
  }
  return ThreePass(std::move(nodes), forest, OutNames(rq), ctx);
}

Result<Relation> EvaluateDecompositionClassic(const ResolvedQuery& rq,
                                              const Catalog& catalog,
                                              const Hypergraph& h,
                                              const Hypertree& hd,
                                              ExecContext* ctx) {
  if (rq.cq.always_false) return EmptyAnswer(rq);

  // The classic pipeline materializes chi-complete vertex relations, so it
  // requires condition 3 (chi ⊆ var(lambda)) — i.e. a decomposition that
  // has not been through Procedure Optimize.
  for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
    if (!hd.node(p).chi.IsSubsetOf(h.VarsOf(hd.node(p).lambda))) {
      return Status::InvalidArgument(
          "classic evaluation requires chi ⊆ var(lambda) at every vertex "
          "(run q-HypertreeDecomp without Procedure Optimize)");
    }
  }

  Forest forest;
  forest.parent.resize(hd.NumNodes());
  forest.children.resize(hd.NumNodes());
  for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
    forest.parent[p] = hd.node(p).parent == HypertreeNode::kNoParent
                           ? Forest::kNone
                           : hd.node(p).parent;
    forest.children[p] = hd.node(p).children;
  }
  forest.roots.push_back(hd.root());

  // Step S2': one relation per vertex — join of lambda(p) (connected-first
  // greedy fold), projected onto chi(p).
  std::vector<Relation> nodes;
  nodes.reserve(hd.NumNodes());
  for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
    const HypertreeNode& node = hd.node(p);
    std::vector<std::size_t> atoms = node.lambda.ToVector();
    HTQO_CHECK(!atoms.empty());  // complete decompositions only
    std::vector<Relation> scans;
    scans.reserve(atoms.size());
    for (std::size_t a : atoms) {
      auto scan = ScanAtom(rq, a, catalog, ctx);
      if (!scan.ok()) return scan.status();
      scans.push_back(std::move(scan.value()));
    }
    std::vector<bool> used(scans.size(), false);
    std::size_t first = 0;
    for (std::size_t i = 1; i < scans.size(); ++i) {
      if (scans[i].NumRows() < scans[first].NumRows()) first = i;
    }
    used[first] = true;
    Relation current = std::move(scans[first]);
    for (std::size_t step = 1; step < scans.size(); ++step) {
      std::size_t best = scans.size();
      bool best_connected = false;
      auto connected = [&](std::size_t i) {
        for (const Column& c : scans[i].schema().columns()) {
          if (current.schema().IndexOf(c.name).has_value()) return true;
        }
        return false;
      };
      for (std::size_t i = 0; i < scans.size(); ++i) {
        if (used[i]) continue;
        bool conn = connected(i);
        if (best == scans.size() || (conn && !best_connected) ||
            (conn == best_connected &&
             scans[i].NumRows() < scans[best].NumRows())) {
          best = i;
          best_connected = conn;
        }
      }
      used[best] = true;
      auto joined = NaturalHashJoin(current, scans[best], ctx);
      if (!joined.ok()) return joined.status();
      current = std::move(joined.value());
      Status s = ctx->ChargeWork(current.NumRows());
      if (!s.ok()) return s;
    }
    // Project onto chi(p).
    std::vector<std::string> chi_names;
    for (std::size_t v : node.chi.ToVector()) {
      chi_names.push_back(rq.cq.vars[v].name);
    }
    auto chi_rel = ProjectByName(current, chi_names, ctx);
    if (!chi_rel.ok()) return chi_rel.status();
    nodes.push_back(std::move(chi_rel.value()));
    ctx->NotePeak(nodes.back());
  }

  // Step S2'': Yannakakis over the decomposition tree.
  return ThreePass(std::move(nodes), forest, OutNames(rq), ctx);
}

}  // namespace htqo
