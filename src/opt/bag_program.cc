#include "opt/bag_program.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "cq/hypergraph_builder.h"
#include "exec/adaptive.h"
#include "exec/executor.h"
#include "exec/shard.h"
#include "opt/tree_waves.h"

namespace htqo {

namespace {

constexpr std::size_t kNoBag = HypertreeNode::kNoParent;

// Bags and links copied from a decomposition; bag p is vertex p.
BagProgram FromTree(const ResolvedQuery& rq, const Hypertree& hd) {
  BagProgram program;
  for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
    const HypertreeNode& node = hd.node(p);
    program.bags.push_back({node.lambda, node.chi, node.priority_children});
    program.parent.push_back(node.parent);
    program.children.push_back(node.children);
  }
  program.roots.push_back(hd.root());
  for (VarId v : rq.cq.output_vars) program.output.push_back(rq.cq.vars[v].name);
  return program;
}

// One relation of a fold: a lambda scan or a child's result.
struct FoldItem {
  Relation rel;
  bool priority = false;
};

class Executor {
 public:
  Executor(const BagProgram& program, const ResolvedQuery& rq,
           const Catalog& catalog, ExecContext* ctx)
      : program_(program),
        rq_(rq),
        catalog_(catalog),
        ctx_(ctx),
        sharded_(ctx->shard != nullptr && ctx->replan == nullptr),
        rel_(program.bags.size()) {
    // Postorder (children before parents, each tree in turn).
    std::vector<std::size_t> stack;
    for (std::size_t root : program.roots) {
      const std::size_t begin = postorder_.size();
      stack.push_back(root);
      while (!stack.empty()) {
        const std::size_t p = stack.back();
        stack.pop_back();
        postorder_.push_back(p);
        for (std::size_t c : program.children[p]) stack.push_back(c);
      }
      std::reverse(postorder_.begin() + begin, postorder_.end());
    }
    up_ = HeightWaves(postorder_, program.children);
  }

  Result<Relation> Run() {
    for (BagPass pass : program_.passes) {
      Status s = RunPass(pass);
      if (!s.ok()) return s;
    }
    // Combine the trees of the forest (cross products when disconnected),
    // then project onto out(Q) (step P''' for a q-HD program).
    std::optional<Relation> result;
    for (std::size_t r : program_.roots) {
      HTQO_CHECK(rel_[r].has_value());
      if (!result.has_value()) {
        result = std::move(*rel_[r]);
      } else {
        auto joined = NaturalHashJoin(*result, *rel_[r], ctx_);
        if (!joined.ok()) return joined.status();
        result = std::move(joined.value());
      }
      rel_[r].reset();
    }
    HTQO_CHECK(result.has_value());
    return ProjectByName(*result, program_.output, ctx_);
  }

 private:
  Status RunPass(BagPass pass) {
    switch (pass) {
      case BagPass::kScan: {
        std::vector<Relation> scans;
        Status s = ScanAll(
            rel_.size(),
            [&](std::size_t p) { return program_.bags[p].lambda.FirstSet(); },
            &scans);
        for (std::size_t p = 0; p < scans.size(); ++p) {
          rel_[p] = std::move(scans[p]);
        }
        return s;
      }
      case BagPass::kMaterialize:
        // One bag at a time, in bag order, at every thread count (the
        // operators inside still use the pool): the bag joins are the
        // plan's largest, and running them side by side would make their
        // spill decisions depend on scheduling (DESIGN.md §6c).
        for (std::size_t p = 0; p < rel_.size(); ++p) {
          Status s = FoldBag(p, /*up=*/false);
          if (!s.ok()) return s;
        }
        return Status::Ok();
      case BagPass::kSemijoinUp:
        if (sharded_) return ExchangeReduce();
        return Phase("reduce_up", up_, [&](std::size_t p) {
          for (std::size_t c : program_.children[p]) {
            auto reduced = NaturalSemiJoin(*rel_[p], *rel_[c], ctx_);
            if (!reduced.ok()) return reduced.status();
            rel_[p] = std::move(reduced.value());
          }
          ctx_->NotePeak(*rel_[p]);
          return Status::Ok();
        });
      case BagPass::kSemijoinDown:
        if (sharded_) return Status::Ok();  // the exchange ran both ways
        // Writes p's children and reads p: equal-depth bags have disjoint
        // child sets, so a depth wave is race-free.
        return Phase("reduce_down",
                     DepthWaves(postorder_, program_.parent, kNoBag),
                     [&](std::size_t p) {
                       for (std::size_t c : program_.children[p]) {
                         auto reduced =
                             NaturalSemiJoin(*rel_[c], *rel_[p], ctx_);
                         if (!reduced.ok()) return reduced.status();
                         rel_[c] = std::move(reduced.value());
                       }
                       return Status::Ok();
                     });
      case BagPass::kCollect:
        return Phase("collect", up_,
                     [&](std::size_t p) { return Collect(p); });
      case BagPass::kFoldUp:
        return FoldUp();
    }
    return Status::Internal("unknown bag pass");
  }

  // One Yannakakis pass under its trace span.
  Status Phase(const char* phase,
               const std::vector<std::vector<std::size_t>>& waves,
               const std::function<Status(std::size_t)>& body) {
    ScopedSpan span(ctx_->tracer, "yannakakis.pass");
    span.Attr("phase", phase);
    return RunWaves(ctx_, waves, body);
  }

  // Scans atom `atom_of(i)` into (*out)[i] for every i < n, fanned out over
  // the context's lanes (shard lanes when sharded). ScanAtom is
  // deterministic at any thread count and every task writes its own slot.
  template <typename AtomOf>
  Status ScanAll(std::size_t n, AtomOf atom_of, std::vector<Relation>* out) {
    out->resize(n);
    return ShardParallelMap(ctx_, n, [&](std::size_t i) {
      auto scan = ScanAtom(rq_, atom_of(i), catalog_, ctx_);
      if (!scan.ok()) return scan.status();
      (*out)[i] = std::move(scan.value());
      return Status::Ok();
    });
  }

  // Sharded runs replace the two semijoin passes with the hash-partitioned
  // exchange reduction (exec/shard.h): the same survivor rows in the same
  // order at any shard count; any Bloom phantom left dangling is dropped
  // by the collect joins.
  Status ExchangeReduce() {
    ScopedSpan span(ctx_->tracer, "yannakakis.pass");
    span.Attr("phase", "shard_reduce");
    std::vector<Relation> nodes(rel_.size());
    for (std::size_t p = 0; p < rel_.size(); ++p) nodes[p] = std::move(*rel_[p]);
    Status s = ShardedReduceForest(&nodes, program_.parent, program_.children,
                                   postorder_, kNoBag, ctx_);
    for (std::size_t p = 0; p < rel_.size(); ++p) rel_[p] = std::move(nodes[p]);
    return s;
  }

  // Joins p's children's results, keeping the output columns plus those
  // shared with the parent, whose relation a later wave has not collected.
  Status Collect(std::size_t p) {
    Relation t = std::move(*rel_[p]);
    for (std::size_t c : program_.children[p]) {
      auto joined = NaturalHashJoin(t, *rel_[c], ctx_);
      if (!joined.ok()) return joined.status();
      t = std::move(joined.value());
      rel_[c].reset();
      Status s = ctx_->ChargeWork(t.NumRows());
      if (!s.ok()) return s;
    }
    const std::vector<std::string>& out = program_.output;
    const std::size_t parent = program_.parent[p];
    std::vector<std::string> keep;
    for (const Column& col : t.schema().columns()) {
      if (std::find(out.begin(), out.end(), col.name) != out.end() ||
          (parent != kNoBag &&
           rel_[parent]->schema().IndexOf(col.name).has_value())) {
        keep.push_back(col.name);
      }
    }
    auto projected = ProjectByName(t, keep, ctx_);
    if (!projected.ok()) return projected.status();
    rel_[p] = std::move(projected.value());
    ctx_->NotePeak(*rel_[p]);
    return Status::Ok();
  }

  // Bag p's relation from its lambda scans (copies of the pre-reduced scans
  // when a sharded fold-up made them) and, folding `up`, its children's
  // results, which it consumes.
  Status FoldBag(std::size_t p, bool up) {
    std::vector<FoldItem> pool;
    for (std::size_t a : program_.bags[p].lambda.ToVector()) {
      if (!reduced_.empty()) {
        // An atom may label several bags; each takes a copy of the
        // pre-reduced scan, charged as emitted rows like a scan.
        Status s = ctx_->ChargeRows(reduced_[a].NumRows());
        if (!s.ok()) return s;
        pool.push_back({reduced_[a]});
        continue;
      }
      auto scan = ScanAtom(rq_, a, catalog_, ctx_);
      if (!scan.ok()) return scan.status();
      pool.push_back({std::move(scan.value())});
    }
    const std::vector<std::size_t>& priority =
        program_.bags[p].priority_children;
    if (up) {
      for (std::size_t c : program_.children[p]) {
        pool.push_back(
            {std::move(*rel_[c]), std::find(priority.begin(), priority.end(),
                                            c) != priority.end()});
        rel_[c].reset();  // free child memory eagerly
      }
    }
    auto folded = Fold(p, std::move(pool), /*project_each_step=*/up);
    if (!folded.ok()) return folded.status();
    rel_[p] = std::move(folded.value());
    return Status::Ok();
  }

  // The greedy fold, always preferring the smallest relation that shares a
  // column with the accumulated result. This realizes (and generalizes)
  // the paper's topological-order caveat (Section 4.1): a vertex of a
  // cyclic query often carries atoms from remote parts of the cycle in one
  // lambda label, and joining them before the child result that connects
  // them would materialize their cross product. Priority children win seed
  // ties: they bound the variables a pruned atom used to bound. With
  // `project_each_step`, every join is followed by a projection onto chi
  // plus whatever a remaining relation still joins on. The result is
  // projected onto chi.
  Result<Relation> Fold(std::size_t p, std::vector<FoldItem> pool,
                        bool project_each_step) {
    HTQO_CHECK(!pool.empty());
    std::vector<std::string> chi;
    for (std::size_t v : program_.bags[p].chi.ToVector()) {
      chi.push_back(rq_.cq.vars[v].name);
    }
    std::vector<bool> used(pool.size(), false);
    std::size_t first = 0;
    for (std::size_t i = 1; i < pool.size(); ++i) {
      if (pool[i].rel.NumRows() < pool[first].rel.NumRows() ||
          (pool[i].rel.NumRows() == pool[first].rel.NumRows() &&
           pool[i].priority && !pool[first].priority)) {
        first = i;
      }
    }
    used[first] = true;
    Relation current = std::move(pool[first].rel);
    for (std::size_t step = 1; step < pool.size(); ++step) {
      auto connected = [&](std::size_t i) {
        for (const Column& c : pool[i].rel.schema().columns()) {
          if (current.schema().IndexOf(c.name).has_value()) return true;
        }
        return false;
      };
      std::size_t best = pool.size();
      bool best_connected = false;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (used[i]) continue;
        const bool conn = connected(i);
        if (best == pool.size() || (conn && !best_connected) ||
            (conn == best_connected &&
             pool[i].rel.NumRows() < pool[best].rel.NumRows())) {
          best = i;
          best_connected = conn;
        }
      }
      used[best] = true;
      auto joined = NaturalHashJoin(current, pool[best].rel, ctx_);
      if (!joined.ok()) return joined.status();
      pool[best].rel = Relation();  // free eagerly
      Status s = ctx_->ChargeWork(joined->NumRows());
      if (!s.ok()) return s;
      if (!project_each_step) {
        current = std::move(joined.value());
        continue;
      }
      std::vector<std::string> names;
      for (const Column& col : joined->schema().columns()) {
        bool needed = std::find(chi.begin(), chi.end(), col.name) != chi.end();
        for (std::size_t i = 0; i < pool.size() && !needed; ++i) {
          needed = !used[i] && pool[i].rel.schema().IndexOf(col.name);
        }
        if (needed) names.push_back(col.name);
      }
      auto projected = ProjectByName(*joined, names, ctx_);
      if (!projected.ok()) return projected.status();
      current = std::move(projected.value());
      ctx_->NotePeak(current);
    }
    // Every chi variable is available: condition 3 guarantees it before
    // Optimize, the pruning guard after.
    for (const std::string& name : chi) {
      HTQO_CHECK(current.schema().IndexOf(name).has_value());
    }
    auto chi_rel = ProjectByName(current, chi, ctx_);
    if (chi_rel.ok()) ctx_->NotePeak(*chi_rel);
    return chi_rel;
  }

  Status FoldUp() {
    const std::size_t n = rel_.size();
    // Sharded: scan every atom once and pre-reduce the scans with the
    // exchange program over a spanning forest of the shares-a-variable
    // graph — sound even for cyclic queries, where it only drops rows that
    // cannot match a neighbouring atom. The reduced contents are
    // S-invariant, so the fold (and the output) is byte-identical at any
    // shard count; against the unsharded engine only the row multiset is
    // guaranteed (smaller inputs can reorder the fold).
    if (sharded_) {
      Status s = ScanAll(
          rq_.cq.atoms.size(), [](std::size_t a) { return a; }, &reduced_);
      if (!s.ok()) return s;
      SpanningForest sf = BuildSharedColumnForest(reduced_);
      s = ShardedReduceForest(&reduced_, sf.parent, sf.children, sf.postorder,
                              SpanningForest::kNone, ctx_);
      if (!s.ok()) return s;
    }

    // Replanning (DESIGN.md §6h). Checkpointed results are taken here, on
    // the coordinating thread, before any lane runs (the controller's
    // store is not locked); bags beneath a restored one are skipped, and a
    // restored bag (staged[p] stays engaged) never re-triggers a trip.
    ReplanController* const rc = ctx_->replan;
    std::vector<ReplanController::CheckpointKey> keys(n);
    std::vector<std::optional<Relation>> staged(n);
    std::vector<bool> skip(n, false);
    if (rc != nullptr) {
      std::vector<Bitset> subtree_lambda(n);
      for (std::size_t p : postorder_) {
        subtree_lambda[p] = program_.bags[p].lambda;
        for (std::size_t c : program_.children[p]) {
          subtree_lambda[p] |= subtree_lambda[c];
        }
        keys[p] = {subtree_lambda[p].ToVector(),
                   program_.bags[p].chi.ToVector()};
      }
      for (auto it = postorder_.rbegin(); it != postorder_.rend(); ++it) {
        const std::size_t parent = program_.parent[*it];
        if (parent != kNoBag && (skip[parent] || staged[parent].has_value())) {
          skip[*it] = true;
        } else {
          staged[*it] = rc->TakeCheckpoint(keys[*it]);
        }
      }
    }

    auto body = [&](std::size_t p) -> Status {
      if (skip[p]) return Status::Ok();
      // Explicit parent: on a pool lane the TLS span stack is empty, so
      // the wave span arrives via ctx->trace_parent.
      ScopedSpan node_span(ctx_->tracer, "qhd.node", ctx_->SpanParent());
      node_span.Attr("node", p);
      if (staged[p].has_value()) {
        node_span.Attr("checkpoint", "reused");
        rel_[p] = std::move(*staged[p]);
      } else {
        Status s = FoldBag(p, /*up=*/true);
        if (!s.ok()) return s;
      }
      node_span.Attr("rows", rel_[p]->NumRows());
      return Status::Ok();
    };

    // Between waves, on the coordinating thread once every bag of the wave
    // has joined, compare each fresh result against its estimate. The set
    // of completed waves is a function of the tree alone, so the trip
    // decision (and the checkpointed set) is identical at any thread
    // count. On a trip every live result is checkpointed in bag order and
    // the executor backs out; the optimizer re-plans and resumes.
    auto barrier = [&]() -> Status {
      if (!rc->armed()) return Status::Ok();
      std::size_t trip = n;
      for (std::size_t p = 0; p < n && trip == n; ++p) {
        if (!staged[p].has_value() && rel_[p].has_value() &&
            rc->ShouldTrip(p, rel_[p]->NumRows())) {
          trip = p;
        }
      }
      if (trip == n) return Status::Ok();
      const std::size_t actual = rel_[trip]->NumRows();
      const double estimate = rc->NodeEstimate(trip);
      for (std::size_t p = 0; p < n; ++p) {
        if (!rel_[p].has_value()) continue;
        // Reused results are re-stored too: a second pass may need them.
        rc->StoreCheckpoint(keys[p], std::move(*rel_[p]));
        rel_[p].reset();
      }
      rc->RecordTrip(trip, actual);
      return Status::Internal(
          "mid-query replan requested: node " + std::to_string(trip) +
          " produced " + std::to_string(actual) + " rows vs estimate " +
          std::to_string(static_cast<std::size_t>(estimate)));
    };
    return RunWaves(ctx_, up_, body,
                    rc != nullptr ? barrier : std::function<Status()>());
  }

  const BagProgram& program_;
  const ResolvedQuery& rq_;
  const Catalog& catalog_;
  ExecContext* const ctx_;
  const bool sharded_;
  // The current relation of each bag, reset once its parent consumed it.
  std::vector<std::optional<Relation>> rel_;
  std::vector<Relation> reduced_;  // pre-reduced atom scans (sharded fold-up)
  std::vector<std::size_t> postorder_;
  std::vector<std::vector<std::size_t>> up_;  // height waves
};

}  // namespace

BagProgram YannakakisProgram(const ResolvedQuery& rq, const Hypergraph& h,
                             const JoinForest& forest) {
  HTQO_CHECK(forest.parent.size() == h.NumEdges());
  BagProgram program;
  program.parent = forest.parent;
  program.children.resize(h.NumEdges());
  for (std::size_t e = 0; e < h.NumEdges(); ++e) {
    Bitset lambda(h.NumEdges());
    lambda.Set(e);
    program.bags.push_back({lambda, h.VarsOf(lambda), {}});
    if (forest.parent[e] != kNoBag) program.children[forest.parent[e]].push_back(e);
  }
  program.roots = forest.roots;
  program.passes = {BagPass::kScan, BagPass::kSemijoinUp,
                    BagPass::kSemijoinDown, BagPass::kCollect};
  for (VarId v : rq.cq.output_vars) program.output.push_back(rq.cq.vars[v].name);
  return program;
}

Result<BagProgram> ClassicProgram(const ResolvedQuery& rq,
                                  const Hypergraph& h, const Hypertree& hd) {
  for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
    if (!hd.node(p).chi.IsSubsetOf(h.VarsOf(hd.node(p).lambda))) {
      return Status::InvalidArgument(
          "classic evaluation requires chi ⊆ var(lambda) at every vertex "
          "(run q-HypertreeDecomp without Procedure Optimize)");
    }
  }
  BagProgram program = FromTree(rq, hd);
  program.passes = {BagPass::kMaterialize, BagPass::kSemijoinUp,
                    BagPass::kSemijoinDown, BagPass::kCollect};
  return program;
}

BagProgram QhdProgram(const ResolvedQuery& rq, const Hypertree& hd) {
  HTQO_CHECK(OutputVarsBitset(rq.cq).IsSubsetOf(hd.node(hd.root()).chi));
  BagProgram program = FromTree(rq, hd);
  program.passes = {BagPass::kFoldUp};
  return program;
}

Result<Relation> RunBagProgram(const BagProgram& program,
                               const ResolvedQuery& rq,
                               const Catalog& catalog, ExecContext* ctx) {
  if (rq.cq.always_false) return EmptyAnswer(rq);
  return Executor(program, rq, catalog, ctx).Run();
}

}  // namespace htqo
