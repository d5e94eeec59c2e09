// One evaluator for every tree-shaped plan: a bag program and its executor.
//
// Gottlob, Leone and Scarcello evaluate a decomposition by turning it into
// an acyclic instance of bags and running Yannakakis over it; the paper's
// q-hypertree evaluation (Section 4, steps P'/P''/P''') is the same idea
// with one rooted join-up pass. A BagProgram states such an evaluation as
// data: bags (lambda, chi), a rooted forest over them, a pass list and the
// output variables. Three builders produce one per tree-shaped mode:
// Yannakakis (Section 3.2, ref [12]), the classic S2'/S2'' pipeline, and
// q-HD. RunBagProgram is the one executor. It owns the greedy fold, the
// wave schedule (RunWaves at every thread count), the sharded paths
// (DESIGN.md §6j) and the replan barrier (DESIGN.md §6h, armed only when
// ctx->replan is set). What differs between the modes is the program,
// never a mode switch in the executor.

#ifndef HTQO_OPT_BAG_PROGRAM_H_
#define HTQO_OPT_BAG_PROGRAM_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cq/isolator.h"
#include "decomp/hypertree.h"
#include "exec/operators.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/join_tree.h"
#include "storage/catalog.h"
#include "util/bitset.h"
#include "util/status.h"

namespace htqo {

enum class BagPass {
  // Every bag is one atom: its relation is the atom's scan, unprojected.
  // The scans fan out over the context's lanes (shard lanes when sharded).
  kScan,
  // Step S2': each bag joins its lambda scans with the greedy fold, then
  // projects onto chi.
  kMaterialize,
  // Yannakakis pass (i): each bag is semijoin-reduced by its children.
  kSemijoinUp,
  // Yannakakis pass (ii): each bag's children are semijoin-reduced by it.
  // A sharded run has already reduced both directions at kSemijoinUp.
  kSemijoinDown,
  // Yannakakis pass (iii): each bag joins its children's results and keeps
  // the output columns plus the columns it shares with its parent.
  kCollect,
  // Steps P' and P'': each bag folds its lambda scans together with its
  // children's results, projecting onto chi plus the columns a pending
  // join still needs after every step (set semantics: the polynomial
  // bound), and onto chi exactly at the end.
  kFoldUp,
};

struct Bag {
  Bitset lambda;  // atom indices (hyperedges of H(Q))
  Bitset chi;     // variable ids
  // Children recorded by Procedure Optimize: they win ties when the fold
  // picks its seed relation.
  std::vector<std::size_t> priority_children;
};

struct BagProgram {
  std::vector<Bag> bags;
  // The rooted forest over the bags: parent[p] (HypertreeNode::kNoParent
  // for a root), children[p] in evaluation order, and the roots, whose
  // results are joined.
  std::vector<std::size_t> parent;
  std::vector<std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  std::vector<BagPass> passes;
  std::vector<std::string> output;  // out(Q) variable names, in out(Q) order
};

// Yannakakis over `forest`, a join forest of h = H(Q) (BuildJoinForest says
// NotFound when H(Q) is cyclic). Bag e is atom e.
BagProgram YannakakisProgram(const ResolvedQuery& rq, const Hypergraph& h,
                             const JoinForest& forest);

// The classic pipeline S2' + S2'' over `hd`, a complete decomposition of
// H(Q) (every atom anchored). Materialized bags must be chi-complete, so
// every vertex needs chi ⊆ var(lambda) (condition 3): a tree that has been
// through Procedure Optimize is rejected with InvalidArgument. Unlike the
// q-HD program, no rooting at out(Q) is needed.
Result<BagProgram> ClassicProgram(const ResolvedQuery& rq,
                                  const Hypergraph& h, const Hypertree& hd);

// Steps P', P'', P''' over `hd`, a q-hypertree decomposition rooted at
// out(Q) (the root's chi covers the output variables). Bag p is vertex p.
BagProgram QhdProgram(const ResolvedQuery& rq, const Hypertree& hd);

// Runs `program` against `catalog` and returns the CQ answer relation
// (columns = program.output). The output is byte-identical at any thread
// count, and at any shard count >= 1; without spilling, so are the meters.
Result<Relation> RunBagProgram(const BagProgram& program,
                               const ResolvedQuery& rq,
                               const Catalog& catalog, ExecContext* ctx);

}  // namespace htqo

#endif  // HTQO_OPT_BAG_PROGRAM_H_
