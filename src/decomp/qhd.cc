#include "decomp/qhd.h"

#include "decomp/optimize.h"

namespace htqo {

std::size_t CompleteDecomposition(const Hypergraph& h, Hypertree* hd) {
  // An atom is *anchored* at p when e ∈ lambda(p) and e ⊆ chi(p): only there
  // is its constraint applied in full (lambda joins are projected to chi, so
  // an occurrence with variables outside chi is a partial, bounding-only
  // application). Every atom needs at least one anchor or the rewritten
  // query is weaker than Q.
  std::size_t added = 0;
  for (std::size_t e = 0; e < h.NumEdges(); ++e) {
    bool anchored = false;
    for (std::size_t p = 0; p < hd->NumNodes() && !anchored; ++p) {
      anchored = hd->node(p).lambda.Test(e) &&
                 h.edge(e).IsSubsetOf(hd->node(p).chi);
    }
    if (anchored) continue;
    // Find a node whose chi covers the edge (exists by condition 1) and
    // attach a width-1 anchor child below it.
    std::size_t cover = HypertreeNode::kNoParent;
    for (std::size_t p = 0; p < hd->NumNodes(); ++p) {
      if (h.edge(e).IsSubsetOf(hd->node(p).chi)) {
        cover = p;
        break;
      }
    }
    HTQO_CHECK(cover != HypertreeNode::kNoParent);
    Bitset lambda = h.EmptyEdgeSet();
    lambda.Set(e);
    hd->AddNode(h.edge(e), lambda, cover);
    ++added;
  }
  return added;
}

Result<QhdResult> QHypertreeDecomp(const Hypergraph& h, const Bitset& out_vars,
                                   const DecompositionCostModel& model,
                                   const QhdOptions& options) {
  Result<Hypertree> hd = Status::Internal("unset");
  {
    ScopedSpan search_span(options.tracer,
                           options.first_feasible ? "search.det-k-decomp"
                                                  : "search.cost-k-decomp");
    search_span.Attr("max_width", options.max_width);
    const std::size_t nodes_before =
        options.governor != nullptr ? options.governor->stats().search_nodes
                                    : 0;
    hd = SearchDecomposition(h, options.max_width,
                             options.first_feasible ? nullptr : &model,
                             &out_vars, options.governor, options.pool,
                             options.num_threads);
    if (options.governor != nullptr) {
      search_span.Attr(
          "nodes_visited",
          options.governor->stats().search_nodes - nodes_before);
    }
    search_span.Attr(
        "outcome",
        hd.ok() ? "ok"
                : (hd.status().code() == StatusCode::kDeadlineExceeded
                       ? "budget-exceeded"
                       : "failure"));
  }
  if (!hd.ok()) {
    // A governor trip is not a structural "Failure": surface it verbatim so
    // callers can degrade (retry at lower width, fall back) instead of
    // concluding that no decomposition exists.
    if (hd.status().code() == StatusCode::kDeadlineExceeded) {
      return hd.status();
    }
    return Status::NotFound(
        "Failure: no hypertree decomposition of width <= " +
        std::to_string(options.max_width) +
        " whose root covers the output variables");
  }
  QhdResult result;
  result.hd = std::move(hd.value());
  CompleteDecomposition(h, &result.hd);
  result.width = result.hd.Width();
  if (options.run_optimize) {
    ScopedSpan optimize_span(options.tracer, "optimize");
    result.pruned = OptimizeDecomposition(h, &result.hd, options.governor);
    optimize_span.Attr("pruned", result.pruned);
    if (options.governor != nullptr && options.governor->exhausted()) {
      return options.governor->trip_status();
    }
  }
  return result;
}

}  // namespace htqo
