#include "decomp/cost_k_decomp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace htqo {

double StructuralCostModel::VertexRows(const Bitset& lambda,
                                       const Bitset& chi) const {
  (void)chi;
  return std::pow(CardinalityEstimate::kDefaultRows,
                  static_cast<double>(lambda.Count()));
}

double StructuralCostModel::VertexCost(const Bitset& lambda,
                                       const Bitset& chi) const {
  return VertexRows(lambda, chi);
}

double StatsDecompositionCostModel::VertexRows(const Bitset& lambda,
                                               const Bitset& chi) const {
  double join_rows = estimate_.JoinRows(lambda);
  // Projection onto chi: cannot exceed the product of distinct counts.
  double cap = 1.0;
  for (std::size_t v = chi.FirstSet(); v < chi.size(); v = chi.NextSet(v)) {
    cap *= estimate_.DistinctOf(v, lambda);
    if (cap >= join_rows) return join_rows;  // early out, cap not binding
  }
  return std::max(1.0, std::min(join_rows, cap));
}

double StatsDecompositionCostModel::VertexCost(const Bitset& lambda,
                                               const Bitset& chi) const {
  (void)chi;
  // Work of materializing the lambda join: simulate the evaluator's
  // connected-first greedy fold and charge every intermediate join size —
  // a separator of mutually disconnected edges is thereby charged its cross
  // products.
  std::vector<std::size_t> edges = lambda.ToVector();
  if (edges.empty()) return 0.0;
  std::sort(edges.begin(), edges.end(), [&](std::size_t a, std::size_t b) {
    return estimate_.rows(a) < estimate_.rows(b);
  });
  Bitset subset(lambda.size());
  subset.Set(edges[0]);
  Bitset covered = estimate_.vars(edges[0]);
  double cost = std::max(1.0, estimate_.rows(edges[0]));
  std::vector<bool> used(edges.size(), false);
  used[0] = true;
  for (std::size_t step = 1; step < edges.size(); ++step) {
    std::size_t best = edges.size();
    bool best_connected = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (used[i]) continue;
      bool conn = estimate_.vars(edges[i]).Intersects(covered);
      if (best == edges.size() || (conn && !best_connected)) {
        best = i;
        best_connected = conn;
      }
    }
    used[best] = true;
    subset.Set(edges[best]);
    covered |= estimate_.vars(edges[best]);
    cost += estimate_.JoinRows(subset) +
            std::max(1.0, estimate_.rows(edges[best]));
  }
  return cost;
}

namespace {

using SubproblemKey = std::pair<Bitset, Bitset>;  // (component, connector)

struct Solution {
  Bitset sep;
  Bitset chi;
  double rows = 0;   // estimated rows of this vertex relation (min cost)
  double cost = 0;   // total cost of the subtree rooted here (min cost)
  std::vector<SubproblemKey> children;
};

// Rough live-memory footprint of one memoized subproblem, charged against
// the governor's memory budget.
std::size_t ApproxSubproblemBytes(const Hypergraph& h) {
  std::size_t edge_words = (h.NumEdges() + 63) / 64;
  std::size_t var_words = (h.NumVertices() + 63) / 64;
  // key (2 bitsets) + solution (2 bitsets + child keys, amortized) + map node
  return (edge_words + var_words) * 8 * 4 + 96;
}

// The normal-form (component, connector) search of both det-k-decomp and
// cost-k-decomp, over one memo. Its objective is set by the model: with
// none, each subproblem keeps the first separator whose children all
// decompose; with one, the first strict minimum of the model's cost.
class DecompositionSearch {
 public:
  DecompositionSearch(const Hypergraph& h, std::size_t k,
                      const DecompositionCostModel* model,
                      ResourceGovernor* governor, ThreadPool* pool,
                      std::size_t num_threads)
      : h_(h),
        k_(k),
        model_(model),
        governor_(governor),
        pool_(pool),
        num_threads_(num_threads),
        parallel_(model != nullptr && pool != nullptr && num_threads > 1) {}

  DecompositionSearch(const DecompositionSearch&) = delete;
  DecompositionSearch& operator=(const DecompositionSearch&) = delete;

  // The memo dies with the search, so its charges leave the live balance
  // with it; the governor's peak keeps their high-water mark.
  ~DecompositionSearch() {
    if (governor_ != nullptr) governor_->ReleaseMemory(charged_bytes_);
  }

  // Whether the whole hypergraph decomposes below connector `conn`.
  bool DecomposeRoot(const Bitset& comp, const Bitset& conn) {
    return parallel_ ? DecomposeRootParallel(comp, conn)
                     : Decompose(comp, conn).has_value();
  }

  void Build(const Bitset& comp, const Bitset& conn, std::size_t parent,
             Hypertree* out) const {
    const std::optional<Solution>& sol = memo_.at({comp, conn}).sol;
    HTQO_CHECK(sol.has_value());
    std::size_t node = out->AddNode(sol->chi, sol->sep, parent);
    for (const SubproblemKey& child : sol->children) {
      Build(child.first, child.second, node, out);
    }
  }

 private:
  struct MemoEntry {
    bool done = false;
    std::optional<Solution> sol;
  };

  // The kept solution of a subproblem, or nullopt when infeasible.
  // In parallel mode the memo doubles as a claim table: the first thread to
  // reach a key computes it, later threads block until it is published, so
  // every subproblem is evaluated exactly once — the governor's node total
  // is therefore identical to the serial search at any thread count. (A
  // serial search never finds an unfinished entry: recursive calls only see
  // strictly smaller components.)
  const std::optional<Solution>& Decompose(const Bitset& comp,
                                           const Bitset& conn) {
    MemoEntry* entry = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
      if (parallel_) lock.lock();
      auto [it, inserted] = memo_.try_emplace(SubproblemKey{comp, conn});
      if (!inserted) {
        // std::map references are stable across inserts, so waiting on and
        // returning this entry is safe without re-lookup.
        if (parallel_) cv_.wait(lock, [&] { return it->second.done; });
        return it->second.sol;
      }
      entry = &it->second;
    }
    std::optional<Solution> best = Compute(comp, conn);
    // Aborted mid-enumeration: publish the entry as infeasible so waiters
    // wake. The caller surfaces the trip status and discards the search, so
    // the truncated answer is never consumed.
    const bool aborted = governor_ != nullptr && governor_->exhausted();
    if (aborted) {
      best.reset();
    } else {
      ChargeMemo();
    }
    {
      std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
      if (parallel_) lock.lock();
      entry->sol = std::move(best);
      entry->done = true;
    }
    if (parallel_) cv_.notify_all();
    return entry->sol;
  }

  // Root fan-out: enumerate the root's separator candidates first (in the
  // exact order — and with the exact governor charges — of the serial
  // enumeration), evaluate them on the pool, then min-reduce serially in
  // candidate order with a strict `<`, which reproduces the serial
  // first-strict-minimum tie-break bit for bit.
  bool DecomposeRootParallel(const Bitset& comp, const Bitset& conn) {
    std::vector<Bitset> candidates;
    ForEachSeparator(comp, conn, [&](const Bitset& sep) {
      candidates.push_back(sep);
      return false;
    });
    if (governor_ != nullptr && governor_->exhausted()) return false;
    std::vector<std::optional<Solution>> sols(candidates.size());
    pool_->ParallelFor(0, candidates.size(), /*grain=*/1, num_threads_,
                       governor_, [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           sols[i] =
                               EvaluateCandidate(comp, conn, candidates[i]);
                         }
                       });
    if (governor_ != nullptr && governor_->exhausted()) return false;
    std::optional<Solution> best;
    for (std::optional<Solution>& sol : sols) {
      if (sol.has_value() && (!best.has_value() || sol->cost < best->cost)) {
        best = std::move(*sol);
      }
    }
    ChargeMemo();
    const bool found = best.has_value();
    MemoEntry& entry = memo_[SubproblemKey{comp, conn}];
    entry.sol = std::move(best);
    entry.done = true;
    return found;
  }

  // The separator a subproblem keeps under the objective: the first one
  // whose children all decompose, or the first strict minimum of the cost
  // model over all of them.
  std::optional<Solution> Compute(const Bitset& comp, const Bitset& conn) {
    std::optional<Solution> best;
    ForEachSeparator(comp, conn, [&](const Bitset& sep) {
      std::optional<Solution> sol = EvaluateCandidate(comp, conn, sep);
      if (sol.has_value() && (!best.has_value() || sol->cost < best->cost)) {
        best = std::move(*sol);
      }
      return model_ == nullptr && best.has_value();
    });
    return best;
  }

  // One candidate separator for (comp, conn) with its recursively
  // decomposed children, costed when there is a model. nullopt when
  // infeasible (or aborted — the callers re-check the governor).
  std::optional<Solution> EvaluateCandidate(const Bitset& comp,
                                            const Bitset& conn,
                                            const Bitset& sep) {
    Bitset chi = h_.VarsOf(sep) & (conn | h_.VarsOf(comp));
    std::vector<Bitset> components = h_.ComponentsOf(comp, chi);
    Solution sol;
    sol.sep = sep;
    sol.chi = chi;
    if (model_ != nullptr) {
      sol.rows = model_->VertexRows(sep, chi);
      sol.cost = model_->VertexCost(sep, chi);
    }
    for (const Bitset& child : components) {
      if (child == comp) return std::nullopt;  // no progress
      Bitset child_conn = h_.VarsOf(child) & chi;
      const std::optional<Solution>& sub = Decompose(child, child_conn);
      if (!sub.has_value()) return std::nullopt;
      if (model_ != nullptr) {
        sol.cost += sub->cost + model_->JoinCost(sol.rows, sub->rows);
      }
      sol.children.emplace_back(child, child_conn);
    }
    return sol;
  }

  // One depth-first walk over a subproblem's separator candidates.
  template <typename Visit>
  struct Walk {
    std::vector<std::size_t> edges;  // edges meeting var(comp) ∪ conn
    const Bitset& conn;
    const Visit& visit;
    Bitset sep;
  };

  // Calls `visit(sep)` once per candidate separator of (comp, conn): every
  // set of at most k edges, each meeting var(comp) ∪ conn, whose variables
  // cover conn — the det-k-decomp guess space, complete for normal-form
  // decompositions — in depth-first subset order. `visit` returns true to
  // stop the walk. The governor is charged one search node per step; a
  // trip stops the walk, and the caller checks governor_->exhausted() to
  // tell "no separator worked" from "the budget ran out".
  template <typename Visit>
  void ForEachSeparator(const Bitset& comp, const Bitset& conn,
                        const Visit& visit) {
    Walk<Visit> walk{{}, conn, visit, h_.EmptyEdgeSet()};
    const Bitset relevant = h_.VarsOf(comp) | conn;
    for (std::size_t e = 0; e < h_.NumEdges(); ++e) {
      if (h_.edge(e).Intersects(relevant)) walk.edges.push_back(e);
    }
    Step(&walk, 0, 0, h_.EmptyVertexSet());
  }

  // One step of the walk: `walk->sep` holds `chosen` edges covering the
  // variables `covered`; emit it if it covers the connector, then extend it
  // by each later edge. Returns true once the walk stops.
  template <typename Visit>
  bool Step(Walk<Visit>* walk, std::size_t start, std::size_t chosen,
            const Bitset& covered) {
    if (governor_ != nullptr && !governor_->ChargeNodes(1).ok()) return true;
    if (chosen > 0 && walk->conn.IsSubsetOf(covered) &&
        walk->visit(walk->sep)) {
      return true;
    }
    if (chosen == k_) return false;
    for (std::size_t i = start; i < walk->edges.size(); ++i) {
      const std::size_t e = walk->edges[i];
      walk->sep.Set(e);
      const bool stop = Step(walk, i + 1, chosen + 1, covered | h_.edge(e));
      walk->sep.Reset(e);
      if (stop) return true;
    }
    return false;
  }

  // Callers charge only while the governor has not tripped, so every charge
  // lands on the live balance. (A parallel worker can race another's trip
  // between the check and the charge; the refused charge then makes the
  // destructor release that much extra, which ReleaseMemory clamps at zero
  // on a governor that has already stopped the run.)
  void ChargeMemo() {
    if (governor_ == nullptr) return;
    const std::size_t bytes = ApproxSubproblemBytes(h_);
    (void)governor_->ChargeMemory(bytes);
    charged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  const Hypergraph& h_;
  std::size_t k_;
  const DecompositionCostModel* model_;  // null: first feasible
  ResourceGovernor* governor_;
  ThreadPool* pool_;
  const std::size_t num_threads_;
  const bool parallel_;
  std::mutex mu_;                // guards memo_ when parallel_
  std::condition_variable cv_;   // signals entry->done transitions
  std::map<SubproblemKey, MemoEntry> memo_;
  std::atomic<std::size_t> charged_bytes_{0};
};

}  // namespace

Result<Hypertree> SearchDecomposition(const Hypergraph& h, std::size_t k,
                                      const DecompositionCostModel* model,
                                      const Bitset* root_conn,
                                      ResourceGovernor* governor,
                                      ThreadPool* pool,
                                      std::size_t num_threads) {
  HTQO_CHECK(k >= 1);
  if (h.NumEdges() == 0) {
    Hypertree empty;
    empty.AddNode(h.EmptyVertexSet(), h.EmptyEdgeSet());
    return empty;
  }
  Bitset all = h.AllEdges();
  Bitset conn = root_conn != nullptr ? *root_conn : h.EmptyVertexSet();
  DecompositionSearch search(h, k, model, governor, pool, num_threads);
  const bool found = search.DecomposeRoot(all, conn);
  if (governor != nullptr && governor->exhausted()) {
    return governor->trip_status();
  }
  if (!found) {
    return Status::NotFound("no hypertree decomposition of width <= " +
                            std::to_string(k));
  }
  Hypertree out;
  search.Build(all, conn, HypertreeNode::kNoParent, &out);
  return out;
}

Result<Hypertree> CostKDecomp(const Hypergraph& h, std::size_t k,
                              const DecompositionCostModel& model,
                              const Bitset* root_conn,
                              ResourceGovernor* governor, ThreadPool* pool,
                              std::size_t num_threads) {
  return SearchDecomposition(h, k, &model, root_conn, governor, pool,
                             num_threads);
}

}  // namespace htqo
