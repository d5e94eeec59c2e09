#include "opt/dp_optimizer.h"

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

namespace htqo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct DpEntry {
  double cost = kInf;
  uint32_t left = 0;   // chosen split (0 for leaves)
  uint32_t right = 0;
  JoinAlgo algo = JoinAlgo::kHash;
};

}  // namespace

Result<std::unique_ptr<JoinPlan>> DpOptimize(const JoinGraph& graph,
                                             const PlanCostModel& cost,
                                             const DpOptions& options) {
  const std::size_t n = graph.num_atoms();
  if (n == 0) return Status::InvalidArgument("empty join graph");
  if (n > 20) {
    return Status::InvalidArgument("DP optimizer supports at most 20 atoms");
  }

  auto bitset_of = [&](uint32_t mask) {
    Bitset out(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (uint32_t{1} << i)) out.Set(i);
    }
    return out;
  };

  const uint32_t full = n == 32 ? ~uint32_t{0} : (uint32_t{1} << n) - 1;
  std::vector<DpEntry> dp(full + 1);
  std::vector<double> rows(full + 1, 0);
  std::vector<Bitset> vars(full + 1, Bitset(graph.num_vars()));

  for (std::size_t i = 0; i < n; ++i) {
    uint32_t mask = uint32_t{1} << i;
    dp[mask].cost = std::max(1.0, graph.rows(i));
    rows[mask] = std::max(1.0, graph.rows(i));
    vars[mask] = graph.vars(i);
  }

  auto pick_algo = [&](double rrows) {
    return rrows <= options.nested_loop_threshold ? JoinAlgo::kNestedLoop
                                                  : JoinAlgo::kHash;
  };

  ResourceGovernor* governor = options.governor;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singleton
    if (governor != nullptr) {
      Status s = governor->ChargeNodes(1);
      if (!s.ok()) return s;
    }
    const Bitset atoms = bitset_of(mask);
    rows[mask] = graph.JoinRows(atoms);
    vars[mask] = graph.VarsOf(atoms);

    auto try_split = [&](uint32_t l, uint32_t r) {
      if (governor != nullptr && !governor->ChargeNodes(1).ok()) return;
      if (dp[l].cost == kInf || dp[r].cost == kInf) return;
      JoinAlgo algo = pick_algo(rows[r]);
      double work = cost.JoinWork(rows[l], rows[r], rows[mask], algo);
      double total = dp[l].cost + dp[r].cost + work;
      if (total < dp[mask].cost) {
        dp[mask] = DpEntry{total, l, r, algo};
      }
    };

    // Pass 1: connected splits only; pass 2 (if none) allows cross products.
    for (int pass = 0; pass < 2 && dp[mask].cost == kInf; ++pass) {
      if (options.bushy) {
        for (uint32_t l = (mask - 1) & mask; l != 0; l = (l - 1) & mask) {
          uint32_t r = mask ^ l;
          if (l < r) continue;  // each unordered split once, as (l > r)
          bool connected = vars[l].Intersects(vars[r]);
          if (pass == 0 && !connected) continue;
          try_split(l, r);
          try_split(r, l);
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          uint32_t r = uint32_t{1} << i;
          if ((mask & r) == 0) continue;
          uint32_t l = mask ^ r;
          if (l == 0) continue;
          bool connected = vars[l].Intersects(vars[r]);
          if (pass == 0 && !connected) continue;
          try_split(l, r);
        }
      }
    }
  }

  if (governor != nullptr && governor->exhausted()) {
    return governor->trip_status();
  }
  if (dp[full].cost == kInf) {
    return Status::Internal("DP found no plan");
  }

  // Rebuild the plan tree.
  std::function<std::unique_ptr<JoinPlan>(uint32_t)> build =
      [&](uint32_t mask) -> std::unique_ptr<JoinPlan> {
    if ((mask & (mask - 1)) == 0) {
      std::size_t atom = 0;
      while ((mask & (uint32_t{1} << atom)) == 0) ++atom;
      return JoinPlan::Leaf(atom);
    }
    const DpEntry& e = dp[mask];
    return JoinPlan::Join(build(e.left), build(e.right), e.algo);
  };
  return build(full);
}

}  // namespace htqo
