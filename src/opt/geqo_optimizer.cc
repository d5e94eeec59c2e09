#include "opt/geqo_optimizer.h"

#include <algorithm>
#include <numeric>

#include "util/rng.h"

namespace htqo {

std::unique_ptr<JoinPlan> LeftDeepPlan(const std::vector<std::size_t>& order,
                                       const JoinGraph& graph,
                                       const PlanCostModel& cost,
                                       double nested_loop_threshold) {
  HTQO_CHECK(!order.empty());
  std::unique_ptr<JoinPlan> plan = JoinPlan::Leaf(order[0]);
  Bitset acc(graph.num_atoms());
  acc.Set(order[0]);
  for (std::size_t i = 1; i < order.size(); ++i) {
    Bitset single(graph.num_atoms());
    single.Set(order[i]);
    double inner_rows = cost.RowsOf(single);
    JoinAlgo algo = inner_rows <= nested_loop_threshold
                        ? JoinAlgo::kNestedLoop
                        : JoinAlgo::kHash;
    plan = JoinPlan::Join(std::move(plan), JoinPlan::Leaf(order[i]), algo);
    acc.Set(order[i]);
  }
  return plan;
}

Result<std::unique_ptr<JoinPlan>> GeqoOptimize(const JoinGraph& graph,
                                               const PlanCostModel& cost,
                                               const GeqoOptions& options) {
  const std::size_t n = graph.num_atoms();
  if (n == 0) return Status::InvalidArgument("empty join graph");

  Rng rng(options.seed);
  ResourceGovernor* governor = options.governor;
  auto fitness = [&](const std::vector<std::size_t>& order) {
    auto plan = LeftDeepPlan(order, graph, cost,
                             options.nested_loop_threshold);
    return cost.PlanCost(*plan);
  };

  // Initial population: random permutations.
  std::vector<std::vector<std::size_t>> population;
  population.reserve(options.population);
  std::vector<std::size_t> base(n);
  std::iota(base.begin(), base.end(), 0);
  for (std::size_t i = 0; i < std::max<std::size_t>(2, options.population);
       ++i) {
    std::vector<std::size_t> p = base;
    for (std::size_t j = n; j > 1; --j) {
      std::swap(p[j - 1], p[rng.Uniform(j)]);
    }
    population.push_back(std::move(p));
  }
  std::vector<double> scores;
  scores.reserve(population.size());
  for (const auto& p : population) {
    if (governor != nullptr) {
      Status s = governor->ChargeNodes(1);
      if (!s.ok()) return s;
    }
    scores.push_back(fitness(p));
  }

  auto tournament = [&]() -> std::size_t {
    std::size_t a = rng.Uniform(population.size());
    std::size_t b = rng.Uniform(population.size());
    return scores[a] <= scores[b] ? a : b;
  };

  // OX1 order crossover.
  auto crossover = [&](const std::vector<std::size_t>& a,
                       const std::vector<std::size_t>& b) {
    std::size_t lo = rng.Uniform(n);
    std::size_t hi = rng.Uniform(n);
    if (lo > hi) std::swap(lo, hi);
    std::vector<std::size_t> child(n, static_cast<std::size_t>(-1));
    std::vector<bool> used(n, false);
    for (std::size_t i = lo; i <= hi; ++i) {
      child[i] = a[i];
      used[a[i]] = true;
    }
    std::size_t pos = (hi + 1) % n;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t gene = b[(hi + 1 + i) % n];
      if (used[gene]) continue;
      child[pos] = gene;
      used[gene] = true;
      pos = (pos + 1) % n;
    }
    return child;
  };

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    std::vector<std::vector<std::size_t>> next;
    std::vector<double> next_scores;
    next.reserve(population.size());
    next_scores.reserve(population.size());
    // Elitism: keep the best individual.
    std::size_t best = 0;
    for (std::size_t i = 1; i < population.size(); ++i) {
      if (scores[i] < scores[best]) best = i;
    }
    next.push_back(population[best]);
    next_scores.push_back(scores[best]);
    while (next.size() < population.size()) {
      if (governor != nullptr) {
        Status s = governor->ChargeNodes(1);
        if (!s.ok()) return s;
      }
      std::vector<std::size_t> child =
          crossover(population[tournament()], population[tournament()]);
      if (n >= 2 && rng.NextDouble() < options.mutation_rate) {
        std::size_t i = rng.Uniform(n);
        std::size_t j = rng.Uniform(n);
        std::swap(child[i], child[j]);
      }
      next_scores.push_back(fitness(child));
      next.push_back(std::move(child));
    }
    population = std::move(next);
    scores = std::move(next_scores);
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    if (scores[i] < scores[best]) best = i;
  }
  return LeftDeepPlan(population[best], graph, cost,
                      options.nested_loop_threshold);
}

}  // namespace htqo
