// Golden contract of the per-query cardinality estimate.
//
// Every reader of the estimate is pinned to the raw bits of its doubles:
// the per-atom filtered rows (as the feedback collector reports them), the
// DP/GEQO cost model's RowsOf on every atom subset, and the decomposition
// cost model's VertexRows/VertexCost on every lambda of at most three atoms
// with chi = var(lambda) and chi = var(lambda) minus its highest variable.
// Each query reduces to one FNV-1a digest, compared against a recorded
// literal. The queries are TPC-H Q5, Q8 and the inner block of nested Q8,
// with and without statistics, and line/chain queries of 2..12 atoms. Two
// forced mid-query replans pin the estimate after observed scans; their
// records digest the replan reports and the replanned trees. The file
// uses only interfaces the estimate's readers had before it was unified,
// so the same records can be checked against the earlier code.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "cq/hypergraph_builder.h"
#include "decomp/qhd.h"
#include "opt/cost_model.h"
#include "opt/join_graph.h"
#include "sql/parser.h"
#include "stats/feedback.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace htqo {
namespace {

class Fnv {
 public:
  void Mix(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void Mix(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(&bits, sizeof(bits));
  }
  void Mix(const std::string& s) { Mix(s.data(), s.size() + 1); }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

const Catalog& TpchCatalog() {
  static const Catalog* catalog = [] {
    auto* c = new Catalog();
    PopulateTpch(TpchConfig{0.002, 42}, c);
    return c;
  }();
  return *catalog;
}

const Catalog& SyntheticCatalog() {
  static const Catalog* catalog = [] {
    auto* c = new Catalog();
    PopulateSyntheticCatalog(SyntheticConfig{150, 30, 12, 5}, c);
    return c;
  }();
  return *catalog;
}

// The inner SELECT of nested Q8, resolved as the nested-query path
// materializes it (tuple ids on every atom).
std::string NestedQ8InnerSql() {
  auto stmt = ParseSelect(TpchQ8Nested());
  HTQO_CHECK(stmt.ok());
  for (const TableRef& ref : stmt->from) {
    if (ref.IsDerived()) return ref.subquery->ToString();
  }
  HTQO_CHECK(false);
  return "";
}

// Digest of every estimate reader on one resolved query. `registry` is
// null for the no-statistics regime.
std::string EstimateDigest(const Catalog& catalog,
                           StatisticsRegistry* registry, const std::string& sql,
                           TidMode tid_mode) {
  HybridOptimizer optimizer(&catalog, registry);
  auto rq = optimizer.Resolve(sql, tid_mode);
  HTQO_CHECK(rq.ok());
  const std::size_t n = rq->cq.atoms.size();
  Fnv fnv;

  // Per-atom rows after local filters, as feedback reads them: every atom
  // observed at one row, and no refresh however large the error.
  StatisticsRegistry empty;
  FeedbackOptions fopt;
  fopt.refresh_error_factor = std::numeric_limits<double>::infinity();
  FeedbackCollector collector(&catalog,
                              registry != nullptr ? registry : &empty, fopt);
  FeedbackReport report =
      collector.ReconcileActuals(rq->cq, std::vector<std::size_t>(n, 1));
  HTQO_CHECK(report.errors.size() == n);
  for (const FeedbackReport::AtomError& e : report.errors) {
    fnv.Mix(e.estimated_rows);
  }

  // RowsOf on every non-empty atom subset.
  Estimator estimator(registry);
  JoinGraph graph = BuildJoinGraph(*rq, estimator);
  PlanCostModel plan_cost(graph);
  for (uint32_t mask = 1; mask < (uint32_t{1} << n); ++mask) {
    Bitset atoms(n);
    for (std::size_t a = 0; a < n; ++a) {
      if (mask & (uint32_t{1} << a)) atoms.Set(a);
    }
    fnv.Mix(plan_cost.RowsOf(atoms));
  }

  // VertexRows / VertexCost on every lambda of one to three atoms.
  const Hypergraph h = BuildHypergraph(rq->cq);
  StatsDecompositionCostModel model(h, BuildEdgeStats(rq->cq, estimator));
  auto price = [&](const Bitset& lambda) {
    Bitset chi = h.VarsOf(lambda);
    fnv.Mix(model.VertexRows(lambda, chi));
    fnv.Mix(model.VertexCost(lambda, chi));
    std::size_t highest = 0;
    for (std::size_t v = chi.FirstSet(); v < chi.size(); v = chi.NextSet(v)) {
      highest = v;
    }
    chi.Reset(highest);
    fnv.Mix(model.VertexRows(lambda, chi));
    fnv.Mix(model.VertexCost(lambda, chi));
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      for (std::size_t c = b; c < n; ++c) {
        // (a, a, a), (a, b, b) and (a, b, c) enumerate each lambda of one,
        // two and three atoms exactly once.
        if (a == b && b != c) continue;
        Bitset lambda = h.EmptyEdgeSet();
        lambda.Set(a);
        lambda.Set(b);
        lambda.Set(c);
        price(lambda);
      }
    }
  }
  return fnv.Hex();
}

// Digest of a forced mid-query replan: the estimate is pinned to the
// observed scans and re-read by the next search and the next tree's
// estimates, so the replan reports and the replanned tree pin both.
std::string ReplanDigest(OptimizerMode mode) {
  static StatisticsRegistry* stats = [] {
    auto* s = new StatisticsRegistry();
    s->AnalyzeAll(SyntheticCatalog());
    return s;
  }();
  HybridOptimizer optimizer(&SyntheticCatalog(), stats);
  RunOptions options;
  options.mode = mode;
  options.enable_replan = true;
  options.replan_blowup_factor = 0.01;  // the first wave barrier trips
  options.replan_min_rows = 1;
  options.max_replans = 3;
  auto run = optimizer.Run(ChainQuerySql(6), options);
  HTQO_CHECK(run.ok());
  Fnv fnv;
  fnv.Mix(std::to_string(run->replans));
  for (const std::string& d : run->degradations) fnv.Mix(d);
  fnv.Mix(run->plan_description);
  fnv.Mix(run->plan_details);
  return fnv.Hex() + " replans=" + std::to_string(run->replans);
}

struct GoldenCase {
  const char* name;
  const char* digest;
};

// Recorded before the estimate was unified; any change here changes a
// plan cost, a row estimate or a decomposition choice.
const GoldenCase kGolden[] = {
    {"q5/stats", "8fedac278c7a6479"},
    {"q5/defaults", "24837875fbf4b888"},
    {"q8/stats", "b1e2378bd68dfbf4"},
    {"q8/defaults", "646e1ab1c85de190"},
    {"q8-nested-inner/stats", "8796afd9a771eaad"},
    {"q8-nested-inner/defaults", "5562493693a3b743"},
    {"line-2", "c7442ca59fd25d65"},
    {"line-3", "c207dbb0e3f5fe7d"},
    {"line-4", "b34086a3871d1390"},
    {"line-5", "a1a884bab049c8ba"},
    {"line-6", "e73ca9e98a7a1a56"},
    {"line-7", "05af0b31b340bb47"},
    {"line-8", "3e2758a9f7b5ebcb"},
    {"line-9", "e1698c4f4759c266"},
    {"line-10", "8da7f4d1d325d3bb"},
    {"line-11", "df44042a027735e5"},
    {"line-12", "ce5dfe18fe5705f2"},
    {"chain-2", "65ab874dee40f876"},
    {"chain-3", "d5e855f6b84fd430"},
    {"chain-4", "a5b9eb54f902f574"},
    {"chain-5", "e3990e7b9f524298"},
    {"chain-6", "34a61ed2ccb7a06c"},
    {"chain-7", "f9682b7c17f31c3a"},
    {"chain-8", "38779e1845431314"},
    {"chain-9", "21df28edd9ed328d"},
    {"chain-10", "1249c65ce4c1eeb7"},
    {"chain-11", "4afd6a4f5de183fd"},
    {"chain-12", "4e007cdc812ce41e"},
    {"replan/qhd-hybrid", "6a8138271faf872d replans=1"},
    {"replan/qhd-structural", "85261519831f6f3c replans=2"},
};

std::string Actual(const std::string& name) {
  static StatisticsRegistry* tpch_stats = [] {
    auto* s = new StatisticsRegistry();
    s->AnalyzeAll(TpchCatalog());
    return s;
  }();
  static StatisticsRegistry* synthetic_stats = [] {
    auto* s = new StatisticsRegistry();
    s->AnalyzeAll(SyntheticCatalog());
    return s;
  }();
  if (name == "replan/qhd-hybrid") {
    return ReplanDigest(OptimizerMode::kQhdHybrid);
  }
  if (name == "replan/qhd-structural") {
    return ReplanDigest(OptimizerMode::kQhdStructural);
  }
  const std::size_t slash = name.find('/');
  if (slash != std::string::npos) {
    const std::string query = name.substr(0, slash);
    StatisticsRegistry* registry =
        name.substr(slash + 1) == "stats" ? tpch_stats : nullptr;
    if (query == "q5") {
      return EstimateDigest(TpchCatalog(), registry, TpchQ5(),
                            TidMode::kAggregatesOnly);
    }
    if (query == "q8") {
      return EstimateDigest(TpchCatalog(), registry, TpchQ8(),
                            TidMode::kAggregatesOnly);
    }
    return EstimateDigest(TpchCatalog(), registry, NestedQ8InnerSql(),
                          TidMode::kAllAtoms);
  }
  const std::size_t dash = name.find('-');
  const std::size_t atoms = std::stoul(name.substr(dash + 1));
  const std::string sql =
      name.substr(0, dash) == "line" ? LineQuerySql(atoms) : ChainQuerySql(atoms);
  return EstimateDigest(SyntheticCatalog(), synthetic_stats, sql,
                        TidMode::kAggregatesOnly);
}

TEST(EstimateGoldenTest, MatchesRecordedEstimates) {
  for (const GoldenCase& c : kGolden) {
    EXPECT_EQ(Actual(c.name), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace htqo
