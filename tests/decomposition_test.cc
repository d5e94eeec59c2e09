#include "decomp/det_k_decomp.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "decomp/cost_k_decomp.h"
#include "decomp/qhd.h"
#include "decomp/validate.h"
#include "hypergraph/gyo.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/hypergraph_zoo.h"

namespace htqo {
namespace {

Hypergraph Triangle() {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  return h;
}

Hypergraph Cycle(std::size_t n) {
  Hypergraph h(n);
  for (std::size_t i = 0; i < n; ++i) {
    h.AddEdge({i, (i + 1) % n});
  }
  return h;
}

Hypergraph Line(std::size_t n) {
  Hypergraph h(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    h.AddEdge({i, i + 1});
  }
  return h;
}

void ExpectValidHd(const Hypergraph& h, const Hypertree& hd) {
  DecompositionCheck check =
      ValidateDecomposition(h, hd, h.EmptyVertexSet());
  EXPECT_TRUE(check.IsHypertreeDecomposition()) << check.ToString()
                                                << "\n" << hd.ToString(h);
}

TEST(DetKDecompTest, AcyclicHasWidthOne) {
  auto width = ComputeHypertreeWidth(Line(5), 3);
  ASSERT_TRUE(width.ok());
  EXPECT_EQ(*width, 1u);
}

TEST(DetKDecompTest, TriangleHasWidthTwo) {
  EXPECT_FALSE(DetKDecomp(Triangle(), 1).ok());
  auto hd = DetKDecomp(Triangle(), 2);
  ASSERT_TRUE(hd.ok());
  EXPECT_EQ(hd->Width(), 2u);
  ExpectValidHd(Triangle(), *hd);
}

TEST(DetKDecompTest, CyclesHaveWidthTwo) {
  for (std::size_t n : {4u, 5u, 6u, 8u, 10u}) {
    auto width = ComputeHypertreeWidth(Cycle(n), 3);
    ASSERT_TRUE(width.ok()) << n;
    EXPECT_EQ(*width, 2u) << n;
    auto hd = DetKDecomp(Cycle(n), 2);
    ASSERT_TRUE(hd.ok());
    ExpectValidHd(Cycle(n), *hd);
  }
}

TEST(DetKDecompTest, GyoAgreesWithWidthOne) {
  // Acyclicity (GYO) must coincide with hypertree width 1 on a zoo of
  // small random hypergraphs.
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t vertices = 3 + rng.Uniform(5);
    std::size_t edges = 2 + rng.Uniform(5);
    Hypergraph h(vertices);
    for (std::size_t e = 0; e < edges; ++e) {
      std::vector<std::size_t> vs;
      std::size_t arity = 1 + rng.Uniform(3);
      for (std::size_t i = 0; i < arity; ++i) {
        std::size_t v = rng.Uniform(vertices);
        if (std::find(vs.begin(), vs.end(), v) == vs.end()) vs.push_back(v);
      }
      h.AddEdge(vs);
    }
    bool acyclic = IsAcyclic(h);
    bool width1 = DetKDecomp(h, 1).ok();
    EXPECT_EQ(acyclic, width1) << h.ToString();
  }
}

TEST(DetKDecompTest, DecompositionsAreAlwaysValid) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t vertices = 4 + rng.Uniform(6);
    std::size_t edges = 3 + rng.Uniform(6);
    Hypergraph h(vertices);
    for (std::size_t e = 0; e < edges; ++e) {
      std::vector<std::size_t> vs;
      std::size_t arity = 2 + rng.Uniform(3);
      for (std::size_t i = 0; i < arity; ++i) {
        std::size_t v = rng.Uniform(vertices);
        if (std::find(vs.begin(), vs.end(), v) == vs.end()) vs.push_back(v);
      }
      h.AddEdge(vs);
    }
    for (std::size_t k = 1; k <= 3; ++k) {
      auto hd = DetKDecomp(h, k);
      if (hd.ok()) {
        EXPECT_LE(hd->Width(), k);
        ExpectValidHd(h, *hd);
        break;
      }
    }
  }
}

TEST(DetKDecompTest, RootConnConstraint) {
  Hypergraph h = Line(4);  // vertices 0..4, edges (i, i+1)
  Bitset out = h.EmptyVertexSet();
  out.Set(0);
  out.Set(4);  // endpoints: no single edge covers both
  EXPECT_FALSE(DetKDecomp(h, 1, &out).ok());
  auto hd = DetKDecomp(h, 2, &out);
  ASSERT_TRUE(hd.ok());
  DecompositionCheck check = ValidateDecomposition(h, *hd, out);
  EXPECT_TRUE(check.root_covers_output) << hd->ToString(h);
  EXPECT_TRUE(check.edge_cover && check.connectedness);
}

TEST(DetKDecompTest, DisconnectedHypergraph) {
  Hypergraph h(4);
  h.AddEdge({0, 1});
  h.AddEdge({2, 3});
  auto hd = DetKDecomp(h, 1);
  ASSERT_TRUE(hd.ok());
  ExpectValidHd(h, *hd);
}

TEST(DetKDecompTest, EmptyHypergraph) {
  Hypergraph h(0);
  auto hd = DetKDecomp(h, 1);
  ASSERT_TRUE(hd.ok());
  EXPECT_EQ(hd->Width(), 0u);
}

TEST(CostKDecompTest, FindsSameFeasibilityAsDet) {
  StructuralCostModel model;
  for (std::size_t n : {3u, 5u, 7u}) {
    Hypergraph cyc = Cycle(n);
    EXPECT_FALSE(CostKDecomp(cyc, 1, model).ok());
    auto hd = CostKDecomp(cyc, 2, model);
    ASSERT_TRUE(hd.ok());
    ExpectValidHd(cyc, *hd);
  }
}

TEST(CostKDecompTest, StatsModelPrefersCheapSeparators) {
  // Two decompositions of a 4-cycle exist depending on which opposite pair
  // anchors the root; the stats model must pick the cheaper one.
  Hypergraph h = Cycle(4);  // edges: 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,0)
  CardinalityEstimate stats(h.edges(), h.NumVertices());
  // Make edges 0 and 2 tiny, edges 1 and 3 huge.
  for (std::size_t e = 0; e < 4; ++e) {
    stats.SetRows(e, (e % 2 == 0) ? 10.0 : 100000.0);
    for (std::size_t v : h.edge(e).ToVector()) {
      stats.SetDistinct(e, v, stats.rows(e));
    }
  }
  StatsDecompositionCostModel model(h, std::move(stats));
  auto hd = CostKDecomp(h, 2, model);
  ASSERT_TRUE(hd.ok());
  // The root separator should use the cheap pair {0, 2}.
  Bitset root_lambda = hd->node(hd->root()).lambda;
  EXPECT_TRUE(root_lambda.Test(0) && root_lambda.Test(2))
      << hd->ToString(h);
}

TEST(QhdTest, RootCoversOutputAndValidates) {
  Hypergraph h = Cycle(6);
  Bitset out = h.EmptyVertexSet();
  out.Set(0);
  StructuralCostModel model;
  auto qhd = QHypertreeDecomp(h, out, model, QhdOptions{2, true});
  ASSERT_TRUE(qhd.ok());
  DecompositionCheck check = ValidateDecomposition(h, qhd->hd, out);
  EXPECT_TRUE(check.IsQHypertreeDecomposition()) << check.ToString();
  EXPECT_TRUE(check.root_covers_output);
}

TEST(QhdTest, FailureWhenWidthInsufficient) {
  Hypergraph h = Cycle(6);
  Bitset out = h.EmptyVertexSet();
  out.Set(0);
  StructuralCostModel model;
  auto qhd = QHypertreeDecomp(h, out, model, QhdOptions{1, true});
  EXPECT_FALSE(qhd.ok());
  EXPECT_EQ(qhd.status().code(), StatusCode::kNotFound);
}

TEST(QhdTest, CompletionAnchorsEveryEdge) {
  // Triangle with k=2: one edge is absorbed by the root's chi and must be
  // re-attached as an anchor child.
  Hypergraph h = Triangle();
  StructuralCostModel model;
  auto qhd = QHypertreeDecomp(h, h.EmptyVertexSet(), model,
                              QhdOptions{2, false});
  ASSERT_TRUE(qhd.ok());
  const Hypertree& hd = qhd->hd;
  for (std::size_t e = 0; e < h.NumEdges(); ++e) {
    bool anchored = false;
    for (std::size_t p = 0; p < hd.NumNodes(); ++p) {
      if (hd.node(p).lambda.Test(e) &&
          h.edge(e).IsSubsetOf(hd.node(p).chi)) {
        anchored = true;
      }
    }
    EXPECT_TRUE(anchored) << "edge " << e << "\n" << hd.ToString(h);
  }
}

// --- Golden records: every search result and governor charge, pinned. ------
//
// Each record is one search over one input: the decomposition (width, node
// count and an FNV-1a digest of Hypertree::ToString) or its status, plus the
// governor's search_nodes and peak_memory_bytes. The table was recorded from
// the reference implementation; any change to a decomposition, to the order
// of the separator enumeration or to the memo charges shows up here.

uint64_t Fnv1a(const std::string& s) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// A ring closed by its atoms, a third of them ternary with a chord to a
// non-adjacent vertex, plus binary chord atoms: the shape family of the
// cyclic_plan benchmark workload.
Hypergraph RandomCyclicShape(uint64_t seed, std::size_t atoms) {
  Rng rng(seed);
  const std::size_t chords = 1 + rng.Uniform(atoms / 4);
  const std::size_t ring = atoms - chords;
  Hypergraph h(ring);
  auto far_var = [&](std::size_t a, std::size_t b) {
    std::size_t v;
    do {
      v = rng.Uniform(ring);
    } while (v == a || v == b);
    return v;
  };
  for (std::size_t i = 0; i < ring; ++i) {
    const std::size_t next = (i + 1) % ring;
    if (rng.Uniform(3) == 0) {
      h.AddEdge({i, next, far_var(i, next)});
    } else {
      h.AddEdge({i, next});
    }
  }
  for (std::size_t c = 0; c < chords; ++c) {
    const std::size_t a = rng.Uniform(ring);
    h.AddEdge({a, far_var(a, (a + 1) % ring)});
  }
  return h;
}

// Deterministic, uneven per-edge statistics for the stats cost model.
CardinalityEstimate SeededEdgeStats(const Hypergraph& h) {
  CardinalityEstimate stats(h.edges(), h.NumVertices());
  for (std::size_t e = 0; e < h.NumEdges(); ++e) {
    stats.SetRows(e, 10.0 + static_cast<double>((7919 * (e + 1)) % 5000));
    for (std::size_t v : h.edge(e).ToVector()) {
      stats.SetDistinct(
          e, v,
          std::min(stats.rows(e),
                   5.0 + static_cast<double>((31 * (v + 1) + e) % 400)));
    }
  }
  return stats;
}

std::string Record(const Hypergraph& h, const Result<Hypertree>& hd,
                   const ResourceGovernor& governor) {
  char buf[160];
  if (hd.ok()) {
    std::snprintf(buf, sizeof(buf), "w%zu n%zu %016llx", hd->Width(),
                  hd->NumNodes(),
                  static_cast<unsigned long long>(Fnv1a(hd->ToString(h))));
  } else {
    std::snprintf(buf, sizeof(buf), "%s",
                  hd.status().code() == StatusCode::kNotFound ? "not-found"
                  : hd.status().code() == StatusCode::kDeadlineExceeded
                      ? "trip"
                      : "error");
  }
  const GovernorStats stats = governor.stats();
  return std::string(buf) + " nodes=" + std::to_string(stats.search_nodes) +
         " peak=" + std::to_string(stats.peak_memory_bytes);
}

std::vector<std::string> GoldenRecords() {
  struct Shape {
    std::string name;
    Hypergraph h;
  };
  const std::vector<Shape> shapes = {
      {"line5", LineHypergraph(5)},
      {"cycle6", CycleHypergraph(6)},
      {"clique5", CliqueHypergraph(5)},
      {"clique6", CliqueHypergraph(6)},
      {"grid2x4", GridHypergraph(2, 4)},
      {"grid3x3", GridHypergraph(3, 3)},
      {"wheel5", WheelHypergraph(5)},
      {"window8x3", SlidingWindowCycle(8, 3)},
      {"random8", RandomCyclicShape(1, 8)},
      {"random12", RandomCyclicShape(2, 12)},
      {"random16", RandomCyclicShape(3, 16)},
  };
  std::vector<std::string> out;
  for (const Shape& shape : shapes) {
    const Hypergraph& h = shape.h;
    StructuralCostModel structural;
    StatsDecompositionCostModel stats(h, SeededEdgeStats(h));
    Bitset ends = h.EmptyVertexSet();
    ends.Set(0);
    ends.Set(h.NumVertices() - 1);
    for (const Bitset* root : {static_cast<const Bitset*>(nullptr),
                               static_cast<const Bitset*>(&ends)}) {
      for (std::size_t k = 1; k <= 4; ++k) {
        const std::string tag = shape.name + (root != nullptr ? " root" : "") +
                                " k=" + std::to_string(k) + ": ";
        ResourceGovernor det;
        out.push_back("det " + tag +
                      Record(h, DetKDecomp(h, k, root, &det), det));
        ResourceGovernor cost;
        out.push_back(
            "cost " + tag +
            Record(h, CostKDecomp(h, k, structural, root, &cost), cost));
        ResourceGovernor est;
        out.push_back("stats " + tag +
                      Record(h, CostKDecomp(h, k, stats, root, &est), est));
      }
    }
  }
  // The root fan-out on a pool reproduces the serial search exactly.
  ThreadPool pool(2);
  for (std::size_t seed : {1u, 2u, 3u}) {
    Hypergraph h = RandomCyclicShape(seed, 8 + 4 * (seed - 1));
    StatsDecompositionCostModel stats(h, SeededEdgeStats(h));
    ResourceGovernor governor;
    out.push_back("stats parallel random" + std::to_string(seed) + " k=3: " +
                  Record(h, CostKDecomp(h, 3, stats, nullptr, &governor,
                                        &pool, 2),
                         governor));
  }
  // One node-budget trip per objective, after the memo has grown.
  Hypergraph h = RandomCyclicShape(3, 16);
  ResourceGovernor::Options budget;
  budget.node_budget = 5000;
  ResourceGovernor det(budget);
  out.push_back("det random16 k=2 budget=5000: " +
                Record(h, DetKDecomp(h, 2, nullptr, &det), det));
  StructuralCostModel structural;
  ResourceGovernor cost(budget);
  out.push_back("cost random16 k=3 budget=5000: " +
                Record(h, CostKDecomp(h, 3, structural, nullptr, &cost), cost));
  return out;
}

const char* const kGoldenRecords[] = {
    "det line5 k=1: w1 n5 e399182f28c4e70c nodes=14 peak=800",
    "cost line5 k=1: w1 n5 e399182f28c4e70c nodes=42 peak=1440",
    "stats line5 k=1: w1 n5 e399182f28c4e70c nodes=42 peak=1440",
    "det line5 k=2: w2 n5 97bb3b6d06a894e4 nodes=14 peak=800",
    "cost line5 k=2: w1 n5 e399182f28c4e70c nodes=130 peak=1920",
    "stats line5 k=2: w1 n5 e399182f28c4e70c nodes=130 peak=1920",
    "det line5 k=3: w2 n5 97bb3b6d06a894e4 nodes=14 peak=800",
    "cost line5 k=3: w1 n5 e399182f28c4e70c nodes=188 peak=1920",
    "stats line5 k=3: w1 n5 e399182f28c4e70c nodes=188 peak=1920",
    "det line5 k=4: w2 n5 97bb3b6d06a894e4 nodes=14 peak=800",
    "cost line5 k=4: w1 n5 e399182f28c4e70c nodes=212 peak=1920",
    "stats line5 k=4: w1 n5 e399182f28c4e70c nodes=212 peak=1920",
    "det line5 root k=1: not-found nodes=6 peak=160",
    "cost line5 root k=1: not-found nodes=6 peak=160",
    "stats line5 root k=1: not-found nodes=6 peak=160",
    "det line5 root k=2: w2 n3 e17d058107abd008 nodes=15 peak=480",
    "cost line5 root k=2: w2 n2 febc42a84a5262a8 nodes=54 peak=640",
    "stats line5 root k=2: w2 n2 febc42a84a5262a8 nodes=54 peak=640",
    "det line5 root k=3: w3 n2 5f6d0a29928bc848 nodes=10 peak=320",
    "cost line5 root k=3: w2 n2 febc42a84a5262a8 nodes=82 peak=640",
    "stats line5 root k=3: w3 n2 e88ecc7c9459c75f nodes=82 peak=640",
    "det line5 root k=4: w4 n1 ac3e81118ab09654 nodes=6 peak=160",
    "cost line5 root k=4: w2 n2 febc42a84a5262a8 nodes=94 peak=640",
    "stats line5 root k=4: w3 n2 e88ecc7c9459c75f nodes=94 peak=640",
    "det cycle6 k=1: not-found nodes=49 peak=1120",
    "cost cycle6 k=1: not-found nodes=49 peak=1120",
    "stats cycle6 k=1: not-found nodes=49 peak=1120",
    "det cycle6 k=2: w2 n5 5c774e547e4a3728 nodes=17 peak=800",
    "cost cycle6 k=2: w2 n2 1ca1abd703ab8de0 nodes=448 peak=4000",
    "stats cycle6 k=2: w2 n3 6c9ae6fdddaed38f nodes=448 peak=4000",
    "det cycle6 k=3: w3 n5 6d82f9871f912def nodes=17 peak=800",
    "cost cycle6 k=3: w2 n2 1ca1abd703ab8de0 nodes=792 peak=4000",
    "stats cycle6 k=3: w3 n3 5d3bfd70c317c581 nodes=792 peak=4000",
    "det cycle6 k=4: w3 n5 6d82f9871f912def nodes=17 peak=800",
    "cost cycle6 k=4: w2 n2 1ca1abd703ab8de0 nodes=1023 peak=4000",
    "stats cycle6 k=4: w3 n3 5d3bfd70c317c581 nodes=1023 peak=4000",
    "det cycle6 root k=1: not-found nodes=14 peak=320",
    "cost cycle6 root k=1: not-found nodes=14 peak=320",
    "stats cycle6 root k=1: not-found nodes=14 peak=320",
    "det cycle6 root k=2: w2 n3 e17d058107abd008 nodes=15 peak=480",
    "cost cycle6 root k=2: w2 n2 febc42a84a5262a8 nodes=180 peak=1760",
    "stats cycle6 root k=2: w2 n3 7e18c48081d43395 nodes=180 peak=1760",
    "det cycle6 root k=3: w3 n2 5f6d0a29928bc848 nodes=10 peak=320",
    "cost cycle6 root k=3: w2 n2 febc42a84a5262a8 nodes=306 peak=1760",
    "stats cycle6 root k=3: w3 n2 a2e90e729dbc1e9b nodes=306 peak=1760",
    "det cycle6 root k=4: w4 n1 ac3e81118ab09654 nodes=6 peak=160",
    "cost cycle6 root k=4: w2 n2 febc42a84a5262a8 nodes=385 peak=1760",
    "stats cycle6 root k=4: w3 n2 a2e90e729dbc1e9b nodes=385 peak=1760",
    "det clique5 k=1: not-found nodes=121 peak=1760",
    "cost clique5 k=1: not-found nodes=121 peak=1760",
    "stats clique5 k=1: not-found nodes=121 peak=1760",
    "det clique5 k=2: not-found nodes=1456 peak=4160",
    "cost clique5 k=2: not-found nodes=1456 peak=4160",
    "stats clique5 k=2: not-found nodes=1456 peak=4160",
    "det clique5 k=3: w3 n4 ee88a7228befeb04 nodes=20 peak=640",
    "cost clique5 k=3: w3 n1 576d7d6da0057d8b nodes=4576 peak=4160",
    "stats clique5 k=3: w3 n1 955f9b18053aa637 nodes=4576 peak=4160",
    "det clique5 k=4: w4 n4 ef17ec2fe25f8db5 nodes=14 peak=640",
    "cost clique5 k=4: w3 n1 576d7d6da0057d8b nodes=10036 peak=4160",
    "stats clique5 k=4: w4 n1 b03ade91b8d4a2e0 nodes=10036 peak=4160",
    "det clique5 root k=1: not-found nodes=22 peak=320",
    "cost clique5 root k=1: not-found nodes=22 peak=320",
    "stats clique5 root k=1: not-found nodes=22 peak=320",
    "det clique5 root k=2: not-found nodes=448 peak=1280",
    "cost clique5 root k=2: not-found nodes=448 peak=1280",
    "stats clique5 root k=2: not-found nodes=448 peak=1280",
    "det clique5 root k=3: w3 n2 633021c538402397 nodes=16 peak=320",
    "cost clique5 root k=3: w3 n1 576d7d6da0057d8b nodes=1408 peak=1280",
    "stats clique5 root k=3: w3 n1 955f9b18053aa637 nodes=1408 peak=1280",
    "det clique5 root k=4: w4 n1 e18cb33884502740 nodes=5 peak=160",
    "cost clique5 root k=4: w3 n1 576d7d6da0057d8b nodes=3088 peak=1280",
    "stats clique5 root k=4: w4 n1 b03ade91b8d4a2e0 nodes=3088 peak=1280",
    "det clique6 k=1: not-found nodes=256 peak=2560",
    "cost clique6 k=1: not-found nodes=256 peak=2560",
    "stats clique6 k=1: not-found nodes=256 peak=2560",
    "det clique6 k=2: not-found nodes=6171 peak=8160",
    "cost clique6 k=2: not-found nodes=6171 peak=8160",
    "stats clique6 k=2: not-found nodes=6171 peak=8160",
    "det clique6 k=3: w3 n5 2b4ba232aec4064b nodes=115 peak=800",
    "cost clique6 k=3: w3 n1 c3cb5611939f04be nodes=32832 peak=9120",
    "stats clique6 k=3: w3 n1 dc6208d2cbca7aa7 nodes=32832 peak=9120",
    "det clique6 k=4: w4 n5 73827715fd49bc9d nodes=30 peak=800",
    "cost clique6 k=4: w3 n1 c3cb5611939f04be nodes=110637 peak=9120",
    "stats clique6 k=4: w4 n1 d59632ab3e436d64 nodes=110637 peak=9120",
    "det clique6 root k=1: not-found nodes=32 peak=320",
    "cost clique6 root k=1: not-found nodes=32 peak=320",
    "stats clique6 root k=1: not-found nodes=32 peak=320",
    "det clique6 root k=2: not-found nodes=1452 peak=1920",
    "cost clique6 root k=2: not-found nodes=1452 peak=1920",
    "stats clique6 root k=2: not-found nodes=1452 peak=1920",
    "det clique6 root k=3: w3 n3 4d98b226e1f89296 nodes=113 peak=480",
    "cost clique6 root k=3: w3 n1 c3cb5611939f04be nodes=9216 peak=2560",
    "stats clique6 root k=3: w3 n1 dc6208d2cbca7aa7 nodes=9216 peak=2560",
    "det clique6 root k=4: w4 n2 3417032147763703 nodes=22 peak=320",
    "cost clique6 root k=4: w3 n1 c3cb5611939f04be nodes=31056 peak=2560",
    "stats clique6 root k=4: w4 n1 d59632ab3e436d64 nodes=31056 peak=2560",
    "det grid2x4 k=1: not-found nodes=116 peak=1760",
    "cost grid2x4 k=1: not-found nodes=116 peak=1760",
    "stats grid2x4 k=1: not-found nodes=116 peak=1760",
    "det grid2x4 k=2: w2 n7 f6fa9da7e95a021c nodes=41 peak=1120",
    "cost grid2x4 k=2: w2 n3 525781cc01949bc9 nodes=2156 peak=7360",
    "stats grid2x4 k=2: w2 n6 96fd9f145c5c03be nodes=2156 peak=7360",
    "det grid2x4 k=3: w3 n7 b741f97b81cb873f nodes=60 peak=1120",
    "cost grid2x4 k=3: w2 n3 525781cc01949bc9 nodes=8512 peak=9600",
    "stats grid2x4 k=3: w3 n5 2d87df6bd4b2ea62 nodes=8512 peak=9600",
    "det grid2x4 k=4: w4 n7 12cc6d7df6c61704 nodes=27 peak=1120",
    "cost grid2x4 k=4: w2 n3 525781cc01949bc9 nodes=17886 peak=9600",
    "stats grid2x4 k=4: w3 n5 2d87df6bd4b2ea62 nodes=17886 peak=9600",
    "det grid2x4 root k=1: not-found nodes=11 peak=160",
    "cost grid2x4 root k=1: not-found nodes=11 peak=160",
    "stats grid2x4 root k=1: not-found nodes=11 peak=160",
    "det grid2x4 root k=2: w2 n5 bde8d1005cbe8ce6 nodes=101 peak=960",
    "cost grid2x4 root k=2: w2 n5 bde8d1005cbe8ce6 nodes=330 peak=1280",
    "stats grid2x4 root k=2: w2 n5 038e7ab18a962433 nodes=330 peak=1280",
    "det grid2x4 root k=3: w3 n4 baa6bf9e7aa1cc1b nodes=95 peak=640",
    "cost grid2x4 root k=3: w2 n5 bde8d1005cbe8ce6 nodes=2982 peak=3520",
    "stats grid2x4 root k=3: w3 n5 13adc5fe9b2ccd11 nodes=2982 peak=3520",
    "det grid2x4 root k=4: w4 n3 462fb00caff16720 nodes=27 peak=480",
    "cost grid2x4 root k=4: w2 n5 bde8d1005cbe8ce6 nodes=6184 peak=3520",
    "stats grid2x4 root k=4: w4 n3 5fb2e05a696b17a2 nodes=6184 peak=3520",
    "det grid3x3 k=1: not-found nodes=169 peak=2080",
    "cost grid3x3 k=1: not-found nodes=169 peak=2080",
    "stats grid3x3 k=1: not-found nodes=169 peak=2080",
    "det grid3x3 k=2: w2 n8 a114be098d8c6d46 nodes=137 peak=1280",
    "cost grid3x3 k=2: w2 n6 a5692b7a08bd84c8 nodes=5403 peak=12320",
    "stats grid3x3 k=2: w2 n6 f9cf375eea85085b nodes=5403 peak=12320",
    "det grid3x3 k=3: w3 n8 6cc385e5993efb00 nodes=49 peak=1280",
    "cost grid3x3 k=3: w2 n6 a5692b7a08bd84c8 nodes=29063 peak=18080",
    "stats grid3x3 k=3: w3 n6 70e39a36b482d048 nodes=29063 peak=18080",
    "det grid3x3 k=4: w4 n8 79021c9e61012955 nodes=39 peak=1280",
    "cost grid3x3 k=4: w2 n6 a5692b7a08bd84c8 nodes=77208 peak=18560",
    "stats grid3x3 k=4: w4 n5 49ce2da533ebcba6 nodes=77208 peak=18560",
    "det grid3x3 root k=1: not-found nodes=13 peak=160",
    "cost grid3x3 root k=1: not-found nodes=13 peak=160",
    "stats grid3x3 root k=1: not-found nodes=13 peak=160",
    "det grid3x3 root k=2: not-found nodes=395 peak=800",
    "cost grid3x3 root k=2: not-found nodes=395 peak=800",
    "stats grid3x3 root k=2: not-found nodes=395 peak=800",
    "det grid3x3 root k=3: w3 n5 486ab2db878783b2 nodes=77 peak=800",
    "cost grid3x3 root k=3: w3 n4 205cd4cb5cee5904 nodes=6411 peak=4640",
    "stats grid3x3 root k=3: w3 n5 fa63b0425af9bfd2 nodes=6411 peak=4640",
    "det grid3x3 root k=4: w4 n4 b153a3e49c72d93f nodes=46 peak=640",
    "cost grid3x3 root k=4: w3 n4 205cd4cb5cee5904 nodes=18442 peak=5120",
    "stats grid3x3 root k=4: w4 n5 43b1fd6972ecf7a1 nodes=18442 peak=5120",
    "det wheel5 k=1: not-found nodes=121 peak=1760",
    "cost wheel5 k=1: not-found nodes=121 peak=1760",
    "stats wheel5 k=1: not-found nodes=121 peak=1760",
    "det wheel5 k=2: w2 n5 8fcde134fee56c42 nodes=42 peak=800",
    "cost wheel5 k=2: w2 n3 589792cba6cf3da0 nodes=1966 peak=5760",
    "stats wheel5 k=2: w2 n3 8cc5e9f41b859445 nodes=1966 peak=5760",
    "det wheel5 k=3: w3 n5 6eedf4d0151ed899 nodes=22 peak=800",
    "cost wheel5 k=3: w2 n3 589792cba6cf3da0 nodes=6282 peak=5920",
    "stats wheel5 k=3: w3 n3 1d16e9da0e515472 nodes=6282 peak=5920",
    "det wheel5 k=4: w4 n5 1eede97c678754bc nodes=22 peak=800",
    "cost wheel5 k=4: w2 n3 589792cba6cf3da0 nodes=13632 peak=5920",
    "stats wheel5 k=4: w4 n3 ddd1c6bda7eb1fb1 nodes=13632 peak=5920",
    "det wheel5 root k=1: not-found nodes=22 peak=320",
    "cost wheel5 root k=1: not-found nodes=22 peak=320",
    "stats wheel5 root k=1: not-found nodes=22 peak=320",
    "det wheel5 root k=2: w2 n4 7c500ae17991d769 nodes=40 peak=640",
    "cost wheel5 root k=2: w2 n3 589792cba6cf3da0 nodes=576 peak=1760",
    "stats wheel5 root k=2: w2 n3 9b42b64c361cae8f nodes=576 peak=1760",
    "det wheel5 root k=3: w3 n4 20e6d33effa30982 nodes=20 peak=640",
    "cost wheel5 root k=3: w2 n3 589792cba6cf3da0 nodes=1752 peak=1760",
    "stats wheel5 root k=3: w3 n3 1d16e9da0e515472 nodes=1752 peak=1760",
    "det wheel5 root k=4: w4 n4 254c49cbe1452429 nodes=20 peak=640",
    "cost wheel5 root k=4: w2 n3 589792cba6cf3da0 nodes=3726 peak=1760",
    "stats wheel5 root k=4: w4 n3 ddd1c6bda7eb1fb1 nodes=3726 peak=1760",
    "det window8x3 k=1: not-found nodes=81 peak=1440",
    "cost window8x3 k=1: not-found nodes=81 peak=1440",
    "stats window8x3 k=1: not-found nodes=81 peak=1440",
    "det window8x3 k=2: w2 n6 8ea0200c42373a49 nodes=26 peak=960",
    "cost window8x3 k=2: w2 n2 0c8c8dbb3b07f268 nodes=1453 peak=6560",
    "stats window8x3 k=2: w2 n3 149836f49d55f313 nodes=1453 peak=6560",
    "det window8x3 k=3: w3 n6 cf8413a53fc9fa4d nodes=26 peak=960",
    "cost window8x3 k=3: w2 n2 0c8c8dbb3b07f268 nodes=3581 peak=6560",
    "stats window8x3 k=3: w3 n2 fb009e84d092c339 nodes=3581 peak=6560",
    "det window8x3 k=4: w4 n6 963da40daf9bdb6d nodes=26 peak=960",
    "cost window8x3 k=4: w2 n2 0c8c8dbb3b07f268 nodes=6171 peak=6560",
    "stats window8x3 k=4: w4 n1 1a838aeb96e154bf nodes=6171 peak=6560",
    "det window8x3 root k=1: not-found nodes=27 peak=480",
    "cost window8x3 root k=1: not-found nodes=27 peak=480",
    "stats window8x3 root k=1: not-found nodes=27 peak=480",
    "det window8x3 root k=2: w2 n3 608cc93361922b39 nodes=18 peak=480",
    "cost window8x3 root k=2: w2 n2 e3d0de17b2aa072c nodes=729 peak=3360",
    "stats window8x3 root k=2: w2 n3 149836f49d55f313 nodes=729 peak=3360",
    "det window8x3 root k=3: w3 n2 5a3e033620b6e98f nodes=13 peak=320",
    "cost window8x3 root k=3: w2 n2 e3d0de17b2aa072c nodes=1779 peak=3360",
    "stats window8x3 root k=3: w3 n2 2b55ab2839ad66cd nodes=1779 peak=3360",
    "det window8x3 root k=4: w4 n1 88ac9af8e008771a nodes=7 peak=160",
    "cost window8x3 root k=4: w2 n2 e3d0de17b2aa072c nodes=3039 peak=3360",
    "stats window8x3 root k=4: w4 n1 1a838aeb96e154bf nodes=3039 peak=3360",
    "det random8 k=1: not-found nodes=72 peak=1280",
    "cost random8 k=1: not-found nodes=72 peak=1280",
    "stats random8 k=1: not-found nodes=72 peak=1280",
    "det random8 k=2: w2 n3 03c6b229b097e2c7 nodes=18 peak=480",
    "cost random8 k=2: w2 n2 1ddd29aa68e22c43 nodes=777 peak=3360",
    "stats random8 k=2: w2 n2 6937fdfc84e5a9b8 nodes=777 peak=3360",
    "det random8 k=3: w3 n3 6c57de483a3d26d5 nodes=10 peak=480",
    "cost random8 k=3: w2 n2 1ddd29aa68e22c43 nodes=2046 peak=3520",
    "stats random8 k=3: w3 n1 62ee644625a48053 nodes=2046 peak=3520",
    "det random8 k=4: w4 n3 843e6c2355258548 nodes=10 peak=480",
    "cost random8 k=4: w2 n2 1ddd29aa68e22c43 nodes=3586 peak=3520",
    "stats random8 k=4: w4 n1 d0bd1f0b7b685fe0 nodes=3586 peak=3520",
    "det random8 root k=1: not-found nodes=27 peak=480",
    "cost random8 root k=1: not-found nodes=27 peak=480",
    "stats random8 root k=1: not-found nodes=27 peak=480",
    "det random8 root k=2: w2 n3 03c6b229b097e2c7 nodes=18 peak=480",
    "cost random8 root k=2: w2 n2 1ddd29aa68e22c43 nodes=407 peak=1760",
    "stats random8 root k=2: w2 n2 6937fdfc84e5a9b8 nodes=407 peak=1760",
    "det random8 root k=3: w3 n3 6c57de483a3d26d5 nodes=10 peak=480",
    "cost random8 root k=3: w2 n2 1ddd29aa68e22c43 nodes=1023 peak=1760",
    "stats random8 root k=3: w3 n1 62ee644625a48053 nodes=1023 peak=1760",
    "det random8 root k=4: w4 n3 843e6c2355258548 nodes=10 peak=480",
    "cost random8 root k=4: w2 n2 1ddd29aa68e22c43 nodes=1793 peak=1760",
    "stats random8 root k=4: w4 n1 d0bd1f0b7b685fe0 nodes=1793 peak=1760",
    "det random12 k=1: not-found nodes=156 peak=1920",
    "cost random12 k=1: not-found nodes=156 peak=1920",
    "stats random12 k=1: not-found nodes=156 peak=1920",
    "det random12 k=2: w2 n6 a265af1ae7a5695b nodes=52 peak=960",
    "cost random12 k=2: w2 n3 0eb9385e6c7065b6 nodes=3918 peak=8800",
    "stats random12 k=2: w2 n5 3c5f072cf3b674b7 nodes=3918 peak=8800",
    "det random12 k=3: w3 n7 40130786d2bff872 nodes=29 peak=1120",
    "cost random12 k=3: w2 n3 0eb9385e6c7065b6 nodes=20572 peak=12480",
    "stats random12 k=3: w3 n3 48232edf7e901a6c nodes=20572 peak=12480",
    "det random12 k=4: w4 n7 6bcf9b091a93ad24 nodes=29 peak=1120",
    "cost random12 k=4: w2 n3 0eb9385e6c7065b6 nodes=56977 peak=13280",
    "stats random12 k=4: w4 n3 ec80e4e2a4c22470 nodes=56977 peak=13280",
    "det random12 root k=1: not-found nodes=26 peak=320",
    "cost random12 root k=1: not-found nodes=26 peak=320",
    "stats random12 root k=1: not-found nodes=26 peak=320",
    "det random12 root k=2: w2 n4 faceca88cd3a421d nodes=47 peak=640",
    "cost random12 root k=2: w2 n3 0eb9385e6c7065b6 nodes=1064 peak=2880",
    "stats random12 root k=2: w2 n5 3c5f072cf3b674b7 nodes=1064 peak=2880",
    "det random12 root k=3: w3 n5 99d2788db53b9306 nodes=24 peak=800",
    "cost random12 root k=3: w2 n3 0eb9385e6c7065b6 nodes=4443 peak=3520",
    "stats random12 root k=3: w3 n3 48232edf7e901a6c nodes=4443 peak=3520",
    "det random12 root k=4: w4 n5 6ec266958f3805ac nodes=24 peak=800",
    "cost random12 root k=4: w2 n3 0eb9385e6c7065b6 nodes=10583 peak=3520",
    "stats random12 root k=4: w4 n3 ec80e4e2a4c22470 nodes=10583 peak=3520",
    "det random16 k=1: not-found nodes=287 peak=2720",
    "cost random16 k=1: not-found nodes=287 peak=2720",
    "stats random16 k=1: not-found nodes=287 peak=2720",
    "det random16 k=2: not-found nodes=16268 peak=19840",
    "cost random16 k=2: not-found nodes=16268 peak=19840",
    "stats random16 k=2: not-found nodes=16268 peak=19840",
    "det random16 k=3: w3 n10 2f6288708e21f86c nodes=89 peak=1600",
    "cost random16 k=3: w3 n5 3d1d966ff0f28e12 nodes=275078 peak=72160",
    "stats random16 k=3: w3 n5 524b190bb183ce0e nodes=275078 peak=72160",
    "det random16 k=4: w4 n10 4c9dda8adbc9ab87 nodes=57 peak=1600",
    "cost random16 k=4: w3 n5 3d1d966ff0f28e12 nodes=1611647 peak=121280",
    "stats random16 k=4: w4 n5 a38f289c94e17e5a nodes=1611647 peak=121280",
    "det random16 root k=1: not-found nodes=34 peak=320",
    "cost random16 root k=1: not-found nodes=34 peak=320",
    "stats random16 root k=1: not-found nodes=34 peak=320",
    "det random16 root k=2: not-found nodes=2796 peak=3520",
    "cost random16 root k=2: not-found nodes=2796 peak=3520",
    "stats random16 root k=2: not-found nodes=2796 peak=3520",
    "det random16 root k=3: w3 n7 e3d549711383e71e nodes=775 peak=1280",
    "cost random16 root k=3: w3 n5 f061c5df11befe77 nodes=67886 peak=20320",
    "stats random16 root k=3: w3 n5 dce03c2fa3dd7cf2 nodes=67886 peak=20320",
    "det random16 root k=4: w4 n6 ca259ca740a48fea nodes=116 peak=960",
    "cost random16 root k=4: w3 n5 f061c5df11befe77 nodes=446810 peak=37760",
    "stats random16 root k=4: w4 n5 a38f289c94e17e5a nodes=446810 peak=37760",
    "stats parallel random1 k=3: w3 n1 62ee644625a48053 nodes=2046 peak=3520",
    "stats parallel random2 k=3: w3 n3 48232edf7e901a6c nodes=20572 peak=12480",
    "stats parallel random3 k=3: w3 n5 524b190bb183ce0e nodes=275078 peak=72160",
    "det random16 k=2 budget=5000: trip nodes=5001 peak=6080",
    "cost random16 k=3 budget=5000: trip nodes=5001 peak=2720",
};

TEST(DecompositionGoldenTest, MatchesRecordedSearches) {
  const std::vector<std::string> actual = GoldenRecords();
  std::string table;
  for (const std::string& line : actual) table += "    \"" + line + "\",\n";
  const std::size_t expected = sizeof(kGoldenRecords) / sizeof(char*);
  ASSERT_EQ(actual.size(), expected) << table;
  for (std::size_t i = 0; i < expected; ++i) {
    EXPECT_EQ(actual[i], kGoldenRecords[i]) << "record " << i;
  }
}

}  // namespace
}  // namespace htqo
