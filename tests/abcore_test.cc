#include <gtest/gtest.h>

#include <algorithm>

#include "abcore/degeneracy.h"
#include "abcore/offsets.h"
#include "abcore/peeling.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::MakeGraph;
using ::abcs::testing::RandomWeightedGraph;

/// Independent fixpoint reference for the (α,β)-core: rescan all vertices
/// until nothing changes.
std::vector<uint8_t> NaiveCore(const BipartiteGraph& g, uint32_t alpha,
                               uint32_t beta) {
  const uint32_t n = g.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      uint32_t d = 0;
      for (const Arc& a : g.Neighbors(v)) d += alive[a.to];
      const uint32_t need = g.IsUpper(v) ? alpha : beta;
      if (d < need) {
        alive[v] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

/// Naive unipartite core numbers: repeatedly strip min-degree vertices.
std::vector<uint32_t> NaiveKCore(const BipartiteGraph& g) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> core(n, 0);
  std::vector<uint8_t> alive(n, 1);
  for (uint32_t k = 1;; ++k) {
    // Peel everything below k; survivors have core >= k.
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId v = 0; v < n; ++v) {
        if (!alive[v]) continue;
        uint32_t d = 0;
        for (const Arc& a : g.Neighbors(v)) d += alive[a.to];
        if (d < k) {
          alive[v] = 0;
          changed = true;
        }
      }
    }
    bool any = false;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) {
        core[v] = k;
        any = true;
      }
    }
    if (!any) break;
  }
  return core;
}

TEST(PeelingTest, SimpleTriangleLikeExample) {
  // u0 — {v0, v1}, u1 — {v0, v1}, u2 — {v2}.
  BipartiteGraph g =
      MakeGraph({{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}, {2, 2, 1}});
  CoreResult core = ComputeAlphaBetaCore(g, 2, 2);
  EXPECT_EQ(core.num_upper, 2u);
  EXPECT_EQ(core.num_lower, 2u);
  EXPECT_EQ(core.num_edges, 4u);
  EXPECT_TRUE(core.alive[0]);
  EXPECT_TRUE(core.alive[1]);
  EXPECT_FALSE(core.alive[2]);  // u2 has degree 1 < 2

  CoreResult empty = ComputeAlphaBetaCore(g, 3, 1);
  EXPECT_TRUE(empty.Empty());
}

class CoreGridTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(CoreGridTest, MatchesNaiveOverParameterGrid) {
  const auto [seed, m] = GetParam();
  BipartiteGraph g = RandomWeightedGraph(25, 25, m, seed);
  for (uint32_t alpha = 1; alpha <= 6; ++alpha) {
    for (uint32_t beta = 1; beta <= 6; ++beta) {
      CoreResult fast = ComputeAlphaBetaCore(g, alpha, beta);
      std::vector<uint8_t> slow = NaiveCore(g, alpha, beta);
      EXPECT_EQ(fast.alive, slow) << "alpha=" << alpha << " beta=" << beta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CoreGridTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(60u, 120u, 200u)));

TEST(PeelingTest, CoreNesting) {
  BipartiteGraph g = RandomWeightedGraph(40, 40, 300, 9);
  for (uint32_t alpha = 1; alpha <= 4; ++alpha) {
    for (uint32_t beta = 1; beta <= 4; ++beta) {
      CoreResult outer = ComputeAlphaBetaCore(g, alpha, beta);
      CoreResult inner_a = ComputeAlphaBetaCore(g, alpha + 1, beta);
      CoreResult inner_b = ComputeAlphaBetaCore(g, alpha, beta + 1);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (inner_a.alive[v]) {
          EXPECT_TRUE(outer.alive[v]);
        }
        if (inner_b.alive[v]) {
          EXPECT_TRUE(outer.alive[v]);
        }
      }
    }
  }
}

TEST(PeelingTest, PeelInPlaceReportsRemovedVertices) {
  BipartiteGraph g =
      MakeGraph({{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}, {2, 2, 1}});
  std::vector<uint32_t> deg(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) deg[v] = g.Degree(v);
  std::vector<uint8_t> alive(g.NumVertices(), 1);
  std::vector<VertexId> removed;
  PeelInPlace(g, 2, 2, deg, alive, &removed);
  // u2 and v2 are removed (in some order).
  std::sort(removed.begin(), removed.end());
  EXPECT_EQ(removed, (std::vector<VertexId>{2, 5}));
}

// --------------------------------------------------------------- Offsets --

class OffsetsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OffsetsPropertyTest, AlphaOffsetsCharacterizeCoreMembership) {
  BipartiteGraph g = RandomWeightedGraph(20, 25, 130, GetParam());
  const uint32_t amax = g.MaxUpperDegree();
  for (uint32_t alpha = 1; alpha <= amax; ++alpha) {
    std::vector<uint32_t> sa = ComputeAlphaOffsets(g, alpha);
    for (uint32_t beta = 1; beta <= g.MaxLowerDegree() + 1; ++beta) {
      CoreResult core = ComputeAlphaBetaCore(g, alpha, beta);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(core.alive[v] != 0, sa[v] >= beta)
            << "v=" << v << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

TEST_P(OffsetsPropertyTest, BetaOffsetsSymmetricToAlphaOffsets) {
  BipartiteGraph g = RandomWeightedGraph(20, 25, 130, GetParam() + 100);
  for (uint32_t beta = 1; beta <= 5; ++beta) {
    std::vector<uint32_t> sb = ComputeBetaOffsets(g, beta);
    for (uint32_t alpha = 1; alpha <= 5; ++alpha) {
      std::vector<uint32_t> sa = ComputeAlphaOffsets(g, alpha);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(sa[v] >= beta, sb[v] >= alpha)
            << "v=" << v << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OffsetsPropertyTest,
                         ::testing::Values(11, 12, 13, 14));

TEST(OffsetsTest, WorkspaceOverloadsMatchByValueAcrossReuse) {
  // One OffsetWorkspace serves many peels (the naive baseline's pattern):
  // every result must match the allocating API no matter what the
  // previous call left in the buffers, including interleaved alpha/beta
  // calls of different sizes.
  BipartiteGraph g = RandomWeightedGraph(30, 30, 200, 23);
  BipartiteGraph small = RandomWeightedGraph(8, 8, 30, 24);
  OffsetWorkspace ws;
  for (uint32_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(ComputeAlphaOffsets(g, k, ws), ComputeAlphaOffsets(g, k));
    EXPECT_EQ(ComputeBetaOffsets(small, k, ws),
              ComputeBetaOffsets(small, k));
    EXPECT_EQ(ComputeBetaOffsets(g, k, ws), ComputeBetaOffsets(g, k));
  }
}

// ------------------------------------------------------------ Degeneracy --

TEST(DegeneracyTest, KCoreNumbersMatchNaive) {
  for (uint64_t seed : {31, 32, 33}) {
    BipartiteGraph g = RandomWeightedGraph(25, 25, 180, seed);
    EXPECT_EQ(KCoreNumbers(g), NaiveKCore(g)) << "seed=" << seed;
  }
}

TEST(DegeneracyTest, DeltaIsLargestNonEmptyTauTauCore) {
  BipartiteGraph g = RandomWeightedGraph(30, 30, 250, 41);
  const uint32_t delta = Degeneracy(g);
  EXPECT_FALSE(ComputeAlphaBetaCore(g, delta, delta).Empty());
  EXPECT_TRUE(ComputeAlphaBetaCore(g, delta + 1, delta + 1).Empty());
}

TEST(DegeneracyTest, CompleteBipartiteBlock) {
  // K_{4,4}: every vertex has degree 4, so δ = 4.
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) triples.push_back({i, j, 1.0});
  }
  EXPECT_EQ(Degeneracy(MakeGraph(triples)), 4u);
}

TEST(DegeneracyTest, DecompositionConsistentWithPerLevelOffsets) {
  BipartiteGraph g = RandomWeightedGraph(25, 25, 220, 51);
  BicoreDecomposition d = ComputeBicoreDecomposition(g);
  EXPECT_EQ(d.delta, Degeneracy(g));
  EXPECT_EQ(d.NumVertices(), g.NumVertices());
  for (uint32_t tau = 1; tau <= d.delta; ++tau) {
    const std::vector<uint32_t> sa = ComputeAlphaOffsets(g, tau);
    const std::vector<uint32_t> sb = ComputeBetaOffsets(g, tau);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(d.sa(tau, v), sa[v]) << "tau=" << tau << " v=" << v;
      EXPECT_EQ(d.sb(tau, v), sb[v]) << "tau=" << tau << " v=" << v;
    }
  }
}

TEST(DegeneracyTest, ArenaSlicesEndAtLastNonzeroLevel) {
  // Compactness: vertex v's slice covers exactly the τ ≤ δ with
  // s(v, τ) ≥ 1, so the arena never stores a zero and MemoryBytes is
  // strictly below the dense 2δ·n table whenever any offset hits zero.
  BipartiteGraph g = RandomWeightedGraph(25, 25, 220, 52);
  const BicoreDecomposition d = ComputeBicoreDecomposition(g);
  for (uint32_t x : d.alpha.values) EXPECT_GE(x, 1u);
  for (uint32_t x : d.beta.values) EXPECT_GE(x, 1u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint32_t levels = d.alpha.Levels(v);
    EXPECT_LE(levels, d.delta);
    if (levels < d.delta) {
      EXPECT_EQ(d.sa(levels + 1, v), 0u);
    }
    if (levels > 0) {
      EXPECT_GE(d.sa(levels, v), 1u);
    }
  }
  EXPECT_LE(d.MemoryBytes(),
            DenseDecompositionBytes(d.delta, g.NumVertices()) +
                2 * (g.NumVertices() + 1) * sizeof(uint32_t));
}

TEST(DegeneracyTest, ParallelDecompositionMatchesSerial) {
  for (uint64_t seed : {71, 72}) {
    BipartiteGraph g = RandomWeightedGraph(30, 30, 260, seed);
    const BicoreDecomposition serial = ComputeBicoreDecomposition(g);
    for (unsigned threads : {1u, 2u, 4u}) {
      const BicoreDecomposition parallel =
          ComputeBicoreDecompositionParallel(g, threads);
      EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
  }
}

TEST(DegeneracyTest, MinAlphaBetaBoundedByDelta) {
  // Lemma 4: any nonempty (α,β)-core has min(α,β) ≤ δ.
  BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 61);
  const uint32_t delta = Degeneracy(g);
  const uint32_t hi = std::max(g.MaxUpperDegree(), g.MaxLowerDegree()) + 1;
  for (uint32_t alpha = delta + 1; alpha <= hi; ++alpha) {
    EXPECT_TRUE(ComputeAlphaBetaCore(g, alpha, delta + 1).Empty());
  }
}

}  // namespace
}  // namespace abcs
