// Direct verification of the paper's lemmas on randomized instances —
// these are the statements the algorithms' pruning and optimality rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "abcore/degeneracy.h"
#include "abcore/peeling.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::RandomWeightedGraph;

// Lemma 1: the significant (α,β)-community is unique and contained in the
// (α,β)-community. (Uniqueness = determinism across independent runs with
// permuted edge pools is covered by the cross-algorithm agreement tests;
// containment is re-verified here on its own.)
TEST(LemmaTest, Lemma1ContainmentInCommunity) {
  BipartiteGraph g = RandomWeightedGraph(30, 30, 260, 11);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(60));
    const uint32_t a = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t b = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const Subgraph c = index.QueryCommunity(q, a, b);
    const ScsResult r = ScsQuery(g, c, q, a, b, ScsAlgo::kPeel);
    if (!r.found) continue;
    std::set<EdgeId> ce(c.edges.begin(), c.edges.end());
    for (EdgeId e : r.community.edges) {
      EXPECT_TRUE(ce.count(e)) << "R must be a subgraph of C";
    }
  }
}

// Lemma 2: (α,β)-core ⊆ (α',β')-core whenever α ≥ α', β ≥ β'.
TEST(LemmaTest, Lemma2CoreHierarchy) {
  BipartiteGraph g = RandomWeightedGraph(25, 25, 200, 12);
  std::map<std::pair<uint32_t, uint32_t>, CoreResult> cores;
  for (uint32_t a = 1; a <= 5; ++a) {
    for (uint32_t b = 1; b <= 5; ++b) {
      cores[{a, b}] = ComputeAlphaBetaCore(g, a, b);
    }
  }
  for (uint32_t a = 1; a <= 5; ++a) {
    for (uint32_t b = 1; b <= 5; ++b) {
      const CoreResult& inner = cores[{a, b}];
      for (uint32_t a2 = 1; a2 <= a; ++a2) {
        for (uint32_t b2 = 1; b2 <= b; ++b2) {
          const CoreResult& outer = cores[{a2, b2}];
          for (VertexId v = 0; v < g.NumVertices(); ++v) {
            if (inner.alive[v]) {
              EXPECT_TRUE(outer.alive[v])
                  << "v=" << v << " (" << a << "," << b << ") not in (" << a2
                  << "," << b2 << ")";
            }
          }
        }
      }
    }
  }
}

// Lemma 4: every nonempty (α,β)-core has min(α,β) ≤ δ, and δ is tight.
TEST(LemmaTest, Lemma4DegeneracyBoundTight) {
  for (uint64_t seed : {13, 14, 15}) {
    BipartiteGraph g = RandomWeightedGraph(25, 25, 230, seed);
    const uint32_t delta = Degeneracy(g);
    EXPECT_FALSE(ComputeAlphaBetaCore(g, delta, delta).Empty());
    const uint32_t hi = std::max(g.MaxUpperDegree(), g.MaxLowerDegree()) + 1;
    for (uint32_t t = delta + 1; t <= hi; ++t) {
      EXPECT_TRUE(ComputeAlphaBetaCore(g, t, t).Empty());
    }
  }
}

// Lemma 7: if R ⊆ C*, then αβ − α − β ≤ |E(C*)| − |U(C*)| − |L(C*)|.
// We verify on every *final* significant community (R ⊆ R trivially), the
// tightest case the expansion algorithm ever tests.
TEST(LemmaTest, Lemma7HoldsForEveryResult) {
  BipartiteGraph g = RandomWeightedGraph(30, 30, 280, 16);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(2);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(60));
    const uint32_t a = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    const uint32_t b = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    const Subgraph c = index.QueryCommunity(q, a, b);
    const ScsResult r = ScsQuery(g, c, q, a, b, ScsAlgo::kPeel);
    if (!r.found) continue;
    const SubgraphStats stats = ComputeStats(g, r.community);
    const int64_t lhs = static_cast<int64_t>(a) * b - a - b;
    const int64_t rhs = static_cast<int64_t>(r.community.Size()) -
                        stats.num_upper - stats.num_lower;
    EXPECT_LE(lhs, rhs) << "a=" << a << " b=" << b;
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

// Lemma 8: R contains ≥ α (lower) vertices of degree ≥ β and ≥ β (upper)
// vertices of degree ≥ α, with q among them.
TEST(LemmaTest, Lemma8DegreeCountsHoldForEveryResult) {
  BipartiteGraph g = RandomWeightedGraph(30, 30, 280, 17);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(3);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(60));
    const uint32_t a = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    const uint32_t b = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    const Subgraph c = index.QueryCommunity(q, a, b);
    const ScsResult r = ScsQuery(g, c, q, a, b, ScsAlgo::kPeel);
    if (!r.found) continue;
    std::map<VertexId, uint32_t> deg;
    for (EdgeId e : r.community.edges) {
      ++deg[g.GetEdge(e).u];
      ++deg[g.GetEdge(e).v];
    }
    uint32_t upper_ok = 0, lower_ok = 0;
    for (const auto& [v, d] : deg) {
      if (g.IsUpper(v) && d >= a) ++upper_ok;
      if (!g.IsUpper(v) && d >= b) ++lower_ok;
    }
    EXPECT_GE(lower_ok, a);
    EXPECT_GE(upper_ok, b);
    ASSERT_TRUE(deg.count(q));
    EXPECT_GE(deg[q], g.IsUpper(q) ? a : b);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

// Lemma 3 / §III-B optimality: Qopt touches at most one adjacency entry
// per community edge per endpoint plus one sentinel per visited vertex —
// for every (α,β), not just the Figure-2 instance.
TEST(LemmaTest, QoptTouchBoundAcrossParameters) {
  BipartiteGraph g = RandomWeightedGraph(40, 40, 420, 18);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(80));
    const uint32_t a = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    const uint32_t b = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    QueryStats stats;
    const Subgraph c = index.QueryCommunity(q, a, b, &stats);
    if (c.Empty()) continue;
    const std::size_t vertices = SubgraphVertexSet(g, c).size();
    EXPECT_LE(stats.touched_arcs, 2 * c.Size() + vertices)
        << "a=" << a << " b=" << b;
  }
}

}  // namespace
}  // namespace abcs
