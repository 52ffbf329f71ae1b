#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/delta_index.h"
#include "core/online_query.h"
#include "core/scs_auto.h"
#include "core/scs_common.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::MakeGraph;
using ::abcs::testing::PaperFigure2Graph;
using ::abcs::testing::RandomWeightedGraph;

// ------------------------------------------------------------ LocalGraph --

TEST(LocalGraphTest, RenumbersDenselyAndPreservesEdges) {
  BipartiteGraph g = MakeGraph(
      {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {2, 2, 4.0}});
  LocalGraph lg(g, {0, 1, 2});  // exclude edge (u2, v2)
  EXPECT_EQ(lg.NumVertices(), 4u);  // u0, u1, v0, v1
  EXPECT_EQ(lg.NumEdges(), 3u);
  EXPECT_EQ(lg.LocalId(2), kInvalidVertex);  // u2 absent
  const uint32_t lu0 = lg.LocalId(0);
  ASSERT_NE(lu0, kInvalidVertex);
  EXPECT_TRUE(lg.IsUpperLocal(lu0));
  EXPECT_EQ(lg.GlobalId(lu0), 0u);
  EXPECT_EQ(lg.Neighbors(lu0).size(), 2u);
  // Edge payload round-trips.
  for (const LocalGraph::LocalEdge& le : lg.edges()) {
    const Edge& orig = g.GetEdge(le.global);
    EXPECT_EQ(lg.GlobalId(le.u), orig.u);
    EXPECT_EQ(lg.GlobalId(le.v), orig.v);
    EXPECT_DOUBLE_EQ(le.w, orig.w);
  }
}

// ---------------------------------------------------- Figure 2 (paper) ----

TEST(ScsTest, PaperFigure2SignificantCommunity) {
  BipartiteGraph g = PaperFigure2Graph();
  const DeltaIndex index = DeltaIndex::Build(g);
  const VertexId u3 = 2;  // 0-based
  const Subgraph c = index.QueryCommunity(u3, 2, 2);
  ASSERT_EQ(c.Size(), 16u);

  for (const ScsAlgo algo :
       {ScsAlgo::kPeel, ScsAlgo::kExpand, ScsAlgo::kBinary}) {
    const ScsResult r = ScsQuery(g, c, u3, 2, 2, algo);
    ASSERT_TRUE(r.found) << "algo=" << ScsAlgoName(algo);
    EXPECT_DOUBLE_EQ(r.significance, 13.0) << "algo=" << ScsAlgoName(algo);
    ASSERT_EQ(r.community.Size(), 4u) << "algo=" << ScsAlgoName(algo);
    // Edges: (u3,v1), (u3,v2), (u4,v1), (u4,v2) — weights 14,13,19,18.
    std::vector<Weight> ws;
    for (EdgeId e : r.community.edges) ws.push_back(g.GetWeight(e));
    std::sort(ws.begin(), ws.end());
    EXPECT_EQ(ws, (std::vector<Weight>{13, 14, 18, 19}))
        << "algo=" << ScsAlgoName(algo);
  }

  ScsResult rb = ScsBaseline(g, u3, 2, 2);
  ASSERT_TRUE(rb.found);
  EXPECT_DOUBLE_EQ(rb.significance, 13.0);
  EXPECT_EQ(rb.community.Size(), 4u);
}

// -------------------------------------------------- algorithm agreement ---

class ScsAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScsAgreementTest, AllAlgorithmsMatchBruteForce) {
  BipartiteGraph g = RandomWeightedGraph(22, 26, 200, GetParam());
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(GetParam() * 131 + 5);

  int nontrivial = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    const Subgraph c = index.QueryCommunity(q, alpha, beta);

    const ScsResult ref = ScsBruteForce(g, q, alpha, beta);
    const ScsResult peel = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kPeel);
    const ScsResult expand = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kExpand);
    const ScsResult binary = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kBinary);
    const ScsResult baseline = ScsBaseline(g, q, alpha, beta);

    ASSERT_EQ(ref.found, !c.Empty());
    for (const ScsResult* r : {&peel, &expand, &binary, &baseline}) {
      ASSERT_EQ(r->found, ref.found)
          << "q=" << q << " a=" << alpha << " b=" << beta;
      if (ref.found) {
        EXPECT_DOUBLE_EQ(r->significance, ref.significance)
            << "q=" << q << " a=" << alpha << " b=" << beta;
        EXPECT_TRUE(SameEdgeSet(r->community, ref.community))
            << "q=" << q << " a=" << alpha << " b=" << beta;
      }
    }
    if (ref.found) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 5) << "test instance too sparse to be meaningful";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScsAgreementTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206, 207,
                                           208));

// ------------------------------------------------------ result invariants --

class ScsInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScsInvariantTest, ResultSatisfiesDefinition5) {
  BipartiteGraph g = RandomWeightedGraph(25, 25, 220, GetParam());
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const Subgraph c = index.QueryCommunity(q, alpha, beta);
    const ScsResult r = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kPeel);
    if (!r.found) continue;

    // Constraints 1)+2): connected, contains q, degree thresholds.
    std::string why;
    EXPECT_TRUE(VerifyCommunity(g, r.community, q, alpha, beta, &why)) << why;

    // R ⊆ C (Lemma 1).
    std::vector<EdgeId> ce = c.edges, re = r.community.edges;
    std::sort(ce.begin(), ce.end());
    std::sort(re.begin(), re.end());
    EXPECT_TRUE(std::includes(ce.begin(), ce.end(), re.begin(), re.end()));

    // f(R) equals the minimum edge weight of R and dominates f(C).
    const SubgraphStats rstats = ComputeStats(g, r.community);
    const SubgraphStats cstats = ComputeStats(g, c);
    EXPECT_DOUBLE_EQ(rstats.min_weight, r.significance);
    EXPECT_GE(r.significance, cstats.min_weight);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScsInvariantTest,
                         ::testing::Values(301, 302, 303, 304));

// ------------------------------------------------------------ edge cases --

TEST(ScsTest, AllWeightsEqualReturnsWholeCommunity) {
  // When every weight is equal, R = C_{α,β}(q) (paper §IV-A note).
  BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 77, /*max_weight=*/1);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const Subgraph c = index.QueryCommunity(q, 2, 2);
    if (c.Empty()) continue;
    for (const ScsAlgo algo :
         {ScsAlgo::kPeel, ScsAlgo::kExpand, ScsAlgo::kBinary}) {
      const ScsResult r = ScsQuery(g, c, q, 2, 2, algo);
      ASSERT_TRUE(r.found);
      EXPECT_TRUE(SameEdgeSet(r.community, c)) << "algo=" << ScsAlgoName(algo);
      EXPECT_DOUBLE_EQ(r.significance, 1.0);
    }
  }
}

TEST(ScsTest, EmptyCommunityYieldsNotFound) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}});
  Subgraph empty;
  EXPECT_FALSE(ScsQuery(g, empty, 0, 1, 1, ScsAlgo::kPeel).found);
  EXPECT_FALSE(ScsQuery(g, empty, 0, 1, 1, ScsAlgo::kExpand).found);
  EXPECT_FALSE(ScsQuery(g, empty, 0, 1, 1, ScsAlgo::kBinary).found);
  EXPECT_FALSE(ScsBaseline(g, 0, 5, 5).found);
}

TEST(ScsTest, QueryVertexOutsidePoolNotFound) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}, {1, 1, 2.0}});
  Subgraph c{{0}};  // only edge (u0, v0)
  // u1 is not in the pool.
  EXPECT_FALSE(ScsQuery(g, c, 1, 1, 1, ScsAlgo::kPeel).found);
  EXPECT_FALSE(ScsQuery(g, c, 1, 1, 1, ScsAlgo::kExpand).found);
  EXPECT_FALSE(ScsQuery(g, c, 1, 1, 1, ScsAlgo::kBinary).found);
}

TEST(ScsTest, ExpandEpsilonVariantsAgree) {
  BipartiteGraph g = RandomWeightedGraph(25, 25, 250, 88);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const Subgraph c = index.QueryCommunity(q, 2, 2);
    if (c.Empty()) continue;
    ScsResult base = ScsQuery(g, c, q, 2, 2, ScsAlgo::kExpand);
    for (double eps : {1.2, 1.5, 3.0, 8.0}) {
      ScsOptions options;
      options.epsilon = eps;
      ScsResult r = ScsQuery(g, c, q, 2, 2, ScsAlgo::kExpand, options);
      ASSERT_EQ(r.found, base.found) << "eps=" << eps;
      if (base.found) {
        EXPECT_DOUBLE_EQ(r.significance, base.significance);
        EXPECT_TRUE(SameEdgeSet(r.community, base.community));
      }
    }
  }
}

TEST(ScsTest, StatsFollowUnifiedSemantics) {
  // One semantics across kernels: `validations` counts from-scratch
  // stabilisations, `incremental_probes` counts journal-seeded checks.
  BipartiteGraph g = RandomWeightedGraph(20, 20, 180, 91);
  const DeltaIndex index = DeltaIndex::Build(g);
  const Subgraph c = index.QueryCommunity(0, 2, 2);
  if (c.Empty()) GTEST_SKIP() << "seed produced empty community";
  ScsStats peel_stats, expand_stats, binary_stats;
  ScsResult rp = ScsQuery(g, c, 0, 2, 2, ScsAlgo::kPeel, {}, &peel_stats);
  ScsResult re = ScsQuery(g, c, 0, 2, 2, ScsAlgo::kExpand, {}, &expand_stats);
  ScsResult rb = ScsQuery(g, c, 0, 2, 2, ScsAlgo::kBinary, {}, &binary_stats);
  ASSERT_EQ(rp.found, re.found);
  ASSERT_EQ(rp.found, rb.found);
  EXPECT_EQ(peel_stats.algo_used, ScsAlgo::kPeel);
  EXPECT_EQ(expand_stats.algo_used, ScsAlgo::kExpand);
  EXPECT_EQ(binary_stats.algo_used, ScsAlgo::kBinary);
  // Peel stabilises exactly once from scratch and never probes.
  EXPECT_EQ(peel_stats.validations, 1u);
  EXPECT_EQ(peel_stats.incremental_probes, 0u);
  if (rp.found) {
    EXPECT_GT(peel_stats.edges_processed, 0u);
    EXPECT_GT(expand_stats.edges_processed, 0u);
    // Expand validates only incrementally (seeded from expansion state).
    EXPECT_EQ(expand_stats.validations, 0u);
    EXPECT_GE(expand_stats.incremental_probes, 1u);
    // Binary opens with one full stabilisation, then probes incrementally.
    EXPECT_EQ(binary_stats.validations, 1u);
  }
}

// ------------------------------------------------------- weight ranks ----

TEST(LocalGraphTest, RankOrderAndDistinctPrefixes) {
  BipartiteGraph g = MakeGraph({{0, 0, 5.0},
                                {0, 1, 2.0},
                                {1, 0, 5.0},
                                {1, 1, 9.0},
                                {2, 1, 2.0},
                                {2, 2, 7.0}});
  LocalGraph lg(g, {0, 1, 2, 3, 4, 5});
  ASSERT_EQ(lg.NumEdges(), 6u);
  // Non-increasing weights; equal weights keep pool order (deterministic).
  for (uint32_t r = 1; r < lg.NumEdges(); ++r) {
    EXPECT_GE(lg.edges()[r - 1].w, lg.edges()[r].w);
    if (lg.edges()[r - 1].w == lg.edges()[r].w) {
      EXPECT_LT(lg.edges()[r - 1].global, lg.edges()[r].global);
    }
  }
  // Distinct table: weights 9, 7, 5, 2 with prefix ends 1, 2, 4, 6.
  ASSERT_EQ(lg.NumDistinctWeights(), 4u);
  const Weight want_w[] = {9.0, 7.0, 5.0, 2.0};
  const uint32_t want_end[] = {1, 2, 4, 6};
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(lg.DistinctWeight(i), want_w[i]) << i;
    EXPECT_EQ(lg.PrefixEnd(i), want_end[i]) << i;
    // Ranks [0, PrefixEnd(i)) are exactly the edges with w >= weight i.
    for (uint32_t r = 0; r < lg.PrefixEnd(i); ++r) {
      EXPECT_GE(lg.edges()[r].w, want_w[i]);
    }
  }
  // Per-vertex arc lists are sorted by ascending rank.
  for (uint32_t x = 0; x < lg.NumVertices(); ++x) {
    const auto arcs = lg.Neighbors(x);
    for (std::size_t k = 1; k < arcs.size(); ++k) {
      EXPECT_LT(arcs[k - 1].pos, arcs[k].pos);
    }
  }
}

TEST(LocalGraphTest, BuildFromReusesCapacityAndMatchesFreshBuild) {
  BipartiteGraph g = RandomWeightedGraph(15, 15, 120, 99, 8);
  std::vector<EdgeId> all(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) all[e] = e;
  std::vector<EdgeId> half(all.begin(), all.begin() + all.size() / 2);

  LocalGraph pooled;
  pooled.BuildFrom(g, all);
  pooled.BuildFrom(g, half);  // shrink
  pooled.BuildFrom(g, all);   // regrow
  const LocalGraph fresh(g, all);
  ASSERT_EQ(pooled.NumEdges(), fresh.NumEdges());
  ASSERT_EQ(pooled.NumVertices(), fresh.NumVertices());
  ASSERT_EQ(pooled.NumDistinctWeights(), fresh.NumDistinctWeights());
  for (uint32_t r = 0; r < fresh.NumEdges(); ++r) {
    EXPECT_EQ(pooled.edges()[r].global, fresh.edges()[r].global) << r;
  }
  for (uint32_t i = 0; i < fresh.NumDistinctWeights(); ++i) {
    EXPECT_EQ(pooled.PrefixEnd(i), fresh.PrefixEnd(i));
  }
}

// Rank order against a reference: a shuffled pool (pool order ≠ edge-id
// order) must come out as std::stable_sort of the pool by descending
// weight, with the distinct-weight table and every arc list following it.
// The pooled LocalGraph is first built over the reversed pool so the
// comparison also covers buffer reuse. Returns the number of distinct
// weights so each regime can assert which sort path it reached.
uint32_t ExpectRankOrderMatchesStableSort(
    uint64_t seed, uint32_t m, const std::function<Weight(Rng&)>& weight) {
  BipartiteGraph topo;
  EXPECT_TRUE(GenErdosRenyiBipartite(70, 70, m, seed, &topo).ok());
  Rng rng(seed);
  std::vector<Weight> w(topo.NumEdges());
  for (Weight& x : w) x = weight(rng);
  const BipartiteGraph g = topo.WithWeights(w);

  std::vector<EdgeId> pool(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) pool[e] = e;
  rng.Shuffle(pool);
  LocalGraph lg;
  lg.BuildFrom(g, std::vector<EdgeId>(pool.rbegin(), pool.rend()));
  lg.BuildFrom(g, pool);

  std::vector<EdgeId> ref = pool;
  std::stable_sort(ref.begin(), ref.end(), [&](EdgeId a, EdgeId b) {
    return g.GetWeight(a) > g.GetWeight(b);
  });
  EXPECT_EQ(lg.NumEdges(), ref.size());
  if (lg.NumEdges() != ref.size()) return 0;
  uint32_t mismatches = 0;
  for (uint32_t r = 0; r < ref.size(); ++r) {
    mismatches += lg.edges()[r].global != ref[r];
  }
  EXPECT_EQ(mismatches, 0u) << "edges() differs from the stable sort";

  std::vector<Weight> distinct;
  std::vector<uint32_t> prefix_end;
  for (uint32_t r = 0; r < ref.size(); ++r) {
    if (r == 0 || g.GetWeight(ref[r]) != g.GetWeight(ref[r - 1])) {
      if (r != 0) prefix_end.push_back(r);
      distinct.push_back(g.GetWeight(ref[r]));
    }
  }
  prefix_end.push_back(static_cast<uint32_t>(ref.size()));
  EXPECT_EQ(lg.NumDistinctWeights(), distinct.size());
  if (lg.NumDistinctWeights() != distinct.size()) return 0;
  for (uint32_t i = 0; i < distinct.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(lg.DistinctWeight(i)),
              std::bit_cast<uint64_t>(distinct[i]))
        << i;
    EXPECT_EQ(lg.PrefixEnd(i), prefix_end[i]) << i;
  }

  // Expected arcs per global vertex: (other endpoint, rank) by rank.
  std::vector<std::vector<std::pair<VertexId, uint32_t>>> arcs(
      g.NumVertices());
  for (uint32_t r = 0; r < ref.size(); ++r) {
    const Edge& e = g.GetEdge(ref[r]);
    arcs[e.u].push_back({e.v, r});
    arcs[e.v].push_back({e.u, r});
  }
  for (uint32_t x = 0; x < lg.NumVertices(); ++x) {
    const auto& want = arcs[lg.GlobalId(x)];
    const auto got = lg.Neighbors(x);
    EXPECT_EQ(got.size(), want.size()) << "vertex " << x;
    if (got.size() != want.size()) continue;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(lg.GlobalId(got[k].to), want[k].first) << x << "/" << k;
      EXPECT_EQ(got[k].pos, want[k].second) << x << "/" << k;
    }
  }
  return lg.NumDistinctWeights();
}

TEST(LocalGraphTest, RankOrderMatchesStableSortContinuousWeights) {
  const uint32_t distinct = ExpectRankOrderMatchesStableSort(
      101, 3000, [](Rng& rng) { return rng.NextUniform(1.0, 100.0); });
  EXPECT_GT(distinct, 128u);
}

TEST(LocalGraphTest, RankOrderMatchesStableSortFewDistinctWeights) {
  const uint32_t distinct = ExpectRankOrderMatchesStableSort(
      102, 3000,
      [](Rng& rng) { return 1.0 + static_cast<double>(rng.NextBounded(100)); });
  EXPECT_LE(distinct, 128u);
}

TEST(LocalGraphTest, RankOrderMatchesStableSortManyDistinctHeavyTies) {
  // ~300 distinct weights over 3000 edges: about ten edges per weight.
  const uint32_t distinct = ExpectRankOrderMatchesStableSort(
      103, 3000, [](Rng& rng) {
        return 0.5 * static_cast<double>(rng.NextBounded(300));
      });
  EXPECT_GT(distinct, 128u);
  EXPECT_LT(distinct, 1000u);
}

TEST(LocalGraphTest, RankOrderMatchesStableSortSignedZerosAreOneWeight) {
  // Half the edges carry −0.0 or +0.0, the rest continuous weights of both
  // signs (radix path) or two values (counting path).
  const auto zero = [](Rng& rng) { return rng.NextBounded(2) ? -0.0 : 0.0; };
  const uint32_t radix = ExpectRankOrderMatchesStableSort(
      104, 3000, [&](Rng& rng) {
        return rng.NextBounded(2) ? zero(rng) : rng.NextUniform(-50.0, 50.0);
      });
  EXPECT_GT(radix, 128u);
  const uint32_t counting = ExpectRankOrderMatchesStableSort(
      105, 3000, [&](Rng& rng) {
        return rng.NextBounded(2) ? zero(rng)
                                  : static_cast<double>(rng.NextBounded(2));
      });
  EXPECT_EQ(counting, 2u);  // {1.0, 0.0}: the signed zeros share a weight
}

TEST(LocalGraphTest, RankOrderMatchesStableSortNegativeAndSubnormalWeights) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const uint32_t distinct = ExpectRankOrderMatchesStableSort(
      106, 3000, [&](Rng& rng) {
        switch (rng.NextBounded(4)) {
          case 0:
            return rng.NextUniform(-1000.0, 1000.0);
          case 1:
            return -rng.NextUniform(0.0, 1e-3);
          case 2:  // ±k·denorm_min, k < 64, and ±0
            return (rng.NextBounded(2) ? -tiny : tiny) *
                   static_cast<double>(rng.NextBounded(64));
          default:
            return static_cast<double>(rng.NextBounded(4)) - 2.0;
        }
      });
  EXPECT_GT(distinct, 128u);
}

TEST(LocalGraphTest, RankOrderMatchesStableSortUlpClusterWithOutlier) {
  // 200 consecutive doubles from 1.0 up, plus one 1e300: every cluster key
  // shares its most significant varying bits, so the whole cluster is one
  // radix run that only the fix-up can order.
  bool outlier_drawn = false;
  const uint32_t distinct = ExpectRankOrderMatchesStableSort(
      107, 3000, [&](Rng& rng) {
        if (!outlier_drawn) {
          outlier_drawn = true;
          return 1e300;
        }
        double w = 1.0;
        for (uint64_t k = rng.NextBounded(200); k > 0; --k) {
          w = std::nextafter(w, 2.0);
        }
        return w;
      });
  EXPECT_GT(distinct, 128u);
}

TEST(ScsTest, MaximalityNoSupergraphWithSameSignificance) {
  // Definition 5 constraint 3, second part: no strict supergraph of R in
  // C with f = f(R). Equivalent check: R must equal q's component of the
  // stable (α,β)-peel of {e ∈ G : w(e) ≥ f(R)} — which ScsBruteForce
  // computes; spot-check against independently recomputed membership.
  BipartiteGraph g = RandomWeightedGraph(20, 20, 170, 93);
  const DeltaIndex index = DeltaIndex::Build(g);
  const VertexId q = 3;
  const Subgraph c = index.QueryCommunity(q, 2, 2);
  if (c.Empty()) GTEST_SKIP();
  const ScsResult r = ScsQuery(g, c, q, 2, 2, ScsAlgo::kPeel);
  ASSERT_TRUE(r.found);
  const ScsResult oracle = ScsBruteForce(g, q, 2, 2);
  EXPECT_TRUE(SameEdgeSet(r.community, oracle.community));
}

}  // namespace
}  // namespace abcs
