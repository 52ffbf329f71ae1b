// Stress and scenario tests for the SCS algorithms: heavier graphs,
// skewed topologies, planted tiny-R scenarios and many-tie weight
// distributions — the regimes where the four algorithms take different
// code paths but must agree.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weights.h"
#include "test_util.h"

namespace abcs {
namespace {

void ExpectAllAgree(const BipartiteGraph& g, const DeltaIndex& index,
                    VertexId q, uint32_t alpha, uint32_t beta,
                    const char* context) {
  const Subgraph c = index.QueryCommunity(q, alpha, beta);
  const ScsResult peel = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kPeel);
  const ScsResult expand = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kExpand);
  const ScsResult binary = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kBinary);
  ASSERT_EQ(peel.found, !c.Empty()) << context;
  ASSERT_EQ(expand.found, peel.found) << context;
  ASSERT_EQ(binary.found, peel.found) << context;
  if (!peel.found) return;
  EXPECT_DOUBLE_EQ(expand.significance, peel.significance) << context;
  EXPECT_DOUBLE_EQ(binary.significance, peel.significance) << context;
  EXPECT_TRUE(SameEdgeSet(expand.community, peel.community)) << context;
  EXPECT_TRUE(SameEdgeSet(binary.community, peel.community)) << context;
  std::string why;
  EXPECT_TRUE(VerifyCommunity(g, peel.community, q, alpha, beta, &why))
      << context << ": " << why;
}

TEST(ScsStressTest, ChungLuTopologyWithContinuousWeights) {
  BipartiteGraph topo;
  ASSERT_TRUE(GenChungLuBipartite(300, 300, 4000, 2.0, 2.2, 12, &topo).ok());
  const BipartiteGraph g =
      ApplyWeightModel(topo, WeightModel::kUniform, 900);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(1);
  for (int trial = 0; trial < 25; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    ExpectAllAgree(g, index, q, alpha, beta, "chunglu-uniform");
  }
}

TEST(ScsStressTest, SkewNormalWeights) {
  BipartiteGraph topo;
  ASSERT_TRUE(GenChungLuBipartite(200, 200, 2500, 2.1, 2.1, 13, &topo).ok());
  const BipartiteGraph g =
      ApplyWeightModel(topo, WeightModel::kSkewNormal, 901);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    ExpectAllAgree(g, index, q, 3, 3, "chunglu-skewnormal");
  }
}

TEST(ScsStressTest, ManyTiesTwoDistinctWeights) {
  // Only two weight values: the batching logic degenerates to at most two
  // batches; SCS-Binary needs a single probe.
  BipartiteGraph topo;
  ASSERT_TRUE(GenErdosRenyiBipartite(60, 60, 900, 14, &topo).ok());
  Rng wr(55);
  std::vector<Weight> w(topo.NumEdges());
  for (auto& x : w) x = (wr.NextBounded(2) == 0) ? 1.0 : 2.0;
  const BipartiteGraph g = topo.WithWeights(w);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(120));
    const uint32_t t = 2 + static_cast<uint32_t>(rng.NextBounded(4));
    ExpectAllAgree(g, index, q, t, t, "two-weights");
  }
}

TEST(ScsStressTest, PlantedTinyRInsideLargeCommunity) {
  // A large low-weight (3,3)-connected blob containing a small complete
  // 4×4 block of weight 100: R must be exactly the planted block. This is
  // the regime where SCS-Expand validates long before SCS-Peel finishes
  // peeling.
  GraphBuilder builder;
  Rng rng(77);
  const uint32_t kBlob = 200;
  for (uint32_t u = 0; u < kBlob; ++u) {
    for (int k = 0; k < 6; ++k) {
      builder.AddEdge(u, static_cast<uint32_t>(rng.NextBounded(kBlob)),
                      1.0 + rng.NextBounded(5));
    }
  }
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      builder.AddEdge(i, j, 100.0);  // overwrites blob edges via kKeepMax
    }
  }
  BipartiteGraph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  const DeltaIndex index = DeltaIndex::Build(g);

  const VertexId q = 0;  // upper vertex of the planted block
  const Subgraph c = index.QueryCommunity(q, 3, 3);
  ASSERT_FALSE(c.Empty());
  ScsStats expand_stats;
  const ScsResult expand =
      ScsQuery(g, c, q, 3, 3, ScsAlgo::kExpand, {}, &expand_stats);
  ASSERT_TRUE(expand.found);
  EXPECT_DOUBLE_EQ(expand.significance, 100.0);
  EXPECT_EQ(expand.community.Size(), 16u);
  // Expansion should have processed far fewer edges than the community.
  EXPECT_LT(expand_stats.edges_processed, c.Size());

  const ScsResult peel = ScsQuery(g, c, q, 3, 3, ScsAlgo::kPeel);
  EXPECT_TRUE(SameEdgeSet(peel.community, expand.community));
}

TEST(ScsStressTest, BaselineAgreesOnMediumGraph) {
  BipartiteGraph g = testing::RandomWeightedGraph(80, 80, 1200, 15, 10);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(160));
    const uint32_t t = 2 + static_cast<uint32_t>(rng.NextBounded(3));
    const Subgraph c = index.QueryCommunity(q, t, t);
    const ScsResult peel = ScsQuery(g, c, q, t, t, ScsAlgo::kPeel);
    const ScsResult baseline = ScsBaseline(g, q, t, t);
    ASSERT_EQ(baseline.found, peel.found);
    if (peel.found) {
      EXPECT_DOUBLE_EQ(baseline.significance, peel.significance);
      EXPECT_TRUE(SameEdgeSet(baseline.community, peel.community));
    }
  }
}

TEST(ScsStressTest, PeelIsIdempotentOnItsOwnResult) {
  // Running SCS-Peel on R returns R itself (R is already maximal).
  BipartiteGraph g = testing::RandomWeightedGraph(40, 40, 500, 16);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(80));
    const Subgraph c = index.QueryCommunity(q, 2, 2);
    const ScsResult first = ScsQuery(g, c, q, 2, 2, ScsAlgo::kPeel);
    if (!first.found) continue;
    const ScsResult second =
        ScsQuery(g, first.community, q, 2, 2, ScsAlgo::kPeel);
    ASSERT_TRUE(second.found);
    EXPECT_DOUBLE_EQ(second.significance, first.significance);
    EXPECT_TRUE(SameEdgeSet(second.community, first.community));
  }
}

TEST(ScsStressTest, ResultShrinksAsSignificanceRises) {
  // Monotonicity: for fixed (α,β), R is the q-component of the stable
  // subgraph at threshold f(R); raising α or β can only shrink or keep R's
  // significance (larger cores force more edges).
  BipartiteGraph g = testing::RandomWeightedGraph(50, 50, 800, 17, 20);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(100));
    const Subgraph c2 = index.QueryCommunity(q, 2, 2);
    const Subgraph c3 = index.QueryCommunity(q, 3, 3);
    const ScsResult r2 = ScsQuery(g, c2, q, 2, 2, ScsAlgo::kPeel);
    const ScsResult r3 = ScsQuery(g, c3, q, 3, 3, ScsAlgo::kPeel);
    if (r2.found && r3.found) {
      EXPECT_GE(r2.significance, r3.significance)
          << "looser constraints must allow at least as high significance";
    }
  }
}

}  // namespace
}  // namespace abcs
