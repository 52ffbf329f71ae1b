#include <gtest/gtest.h>

#include <algorithm>

#include "abcore/degeneracy.h"
#include "abcore/peeling.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/online_query.h"
#include "core/scs_auto.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "models/cstar.h"
#include "models/metrics.h"
#include "test_util.h"

namespace abcs {
namespace {

/// End-to-end pipeline on a registry dataset: generate → decompose →
/// index → query communities → extract significant communities, checking
/// the paper's invariants at every step.
TEST(IntegrationTest, EndToEndOnSmallDataset) {
  DatasetSpec spec = *FindDataset("BS");
  spec.num_edges = 8000;  // shrink for test runtime
  spec.num_upper = 1500;
  spec.num_lower = 3500;
  BipartiteGraph g;
  ASSERT_TRUE(MakeDataset(spec, &g).ok());

  const BicoreDecomposition decomp = ComputeBicoreDecomposition(g);
  ASSERT_GE(decomp.delta, 2u);
  const DeltaIndex index = DeltaIndex::Build(g, &decomp);
  const BicoreIndex iv = BicoreIndex::Build(g, &decomp);
  EXPECT_EQ(index.delta(), iv.delta());

  const uint32_t alpha = std::max<uint32_t>(2, decomp.delta / 2);
  const uint32_t beta = alpha;

  Rng rng(555);
  int found = 0;
  for (int trial = 0; trial < 50 && found < 10; ++trial) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    QueryStats opt_stats, online_stats;
    const Subgraph c = index.QueryCommunity(q, alpha, beta, &opt_stats);
    const Subgraph c2 =
        QueryCommunityOnline(g, q, alpha, beta, &online_stats);
    ASSERT_TRUE(SameEdgeSet(c, c2));
    if (c.Empty()) continue;
    ++found;

    // Qopt must touch far fewer arcs than the online peel when the
    // community is small relative to the graph.
    EXPECT_LE(opt_stats.touched_arcs,
              2 * c.Size() + SubgraphVertexSet(g, c).size());
    EXPECT_GE(online_stats.touched_arcs, 2ull * g.NumEdges());

    const ScsResult peel = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kPeel);
    const ScsResult expand = ScsQuery(g, c, q, alpha, beta, ScsAlgo::kExpand);
    ASSERT_TRUE(peel.found);
    ASSERT_TRUE(expand.found);
    EXPECT_DOUBLE_EQ(peel.significance, expand.significance);
    EXPECT_TRUE(SameEdgeSet(peel.community, expand.community));

    std::string why;
    EXPECT_TRUE(VerifyCommunity(g, peel.community, q, alpha, beta, &why))
        << why;
    EXPECT_LE(peel.community.Size(), c.Size());
  }
  EXPECT_GT(found, 0) << "no nonempty communities found — dataset too thin";
}

/// The effectiveness pipeline: planted communities → genre slice →
/// SC vs (α,β)-core comparison reproduces the paper's qualitative claims.
TEST(IntegrationTest, EffectivenessPipelineQualitativeClaims) {
  PlantedSpec spec;
  spec.num_genres = 2;
  spec.blocks_per_genre = 2;
  spec.users_per_block = 60;
  spec.movies_per_block = 40;
  spec.intra_fraction = 0.85;
  spec.cross_block_ratings = 8;
  spec.binge_users_per_genre = 20;
  spec.binge_ratings = 60;
  spec.casual_users = 300;
  spec.casual_ratings = 5;
  spec.seed = 4242;
  PlantedGraph pg = MakePlantedCommunities(spec);
  PlantedGraph slice = ExtractGenreSlice(pg, 0);
  const BipartiteGraph& g = slice.graph;

  // Query a fan of genre 0, block 0.
  VertexId q = kInvalidVertex;
  for (uint32_t u = 0; u < g.NumUpper(); ++u) {
    if (slice.user_block[u] == 0) {
      q = u;
      break;
    }
  }
  ASSERT_NE(q, kInvalidVertex);

  const uint32_t t = 20;  // α = β = t, well inside the block's core
  const DeltaIndex index = DeltaIndex::Build(g);
  const Subgraph core_c = index.QueryCommunity(q, t, t);
  ASSERT_FALSE(core_c.Empty());
  const ScsResult sc = ScsQuery(g, core_c, q, t, t, ScsAlgo::kPeel);
  ASSERT_TRUE(sc.found);

  // SC has a higher minimum and average rating than the raw core.
  const SubgraphStats sc_stats = ComputeStats(g, sc.community);
  const SubgraphStats core_stats = ComputeStats(g, core_c);
  EXPECT_GT(sc_stats.min_weight, core_stats.min_weight);
  EXPECT_GT(sc_stats.avg_weight, core_stats.avg_weight);
  EXPECT_GE(sc_stats.avg_weight, 4.0);

  // SC contains no (or almost no) dislike users, the core contains many
  // (the binge population).
  const uint32_t sc_dislike = CountDislikeUsers(g, sc.community, t);
  const uint32_t core_dislike = CountDislikeUsers(g, core_c, t);
  EXPECT_LT(sc_dislike, core_dislike);

  // SC is far denser than the structure-free C4* community (paper
  // Fig. 6(a): cohesive models vs C4*).
  const Subgraph cstar = QueryCStarCommunity(g, q, 4.0);
  ASSERT_FALSE(cstar.Empty());
  EXPECT_GT(BipartiteDensity(g, sc.community), BipartiteDensity(g, cstar));
}

TEST(IntegrationTest, TableOneStatisticsAreComputable) {
  // δ, αmax, βmax and |R_{δ,δ}| for a small registry graph — the Table I
  // pipeline end to end.
  DatasetSpec spec = *FindDataset("GH");
  spec.num_edges = 6000;
  spec.num_upper = 800;
  spec.num_lower = 1700;
  BipartiteGraph g;
  ASSERT_TRUE(MakeDataset(spec, &g).ok());
  const uint32_t delta = Degeneracy(g);
  EXPECT_GE(delta, 1u);
  const CoreResult rdd = ComputeAlphaBetaCore(g, delta, delta);
  EXPECT_FALSE(rdd.Empty());
  EXPECT_GT(rdd.num_edges, 0u);
  EXPECT_GE(g.MaxUpperDegree(), delta);
  EXPECT_GE(g.MaxLowerDegree(), delta);
}

}  // namespace
}  // namespace abcs
