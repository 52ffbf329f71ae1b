// Cross-module edge cases: degenerate graphs, boundary parameters, and
// inputs that exercise rarely-taken branches.

#include <gtest/gtest.h>

#include <fstream>

#include "abcore/degeneracy.h"
#include "abcore/offsets.h"
#include "abcore/peeling.h"
#include "core/delta_index.h"
#include "core/online_query.h"
#include "core/scs_auto.h"
#include "core/scs_common.h"
#include "graph/graph_io.h"
#include "models/bitruss.h"
#include "models/butterfly.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::MakeGraph;

TEST(EdgeCaseTest, SingleEdgeGraph) {
  BipartiteGraph g = MakeGraph({{0, 0, 3.0}});
  EXPECT_EQ(Degeneracy(g), 1u);
  const DeltaIndex index = DeltaIndex::Build(g);
  const Subgraph c = index.QueryCommunity(0, 1, 1);
  ASSERT_EQ(c.Size(), 1u);
  const ScsResult r = ScsQuery(g, c, 0, 1, 1, ScsAlgo::kPeel);
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.significance, 3.0);
  EXPECT_EQ(r.community.Size(), 1u);
}

TEST(EdgeCaseTest, StarGraphHasNoButterflies) {
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> t;
  for (uint32_t j = 0; j < 10; ++j) t.push_back({0, j, 1.0});
  BipartiteGraph g = MakeGraph(t);
  EXPECT_EQ(CountButterflies(g), 0u);
  for (uint64_t phi : BitrussNumbers(g)) EXPECT_EQ(phi, 0u);
  EXPECT_TRUE(QueryBitrussCommunity(g, 0, 1).Empty());
  // But the (10,1)-core is the whole star.
  EXPECT_FALSE(ComputeAlphaBetaCore(g, 10, 1).Empty());
  EXPECT_TRUE(ComputeAlphaBetaCore(g, 11, 1).Empty());
}

TEST(EdgeCaseTest, PathGraphUnravelsAtTwoTwo) {
  // u0—v0—u1—v1—u2: a path; every (2,2)-core is empty.
  BipartiteGraph g =
      MakeGraph({{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {2, 1, 1}});
  EXPECT_TRUE(ComputeAlphaBetaCore(g, 2, 2).Empty());
  EXPECT_EQ(Degeneracy(g), 1u);
  // (1,2)-core keeps the middle: v0 and v1 need two upper neighbours.
  const CoreResult c = ComputeAlphaBetaCore(g, 1, 2);
  EXPECT_EQ(c.num_lower, 2u);
  EXPECT_EQ(c.num_upper, 3u);
}

TEST(EdgeCaseTest, AlphaOffsetsAtExtremeParameters) {
  BipartiteGraph g = testing::RandomWeightedGraph(15, 15, 80, 91);
  // α beyond the maximal upper degree: everything gets offset 0.
  const std::vector<uint32_t> sa =
      ComputeAlphaOffsets(g, g.MaxUpperDegree() + 1);
  for (uint32_t x : sa) EXPECT_EQ(x, 0u);
  // α = 1: every non-isolated vertex has offset >= 1.
  const std::vector<uint32_t> sa1 = ComputeAlphaOffsets(g, 1);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 0) {
      EXPECT_GE(sa1[v], 1u) << v;
    }
  }
}

TEST(EdgeCaseTest, PeelToSignificantStabilizesInvalidInput) {
  // Input violating the degree constraints: the kernel must first peel to
  // stability, then maximise. Here (u0,v0) + (u0,v1) + (u1,v0): with
  // (2,1) thresholds, u1 (degree 1... wait u1 has degree 1 < 2) and its
  // edge must be peeled away before weight maximisation.
  BipartiteGraph g = MakeGraph({{0, 0, 5.0}, {0, 1, 9.0}, {1, 0, 1.0}});
  LocalGraph lg(g, {0, 1, 2});
  QueryScratch scratch;
  ScsResult r;
  PeelToSignificantInto(lg, /*q=*/0, /*alpha=*/2, /*beta=*/1, &r, nullptr,
                        scratch);
  ASSERT_TRUE(r.found);
  // u1's weak edge is gone in stabilisation; R = u0's two edges, f = 5.
  EXPECT_EQ(r.community.Size(), 2u);
  EXPECT_DOUBLE_EQ(r.significance, 5.0);
}

TEST(EdgeCaseTest, QueryWithZeroParametersIsEmpty) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}});
  const DeltaIndex index = DeltaIndex::Build(g);
  EXPECT_TRUE(index.QueryCommunity(0, 0, 1).Empty());
  EXPECT_TRUE(index.QueryCommunity(0, 1, 0).Empty());
}

TEST(EdgeCaseTest, OnlineQueryOutOfRangeVertex) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}});
  EXPECT_TRUE(QueryCommunityOnline(g, 99, 1, 1).Empty());
}

TEST(EdgeCaseTest, KonectFourColumnFormat) {
  // KONECT "out.*" files may carry a timestamp as the fourth column.
  const std::string path = ::testing::TempDir() + "/abcs_konect4.txt";
  {
    std::ofstream out(path);
    out << "% bip weighted posweighted\n";
    out << "1 1 4.5 1094763304\n";
    out << "2 1 3.0 1094763305\n";
  }
  BipartiteGraph g;
  ASSERT_TRUE(LoadEdgeList(path, &g, /*zero_based=*/false).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(g.GetEdge(0).w, 4.5);
  std::remove(path.c_str());
}

TEST(EdgeCaseTest, LoaderSurvivesGarbageInput) {
  // Fuzz-lite: random byte soup and near-miss formats must produce a
  // Status (never crash, never a malformed graph).
  const std::string path = ::testing::TempDir() + "/abcs_fuzz.txt";
  const char* payloads[] = {
      "",                                  // empty file
      "% only a comment\n",                // no edges
      "1 2 3 4 5 6 7 8\n",                 // extra columns (ok: ignored)
      "-5 2\n",                            // negative id (0-based mode)
      "1 notanumber\n",                    // malformed second field
      "999999999999999999999 1\n",         // overflowing id
      "\n\n\n",                            // blank lines
      "1\n",                               // missing second field
      "2 2 nan\n",                         // weird weight token
  };
  for (const char* payload : payloads) {
    {
      std::ofstream out(path);
      out << payload;
    }
    BipartiteGraph g;
    const Status st = LoadEdgeList(path, &g, /*zero_based=*/true);
    if (st.ok()) {
      // Whatever loaded must be internally consistent.
      uint64_t arcs = 0;
      for (VertexId v = 0; v < g.NumVertices(); ++v) arcs += g.Degree(v);
      EXPECT_EQ(arcs, 2ull * g.NumEdges());
    }
  }
  std::remove(path.c_str());
}

TEST(EdgeCaseTest, CompleteBipartiteEverythingIsOneCommunity) {
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> t;
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = 0; j < 5; ++j) {
      t.push_back({i, j, static_cast<Weight>(1 + ((i * 5 + j) % 7))});
    }
  }
  BipartiteGraph g = MakeGraph(t);
  const DeltaIndex index = DeltaIndex::Build(g);
  EXPECT_EQ(index.delta(), 5u);
  const Subgraph c = index.QueryCommunity(0, 5, 5);
  EXPECT_EQ(c.Size(), 25u);
  // At (5,5) every vertex is needed, so R keeps all edges and f = min w.
  const ScsResult r = ScsQuery(g, c, 0, 5, 5, ScsAlgo::kPeel);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.community.Size(), 25u);
  EXPECT_DOUBLE_EQ(r.significance, 1.0);
}

TEST(EdgeCaseTest, DuplicateEdgeWeightsAllBatchesAtOnce) {
  // Every weight identical except one heavier edge that cannot stand
  // alone: R must still be the whole community (max f is the common
  // weight, since dropping to only the heavy edge breaks the degrees).
  BipartiteGraph g = MakeGraph(
      {{0, 0, 2.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 9.0}});
  const DeltaIndex index = DeltaIndex::Build(g);
  const Subgraph c = index.QueryCommunity(0, 2, 2);
  ASSERT_EQ(c.Size(), 4u);
  const ScsResult r = ScsQuery(g, c, 0, 2, 2, ScsAlgo::kPeel);
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.significance, 2.0);
  EXPECT_EQ(r.community.Size(), 4u);
}

}  // namespace
}  // namespace abcs
