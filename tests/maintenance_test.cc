#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "abcore/offsets.h"
#include "core/delta_index.h"
#include "core/maintenance.h"
#include "core/online_query.h"
#include "graph/generators.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::MakeGraph;
using ::abcs::testing::RandomWeightedGraph;

/// Checks the dynamic index's offset tables and δ against a full
/// recomputation on the exported snapshot.
void ExpectConsistentWithRebuild(const DynamicDeltaIndex& dyn,
                                 const std::string& context) {
  const BipartiteGraph snapshot = dyn.ExportGraph();
  const BicoreDecomposition ref = ComputeBicoreDecomposition(snapshot);
  ASSERT_EQ(dyn.delta(), ref.delta) << context;
  for (uint32_t tau = 1; tau <= ref.delta; ++tau) {
    for (VertexId v = 0; v < snapshot.NumVertices(); ++v) {
      ASSERT_EQ(dyn.OffsetAlpha(tau, v), ref.sa(tau, v))
          << context << " sa tau=" << tau << " v=" << v;
      ASSERT_EQ(dyn.OffsetBeta(tau, v), ref.sb(tau, v))
          << context << " sb tau=" << tau << " v=" << v;
    }
  }
}

TEST(MaintenanceTest, FreshIndexMatchesStaticDecomposition) {
  BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 1);
  DynamicDeltaIndex dyn(g);
  ExpectConsistentWithRebuild(dyn, "fresh");
  EXPECT_EQ(dyn.NumAliveEdges(), g.NumEdges());
}

TEST(MaintenanceTest, InsertRejectsInvalidEndpoints) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}, {1, 1, 1.0}});
  DynamicDeltaIndex dyn(g);
  // (lower, lower) and duplicate edges are rejected.
  EXPECT_FALSE(dyn.InsertEdge(2, 3, 1.0).ok());
  EXPECT_FALSE(dyn.InsertEdge(0, 2, 1.0).ok());  // already exists
  EXPECT_FALSE(dyn.InsertEdge(0, 99, 1.0).ok());
  EXPECT_FALSE(dyn.RemoveEdge(0, 3).ok());  // absent
  EXPECT_EQ(dyn.NumAliveEdges(), 2u);
}

TEST(MaintenanceTest, SingleInsertUpdatesOffsets) {
  // Start with a 2×2 biclique missing one edge; inserting it raises δ
  // from 1 to 2.
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  DynamicDeltaIndex dyn(g);
  EXPECT_EQ(dyn.delta(), 1u);
  ASSERT_TRUE(dyn.InsertEdge(1, g.LowerId(1), 1.0).ok());
  EXPECT_EQ(dyn.delta(), 2u);
  ExpectConsistentWithRebuild(dyn, "after insert");
}

TEST(MaintenanceTest, SingleRemoveUpdatesOffsetsAndDelta) {
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) triples.push_back({i, j, 1.0});
  }
  BipartiteGraph g = MakeGraph(triples);  // K_{3,3}, δ = 3
  DynamicDeltaIndex dyn(g);
  EXPECT_EQ(dyn.delta(), 3u);
  ASSERT_TRUE(dyn.RemoveEdge(0, g.LowerId(0)).ok());
  EXPECT_EQ(dyn.delta(), 2u);
  ExpectConsistentWithRebuild(dyn, "after remove");
}

class MaintenanceStreamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintenanceStreamTest, RandomUpdateStreamStaysConsistent) {
  BipartiteGraph g = RandomWeightedGraph(14, 14, 70, GetParam());
  DynamicDeltaIndex dyn(g);
  Rng rng(GetParam() * 17 + 3);

  std::set<std::pair<VertexId, VertexId>> present;
  for (const Edge& e : g.Edges()) present.insert({e.u, e.v});

  for (int step = 0; step < 60; ++step) {
    const bool insert = present.empty() || rng.NextBounded(100) < 55;
    if (insert) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(14));
      const VertexId v =
          static_cast<VertexId>(14 + rng.NextBounded(14));
      if (present.count({u, v})) continue;
      ASSERT_TRUE(dyn.InsertEdge(u, v, 1.0 + rng.NextBounded(5)).ok());
      present.insert({u, v});
    } else {
      auto it = present.begin();
      std::advance(it, rng.NextBounded(present.size()));
      ASSERT_TRUE(dyn.RemoveEdge(it->first, it->second).ok());
      present.erase(it);
    }
    ExpectConsistentWithRebuild(dyn,
                                "step " + std::to_string(step) +
                                    (insert ? " (insert)" : " (remove)"));
  }
  EXPECT_EQ(dyn.NumAliveEdges(), present.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceStreamTest,
                         ::testing::Values(401, 402, 403, 404, 405));

TEST(MaintenanceTest, SkewedTopologyUpdateStream) {
  // Chung–Lu hubs give the fixed-side offsets room to jump several levels
  // per update — the regime that broke naive ±1 maintenance.
  BipartiteGraph topo;
  ASSERT_TRUE(GenChungLuBipartite(25, 25, 160, 1.9, 2.4, 7, &topo).ok());
  DynamicDeltaIndex dyn(topo);
  Rng rng(99);
  std::set<std::pair<VertexId, VertexId>> present;
  for (const Edge& e : topo.Edges()) present.insert({e.u, e.v});
  for (int step = 0; step < 40; ++step) {
    if (rng.NextBounded(2) == 0) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(25));
      const VertexId v = static_cast<VertexId>(25 + rng.NextBounded(25));
      if (present.count({u, v})) continue;
      ASSERT_TRUE(dyn.InsertEdge(u, v, 1.0).ok());
      present.insert({u, v});
    } else if (!present.empty()) {
      auto it = present.begin();
      std::advance(it, rng.NextBounded(present.size()));
      ASSERT_TRUE(dyn.RemoveEdge(it->first, it->second).ok());
      present.erase(it);
    }
    ExpectConsistentWithRebuild(dyn, "skewed step " + std::to_string(step));
  }
}

// What a publish serves: I_δ over the exported graph, built from the
// maintained decomposition. Both paths number edges by the exported graph,
// so the communities must agree edge id for edge id.
TEST(MaintenanceTest, QueryMatchesOnlineOnSnapshot) {
  BipartiteGraph g = RandomWeightedGraph(18, 18, 120, 11);
  DynamicDeltaIndex dyn(g);
  Rng rng(77);
  // Mutate a bit first.
  for (int i = 0; i < 15; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(18));
    const VertexId v = static_cast<VertexId>(18 + rng.NextBounded(18));
    (void)dyn.InsertEdge(u, v, 2.0);  // may fail if duplicate — fine
  }
  const BipartiteGraph snapshot = dyn.ExportGraph();
  const BicoreDecomposition decomp = dyn.ExportDecomposition();
  const DeltaIndex index = DeltaIndex::Build(snapshot, &decomp);
  const auto sorted = [](Subgraph c) {
    std::sort(c.edges.begin(), c.edges.end());
    return c.edges;
  };
  for (int trial = 0; trial < 25; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(36));
    const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    EXPECT_EQ(sorted(index.QueryCommunity(q, alpha, beta)),
              sorted(QueryCommunityOnline(snapshot, q, alpha, beta)))
        << "q=" << q << " a=" << alpha << " b=" << beta;
  }
}

TEST(MaintenanceTest, InsertThenRemoveIsIdempotentOnOffsets) {
  BipartiteGraph g = RandomWeightedGraph(16, 16, 100, 13);
  DynamicDeltaIndex dyn(g);
  const BicoreDecomposition before = ComputeBicoreDecomposition(g);
  // Pick a non-edge.
  VertexId u = 0, v = 0;
  for (u = 0; u < 16 && v == 0; ++u) {
    for (uint32_t j = 0; j < 16; ++j) {
      bool exists = false;
      for (const Arc& a : g.Neighbors(u)) {
        if (a.to == g.LowerId(j)) exists = true;
      }
      if (!exists) {
        v = g.LowerId(j);
        break;
      }
    }
    if (v != 0) break;
  }
  ASSERT_NE(v, 0u);
  ASSERT_TRUE(dyn.InsertEdge(u, v, 3.0).ok());
  ASSERT_TRUE(dyn.RemoveEdge(u, v).ok());
  ASSERT_EQ(dyn.delta(), before.delta);
  for (uint32_t tau = 1; tau <= before.delta; ++tau) {
    for (VertexId x = 0; x < g.NumVertices(); ++x) {
      EXPECT_EQ(dyn.OffsetAlpha(tau, x), before.sa(tau, x));
      EXPECT_EQ(dyn.OffsetBeta(tau, x), before.sb(tau, x));
    }
  }
}

}  // namespace
}  // namespace abcs
