#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "graph/bipartite_graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::MakeGraph;

TEST(BipartiteGraphTest, EmptyGraph) {
  BipartiteGraph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilderTest, BasicConstruction) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}});
  EXPECT_EQ(g.NumUpper(), 2u);
  EXPECT_EQ(g.NumLower(), 2u);
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.IsUpper(0));
  EXPECT_TRUE(g.IsUpper(1));
  EXPECT_FALSE(g.IsUpper(2));
  EXPECT_EQ(g.LowerId(0), 2u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 2u);
  EXPECT_EQ(g.Degree(3), 1u);
}

TEST(GraphBuilderTest, EdgeIdsSharedAcrossArcs) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.5}, {0, 1, 2.5}});
  // Every arc's eid must resolve to an edge containing its endpoint.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      const Edge& e = g.GetEdge(a.eid);
      EXPECT_TRUE(e.u == v || e.v == v);
      EXPECT_TRUE(e.u == a.to || e.v == a.to);
    }
  }
  EXPECT_DOUBLE_EQ(g.GetWeight(0), 1.5);
}

TEST(GraphBuilderTest, AdjacencyIsSortedByNeighbor) {
  // The biclique model relies on sorted adjacency for binary search.
  BipartiteGraph g = testing::RandomWeightedGraph(30, 40, 200, 7);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto nbrs = g.Neighbors(v);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1].to, nbrs[i].to);
    }
  }
}

TEST(GraphBuilderTest, DuplicateKeepMax) {
  GraphBuilder b;
  b.AddEdge(0, 0, 2.0);
  b.AddEdge(0, 0, 5.0);
  b.AddEdge(0, 0, 3.0);
  BipartiteGraph g;
  ASSERT_TRUE(b.Build(&g, GraphBuilder::DuplicatePolicy::kKeepMax).ok());
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.GetWeight(0), 5.0);
}

TEST(GraphBuilderTest, DuplicateSum) {
  GraphBuilder b;
  b.AddEdge(0, 0, 2.0);
  b.AddEdge(0, 0, 5.0);
  BipartiteGraph g;
  ASSERT_TRUE(b.Build(&g, GraphBuilder::DuplicatePolicy::kSum).ok());
  EXPECT_DOUBLE_EQ(g.GetWeight(0), 7.0);
}

TEST(GraphBuilderTest, DuplicateKeepLast) {
  GraphBuilder b;
  b.AddEdge(0, 0, 2.0);
  b.AddEdge(0, 0, 5.0);
  b.AddEdge(0, 0, 3.0);
  BipartiteGraph g;
  ASSERT_TRUE(b.Build(&g, GraphBuilder::DuplicatePolicy::kKeepLast).ok());
  EXPECT_DOUBLE_EQ(g.GetWeight(0), 3.0);
}

TEST(GraphBuilderTest, DuplicateError) {
  GraphBuilder b;
  b.AddEdge(0, 0, 2.0);
  b.AddEdge(0, 0, 5.0);
  BipartiteGraph g;
  Status st = b.Build(&g, GraphBuilder::DuplicatePolicy::kError);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

TEST(GraphBuilderTest, ReserveCreatesIsolatedVertices) {
  GraphBuilder b;
  b.Reserve(5, 7, 1);
  b.AddEdge(0, 0, 1.0);
  BipartiteGraph g;
  ASSERT_TRUE(b.Build(&g).ok());
  EXPECT_EQ(g.NumUpper(), 5u);
  EXPECT_EQ(g.NumLower(), 7u);
  EXPECT_EQ(g.Degree(4), 0u);
}

TEST(GraphBuilderTest, ClearResets) {
  GraphBuilder b;
  b.AddEdge(0, 0, 1.0);
  b.Clear();
  EXPECT_EQ(b.NumPendingEdges(), 0u);
  b.AddEdge(0, 0, 2.0);
  BipartiteGraph g;
  ASSERT_TRUE(b.Build(&g).ok());
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.GetWeight(0), 2.0);
}

TEST(GraphBuilderTest, RefusesIdSpaceOverflow) {
  // The largest uint32_t id used to wrap `u + 1` to 0 and crash Build.
  GraphBuilder b;
  b.AddEdge(0xFFFFFFFFu, 0, 1.0);
  BipartiteGraph g;
  EXPECT_EQ(b.Build(&g).code(), Status::Code::kInvalidArgument);
  // Each layer fits on its own, but not both in one unified id space.
  b.Clear();
  b.AddEdge(0x80000000u, 0x80000000u, 1.0);
  EXPECT_EQ(b.Build(&g).code(), Status::Code::kInvalidArgument);
}

TEST(BipartiteGraphTest, MaxDegrees) {
  BipartiteGraph g =
      MakeGraph({{0, 0, 1}, {0, 1, 1}, {0, 2, 1}, {1, 0, 1}, {2, 0, 1}});
  EXPECT_EQ(g.MaxUpperDegree(), 3u);
  EXPECT_EQ(g.MaxLowerDegree(), 3u);
}

TEST(BipartiteGraphTest, WithWeightsReplacesWeights) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}, {0, 1, 2.0}});
  BipartiteGraph g2 = g.WithWeights({9.0, 8.0});
  EXPECT_DOUBLE_EQ(g2.GetWeight(0), 9.0);
  EXPECT_DOUBLE_EQ(g2.GetWeight(1), 8.0);
  // Topology unchanged; original untouched.
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_DOUBLE_EQ(g.GetWeight(0), 1.0);
}

// -------------------------------------------------------------------- IO --

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/abcs_io_test.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(GraphIoTest, SaveLoadRoundTrip) {
  BipartiteGraph g = testing::RandomWeightedGraph(20, 30, 120, 3);
  ASSERT_TRUE(SaveEdgeList(g, path_).ok());
  BipartiteGraph g2;
  ASSERT_TRUE(LoadEdgeList(path_, &g2, /*zero_based=*/true).ok());
  ASSERT_EQ(g2.NumEdges(), g.NumEdges());
  ASSERT_EQ(g2.NumUpper(), g.NumUpper());
  std::set<std::tuple<VertexId, VertexId, Weight>> a, b;
  for (const Edge& e : g.Edges()) a.insert({e.u, e.v, e.w});
  for (const Edge& e : g2.Edges()) b.insert({e.u, e.v, e.w});
  EXPECT_EQ(a, b);
}

TEST_F(GraphIoTest, KonectOneBasedAndComments) {
  {
    std::ofstream out(path_);
    out << "% bip weighted\n";
    out << "# another comment\n";
    out << "1 1 4.5\n";
    out << "1 2 3.0\n";
    out << "2 1\n";  // missing weight -> 1.0
  }
  BipartiteGraph g;
  ASSERT_TRUE(LoadEdgeList(path_, &g, /*zero_based=*/false).ok());
  EXPECT_EQ(g.NumUpper(), 2u);
  EXPECT_EQ(g.NumLower(), 2u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_DOUBLE_EQ(g.GetEdge(0).w, 4.5);
  EXPECT_DOUBLE_EQ(g.GetEdge(2).w, 1.0);
}

TEST_F(GraphIoTest, MissingFileIsIOError) {
  BipartiteGraph g;
  Status st = LoadEdgeList("/nonexistent/path/graph.txt", &g);
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

TEST_F(GraphIoTest, MalformedLineIsCorruption) {
  {
    std::ofstream out(path_);
    out << "not numbers here\n";
  }
  BipartiteGraph g;
  Status st = LoadEdgeList(path_, &g);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

TEST_F(GraphIoTest, NegativeIdIsCorruption) {
  {
    std::ofstream out(path_);
    out << "0 5 1.0\n";  // 1-based parse makes this -1
  }
  BipartiteGraph g;
  Status st = LoadEdgeList(path_, &g, /*zero_based=*/false);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

// Writes `body` to the test file and expects LoadEdgeList to fail with
// Corruption naming the file and `line`.
void ExpectCorruptionAt(const std::string& path, const std::string& body,
                        bool zero_based, std::size_t line) {
  {
    std::ofstream out(path);
    out << body;
  }
  BipartiteGraph g;
  const Status st = LoadEdgeList(path, &g, zero_based);
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << body;
  EXPECT_NE(st.ToString().find(path + ":" + std::to_string(line)),
            std::string::npos)
      << st.ToString();
}

TEST_F(GraphIoTest, HugeVertexIdIsCorruption) {
  // 2^32 − 1 crashed the CSR fill; ids in [2^32, 2^63) wrapped silently
  // (5000000000 became 705032704).
  ExpectCorruptionAt(path_, "4294967295 0 1.0\n", /*zero_based=*/true, 1);
  ExpectCorruptionAt(path_, "0 0 1.0\n0 4294967295\n", true, 2);
  ExpectCorruptionAt(path_, "5000000000 1 1.0\n", true, 1);
  ExpectCorruptionAt(path_, "% header\n1 5000000000\n", false, 2);
  // Each layer fits, their sum does not.
  ExpectCorruptionAt(path_, "2147483648 2147483648\n", true, 1);
}

TEST_F(GraphIoTest, MalformedWeightIsCorruption) {
  for (const char* weight : {"abc", "nan", "NaN", "inf", "-inf", "1e999",
                             "-1e999", "1.5x", "0x"}) {
    ExpectCorruptionAt(path_, std::string("1 1 2.0\n1 2 ") + weight + "\n",
                       /*zero_based=*/false, 2);
  }
}

TEST_F(GraphIoTest, WellFormedWeightTokensAreAccepted) {
  // Missing weight (1.0), a weight followed by a KONECT timestamp, and a
  // subnormal weight, which must load as the exact value.
  {
    std::ofstream out(path_);
    out << "1 1\n";
    out << "1 2 -2.5 1094763304\n";
    out << "2 1 4.9406564584124654e-324\n";
  }
  BipartiteGraph g;
  ASSERT_TRUE(LoadEdgeList(path_, &g, /*zero_based=*/false).ok());
  ASSERT_EQ(g.NumEdges(), 3u);
  std::set<Weight> weights;
  for (const Edge& e : g.Edges()) weights.insert(e.w);
  EXPECT_EQ(weights, (std::set<Weight>{1.0, -2.5,
                                       4.9406564584124654e-324}));
}

}  // namespace
}  // namespace abcs
