#ifndef ABCS_TESTS_TEST_UTIL_H_
#define ABCS_TESTS_TEST_UTIL_H_

#include <tuple>
#include <utility>
#include <vector>

#include "abcore/offsets.h"
#include "common/rng.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace abcs::testing {

/// Builds a graph from (upper, lower, weight) triples with layer-local ids.
inline BipartiteGraph MakeGraph(
    const std::vector<std::tuple<uint32_t, uint32_t, Weight>>& triples) {
  GraphBuilder builder;
  for (const auto& [u, v, w] : triples) builder.AddEdge(u, v, w);
  BipartiteGraph g;
  Status st = builder.Build(&g);
  if (!st.ok()) std::abort();
  return g;
}

/// Random bipartite graph whose weights are drawn from a *small* integer
/// set {1..max_weight} so that equal-weight batches (the tricky SCS code
/// path) occur frequently.
inline BipartiteGraph RandomWeightedGraph(uint32_t nu, uint32_t nl,
                                          uint32_t m, uint64_t seed,
                                          uint32_t max_weight = 5) {
  BipartiteGraph topo;
  Status st = GenErdosRenyiBipartite(nu, nl, m, seed, &topo);
  if (!st.ok()) std::abort();
  Rng rng(seed ^ 0x5ca1ab1eULL);
  std::vector<Weight> w(topo.NumEdges());
  for (auto& x : w) x = 1.0 + static_cast<double>(rng.NextBounded(max_weight));
  return topo.WithWeights(w);
}

/// The paper's running example (Figure 2): u1..u4 complete to v1..v4 with
/// w(u_i, v_j) = 5i − j, plus a long chain of degree-2 vertices that
/// unravels out of every (2,2)-core. The significant (2,2)-community of u3
/// is {(u3,v1), (u3,v2), (u4,v1), (u4,v2)} with f(R) = 13.
inline BipartiteGraph PaperFigure2Graph(uint32_t chain = 995) {
  GraphBuilder builder;
  for (uint32_t i = 1; i <= 4; ++i) {
    for (uint32_t j = 1; j <= 4; ++j) {
      builder.AddEdge(i - 1, j - 1, 5.0 * i - j);
    }
  }
  // Chain: u_k — v_k and u_k — v_{k+1} for k = 5..4+chain.
  for (uint32_t k = 5; k < 5 + chain; ++k) {
    builder.AddEdge(k - 1, k - 1, 1000.0 + k);
    builder.AddEdge(k - 1, k, 2000.0 + k);
  }
  BipartiteGraph g;
  Status st = builder.Build(&g);
  if (!st.ok()) std::abort();
  return g;
}

/// A graph with its decomposition and the I_δ and I_v built from it: the
/// unit a `serve::Server` serves. Not copyable, since both indexes point
/// at `graph`.
struct IndexedGraph {
  BipartiteGraph graph;
  BicoreDecomposition decomp;
  DeltaIndex delta;
  BicoreIndex bicore;

  explicit IndexedGraph(BipartiteGraph g)
      : graph(std::move(g)),
        decomp(ComputeBicoreDecomposition(graph)),
        delta(DeltaIndex::Build(graph, &decomp)),
        bicore(BicoreIndex::Build(graph, &decomp)) {}
  IndexedGraph(const IndexedGraph&) = delete;
  IndexedGraph& operator=(const IndexedGraph&) = delete;
};

}  // namespace abcs::testing

#endif  // ABCS_TESTS_TEST_UTIL_H_
