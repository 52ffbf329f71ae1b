// Quickstart: build a small weighted bipartite graph, index it, retrieve an
// (α,β)-community and its significant (α,β)-community.
//
// This reproduces the paper's Figure 1 user–movie network: querying "Eric"
// with α = 3, β = 2 yields the whole left-hand community under the plain
// (α,β)-core model, while the significant community drops the weak links
// ("Alien" and "Taylor").

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/graph_builder.h"

namespace {

void PrintCommunity(const abcs::BipartiteGraph& g,
                    const std::vector<std::string>& users,
                    const std::vector<std::string>& movies,
                    const abcs::Subgraph& sub, const char* title) {
  std::printf("%s (%zu edges):\n", title, sub.Size());
  for (abcs::VertexId v : abcs::SubgraphVertexSet(g, sub)) {
    if (g.IsUpper(v)) {
      std::printf("  user  %s\n", users[v].c_str());
    } else {
      std::printf("  movie %s\n", movies[v - g.NumUpper()].c_str());
    }
  }
}

}  // namespace

int main() {
  // Figure 1 of the paper: 6 users × 6 movies with ratings.
  const std::vector<std::string> users = {"Taylor", "Kane", "Eric",
                                          "Andy",   "Emma", "Kelly"};
  const std::vector<std::string> movies = {"X-Men",   "Alien",    "A.I.",
                                           "Titanic", "Star Wars", "Avatar"};
  // (user, movie, rating) — the left community plus the right-hand pair.
  const std::vector<std::tuple<uint32_t, uint32_t, double>> ratings = {
      {0, 0, 2}, {0, 1, 1}, {0, 2, 2}, {0, 4, 2},              // Taylor
      {1, 0, 4}, {1, 1, 2}, {1, 2, 4}, {1, 4, 5}, {1, 5, 4},   // Kane
      {2, 0, 4}, {2, 1, 4}, {2, 2, 5}, {2, 4, 4}, {2, 5, 4},   // Eric
      {3, 0, 5}, {3, 2, 4}, {3, 5, 4},                         // Andy
      {4, 3, 3}, {4, 5, 3},                                    // Emma
      {5, 3, 4}, {5, 4, 3},                                    // Kelly
  };

  abcs::GraphBuilder builder;
  for (const auto& [u, m, r] : ratings) builder.AddEdge(u, m, r);
  abcs::BipartiteGraph g;
  abcs::Status st = builder.Build(&g);
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // One-time index construction: O(δ·m) time and space.
  const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g);
  std::printf("graph: %u users, %u movies, %u ratings, degeneracy=%u\n\n",
              g.NumUpper(), g.NumLower(), g.NumEdges(), index.delta());

  // Step 1: the (3,2)-community of Eric — optimal-time retrieval.
  const abcs::VertexId eric = 2;
  const abcs::Subgraph community = index.QueryCommunity(eric, 3, 2);
  PrintCommunity(g, users, movies, community, "(3,2)-community of Eric");

  // Step 2: maximise significance within it.
  const abcs::ScsResult sc =
      abcs::ScsQuery(g, community, eric, 3, 2, abcs::ScsAlgo::kPeel);
  std::printf("\nsignificance f(R) = %.1f\n", sc.significance);
  PrintCommunity(g, users, movies, sc.community,
                 "significant (3,2)-community of Eric");
  return 0;
}
