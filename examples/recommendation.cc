// Personalized recommendation (paper §I, "Applications"): on a user–movie
// rating network, the significant (α,β)-community of a query user yields
//  - friend candidates: users who give common high ratings with the query,
//  - movie candidates: community movies the query user has not rated yet.
//
// The graph is the planted-community MovieLens-like generator; the query
// user is a fan of "comedy" (genre 0).

#include <algorithm>
#include <cstdio>
#include <set>

#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/generators.h"
#include "models/metrics.h"

int main() {
  abcs::PlantedSpec spec;
  spec.num_genres = 3;
  spec.blocks_per_genre = 2;
  spec.users_per_block = 80;
  spec.movies_per_block = 50;
  spec.binge_users_per_genre = 25;
  spec.casual_users = 800;
  spec.seed = 7;
  abcs::PlantedGraph pg = abcs::MakePlantedCommunities(spec);
  abcs::PlantedGraph slice = abcs::ExtractGenreSlice(pg, /*genre=*/0);
  const abcs::BipartiteGraph& g = slice.graph;
  std::printf("comedy slice: %u users, %u movies, %u ratings\n", g.NumUpper(),
              g.NumLower(), g.NumEdges());

  // Query: the first fan of comedy block 0.
  abcs::VertexId q = abcs::kInvalidVertex;
  for (uint32_t u = 0; u < g.NumUpper(); ++u) {
    if (slice.user_block[u] == 0) {
      q = u;
      break;
    }
  }
  if (q == abcs::kInvalidVertex) {
    std::fprintf(stderr, "no fan found\n");
    return 1;
  }

  const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g);
  const uint32_t t = 25;  // α = β = 25: engaged users, popular movies
  const abcs::Subgraph community = index.QueryCommunity(q, t, t);
  const abcs::ScsResult sc =
      abcs::ScsQuery(g, community, q, t, t, abcs::ScsAlgo::kPeel);
  if (!sc.found) {
    std::fprintf(stderr, "no significant community at t=%u\n", t);
    return 1;
  }

  const abcs::SubgraphStats core_stats = abcs::ComputeStats(g, community);
  const abcs::SubgraphStats sc_stats = abcs::ComputeStats(g, sc.community);
  std::printf("(%u,%u)-community: %zu ratings, avg %.2f, min %.1f\n", t, t,
              community.Size(), core_stats.avg_weight,
              core_stats.min_weight);
  std::printf("significant community: %zu ratings, avg %.2f, f(R) = %.1f\n",
              sc.community.Size(), sc_stats.avg_weight, sc.significance);
  std::printf("dislike users: %u in core vs %u in SC\n",
              abcs::CountDislikeUsers(g, community, t),
              abcs::CountDislikeUsers(g, sc.community, t));

  // Friend candidates: community users sharing ≥ 5 highly-rated movies
  // with q. Movie candidates: community movies q has not rated.
  std::set<abcs::VertexId> q_movies;
  for (const abcs::Arc& a : g.Neighbors(q)) {
    if (g.GetWeight(a.eid) >= 4.0) q_movies.insert(a.to);
  }
  std::set<abcs::VertexId> sc_users, movie_candidates;
  for (abcs::EdgeId e : sc.community.edges) {
    const abcs::Edge& ed = g.GetEdge(e);
    if (ed.u != q) sc_users.insert(ed.u);
    if (!q_movies.count(ed.v)) movie_candidates.insert(ed.v);
  }
  uint32_t friends = 0;
  for (abcs::VertexId u : sc_users) {
    uint32_t shared = 0;
    for (const abcs::Arc& a : g.Neighbors(u)) {
      if (g.GetWeight(a.eid) >= 4.0 && q_movies.count(a.to)) ++shared;
    }
    if (shared >= 5) ++friends;
  }
  std::printf("friend candidates (≥5 shared high ratings): %u\n", friends);
  std::printf("movie candidates (unseen community movies): %zu\n",
              movie_candidates.size());
  return 0;
}
