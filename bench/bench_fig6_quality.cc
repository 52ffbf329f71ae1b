// Figure 6: community quality on the MovieLens-like planted graph (comedy
// slice), varying α = β = t ∈ {45, 50, 55}.
//  (a) bipartite graph density d = |E|/sqrt(|U||L|), annotated with the
//      average rating;
//  (b) percentage of dislike users (users with < 0.6α ratings ≥ 4).
// Models: SC (significant community), (α,β)-core community, k-bitruss
// (k = α·β), maximal biclique around q, and C4* (movies with avg ≥ 4).
//
// Substitution note: the paper's biclique row uses an exact enumeration
// with a ≥45-per-layer constraint on MovieLens 25M; here the greedy
// maximal biclique targets the planted 50×50 dense core (falling back to
// an unconstrained maximal biclique if the ≥45 target is missed).

#include <cstdio>

#include "bench_common.h"
#include "core/delta_index.h"
#include "core/query_scratch.h"
#include "core/scs_auto.h"
#include "graph/generators.h"
#include "models/biclique.h"
#include "models/bitruss.h"
#include "models/cstar.h"
#include "models/metrics.h"

namespace {

struct Row {
  const char* model;
  abcs::Subgraph sub;
};

void Report(const abcs::BipartiteGraph& g, uint32_t t,
            const std::vector<Row>& rows) {
  std::printf("t = %u\n", t);
  std::printf("  %-12s %10s %8s %8s %10s %10s\n", "model", "density",
              "Ravg", "Rmin", "dislike%", "|E|");
  abcs::QueryScratch scratch;  // stamp-dedup'd stats across all rows
  for (const Row& row : rows) {
    if (row.sub.Empty()) {
      std::printf("  %-12s      (empty)\n", row.model);
      continue;
    }
    const abcs::SubgraphStats stats =
        abcs::ComputeStats(g, row.sub, &scratch);
    const uint32_t dislike = abcs::CountDislikeUsers(g, row.sub, t);
    const double pct =
        stats.num_upper == 0
            ? 0.0
            : 100.0 * static_cast<double>(dislike) / stats.num_upper;
    std::printf("  %-12s %10.2f %8.2f %8.1f %9.1f%% %10zu\n", row.model,
                abcs::BipartiteDensity(g, row.sub), stats.avg_weight,
                stats.min_weight, pct, row.sub.Size());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  abcs::PlantedSpec spec;  // defaults sized for t up to 55
  spec.seed = 20210416;
  abcs::PlantedGraph pg = abcs::MakePlantedCommunities(spec);
  abcs::PlantedGraph slice = abcs::ExtractGenreSlice(pg, /*genre=*/0);
  const abcs::BipartiteGraph& g = slice.graph;
  std::printf(
      "Figure 6: community quality on the comedy slice (%u users, %u "
      "movies, %u ratings)\n\n",
      g.NumUpper(), g.NumLower(), g.NumEdges());

  // q: first fan of comedy block 0.
  abcs::VertexId q = abcs::kInvalidVertex;
  for (uint32_t u = 0; u < g.NumUpper(); ++u) {
    if (slice.user_block[u] == 0) {
      q = u;
      break;
    }
  }
  if (q == abcs::kInvalidVertex) return 1;

  const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g);
  const abcs::Subgraph cstar = abcs::QueryCStarCommunity(g, q, 4.0);

  for (uint32_t t : {45u, 50u, 55u}) {
    const abcs::Subgraph core = index.QueryCommunity(q, t, t);
    const abcs::ScsResult sc =
        abcs::ScsQuery(g, core, q, t, t, abcs::ScsAlgo::kPeel);
    const abcs::Subgraph bitruss =
        abcs::QueryBitrussCommunity(g, q, static_cast<uint64_t>(t) * t);
    abcs::Subgraph biclique = abcs::QueryBicliqueCommunity(g, q, 45);
    if (biclique.Empty()) biclique = abcs::QueryBicliqueCommunity(g, q, 1);
    Report(g, t,
           {{"SC", sc.community},
            {"(a,b)-core", core},
            {"bitruss", bitruss},
            {"biclique", biclique},
            {"C4*", cstar}});
  }
  return 0;
}
