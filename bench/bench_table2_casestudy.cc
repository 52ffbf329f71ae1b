// Table II: case-study statistics for a single query on the comedy slice
// (α = β = 45): |U|, |M|, Ravg, Rmin, Mavg, and the Jaccard vertex
// similarity to SC, per community model.

#include <cstdio>

#include "bench_common.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/generators.h"
#include "models/biclique.h"
#include "models/bitruss.h"
#include "models/cstar.h"
#include "models/metrics.h"

int main() {
  abcs::PlantedSpec spec;
  spec.seed = 20210416;  // same instance as bench_fig6_quality
  abcs::PlantedGraph pg = abcs::MakePlantedCommunities(spec);
  abcs::PlantedGraph slice = abcs::ExtractGenreSlice(pg, /*genre=*/0);
  const abcs::BipartiteGraph& g = slice.graph;

  abcs::VertexId q = abcs::kInvalidVertex;
  for (uint32_t u = 0; u < g.NumUpper(); ++u) {
    if (slice.user_block[u] == 0) {
      q = u;
      break;
    }
  }
  if (q == abcs::kInvalidVertex) return 1;
  const uint32_t t = 45;

  const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g);
  const abcs::Subgraph core = index.QueryCommunity(q, t, t);
  const abcs::ScsResult sc =
      abcs::ScsQuery(g, core, q, t, t, abcs::ScsAlgo::kPeel);
  const abcs::Subgraph bitruss =
      abcs::QueryBitrussCommunity(g, q, static_cast<uint64_t>(t) * t);
  abcs::Subgraph biclique = abcs::QueryBicliqueCommunity(g, q, 45);
  if (biclique.Empty()) biclique = abcs::QueryBicliqueCommunity(g, q, 1);
  const abcs::Subgraph cstar = abcs::QueryCStarCommunity(g, q, 4.0);

  std::printf("Table II: statistics of query results, q=%u, α=β=%u\n", q, t);
  std::printf("%-12s %8s %8s %8s %8s %8s %8s\n", "model", "|U|", "|M|",
              "Ravg", "Rmin", "Mavg", "Sim(%)");
  struct Row {
    const char* model;
    const abcs::Subgraph* sub;
  };
  const Row rows[] = {{"SC", &sc.community},
                      {"(a,b)-core", &core},
                      {"bitruss", &bitruss},
                      {"biclique", &biclique},
                      {"C4*", &cstar}};
  for (const Row& row : rows) {
    if (row.sub->Empty()) {
      std::printf("%-12s   (empty)\n", row.model);
      continue;
    }
    const abcs::SubgraphStats stats = abcs::ComputeStats(g, *row.sub);
    std::printf("%-12s %8u %8u %8.2f %8.1f %8.2f %8.2f\n", row.model,
                stats.num_upper, stats.num_lower, stats.avg_weight,
                stats.min_weight, abcs::AverageUpperDegree(g, *row.sub),
                100.0 * abcs::JaccardVertexSimilarity(g, *row.sub,
                                                      sc.community));
  }
  return 0;
}
