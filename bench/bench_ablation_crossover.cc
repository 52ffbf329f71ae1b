// Ablation A3: the SCS-Peel vs SCS-Expand crossover. The paper observes
// (Fig. 13 discussion) that Expand wins when size(R) ≪ size(C_{α,β}(q))
// and Peel wins when R stays close to C. We control size(R)/size(C)
// directly by planting a high-weight block of varying size inside a large
// uniform community and report both times plus the measured ratio.

#include <cstdio>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/graph_builder.h"

namespace {

abcs::BipartiteGraph MakePlantedBlockGraph(uint32_t blob_vertices,
                                           uint32_t block_side,
                                           uint64_t seed) {
  abcs::GraphBuilder builder;
  abcs::Rng rng(seed);
  // Dense-ish low-weight blob: every upper vertex gets ~10 random edges.
  for (uint32_t u = 0; u < blob_vertices; ++u) {
    for (int k = 0; k < 10; ++k) {
      builder.AddEdge(u,
                      static_cast<uint32_t>(rng.NextBounded(blob_vertices)),
                      1.0 + rng.NextBounded(8));
    }
  }
  // High-weight complete block (weight 1000) in the corner.
  for (uint32_t i = 0; i < block_side; ++i) {
    for (uint32_t j = 0; j < block_side; ++j) {
      builder.AddEdge(i, j, 1000.0);
    }
  }
  abcs::BipartiteGraph g;
  abcs::Status st = builder.Build(&g);
  if (!st.ok()) std::abort();
  return g;
}

}  // namespace

int main() {
  const uint32_t reps = abcs::bench::NumQueries();
  std::printf(
      "Ablation A3: Peel vs Expand crossover, planted |R| inside a 60k-edge "
      "community (α=β=5, %u reps)\n",
      reps);
  std::printf("%10s %10s %10s %12s %12s %12s %10s %8s\n", "block", "|R|",
              "|C|", "peel(s)", "expand(s)", "auto(s)", "peel/exp", "plan");
  abcs::QueryScratch scratch;
  abcs::ScsWorkspace ws;
  for (uint32_t block : {8u, 16u, 32u, 64u, 128u, 256u}) {
    const abcs::BipartiteGraph g = MakePlantedBlockGraph(6000, block, 99);
    const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g);
    const abcs::VertexId q = 0;
    const abcs::Subgraph c = index.QueryCommunity(q, 5, 5);
    if (c.Empty()) {
      std::printf("%10u   (empty community)\n", block);
      continue;
    }
    double peel_s = 0, expand_s = 0, auto_s = 0;
    std::size_t r_size = 0;
    abcs::ScsStats auto_stats;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      abcs::Timer timer;
      const abcs::ScsResult rp =
          abcs::ScsQuery(g, c, q, 5, 5, abcs::ScsAlgo::kPeel, {}, nullptr,
                         &scratch, &ws);
      peel_s += timer.Seconds();
      timer.Reset();
      const abcs::ScsResult re =
          abcs::ScsQuery(g, c, q, 5, 5, abcs::ScsAlgo::kExpand, {}, nullptr,
                         &scratch, &ws);
      expand_s += timer.Seconds();
      timer.Reset();
      const abcs::ScsResult ra = abcs::ScsQuery(
          g, c, q, 5, 5, abcs::ScsAlgo::kAuto, {}, &auto_stats, &scratch, &ws);
      auto_s += timer.Seconds();
      if (rp.significance != re.significance ||
          rp.significance != ra.significance) {
        std::fprintf(stderr, "MISMATCH at block=%u\n", block);
        return 1;
      }
      r_size = rp.community.Size();
    }
    std::printf("%10u %10zu %10zu %12.3e %12.3e %12.3e %9.2fx %8s\n", block,
                r_size, c.Size(), peel_s / reps, expand_s / reps,
                auto_s / reps, peel_s / (expand_s > 0 ? expand_s : 1e-12),
                abcs::ScsAlgoName(auto_stats.algo_used));
  }
  return 0;
}
