// Table III: SCS running time under different weight distributions on the
// DT-like dataset: AE (all equal), RW (random walk with restart), UF
// (uniform), SK (skew normal). Weights do not change the topology, so δ
// and the index are computed once.

#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/weights.h"

int main() {
  const uint32_t queries = abcs::bench::NumQueries();
  const abcs::bench::PreparedDataset base =
      abcs::bench::Prepare(*abcs::FindDataset("DT"));
  const uint32_t t = abcs::bench::ScaledParam(base.delta(), 0.7);
  const std::vector<abcs::VertexId> qs =
      abcs::bench::SampleCoreVertices(base, t, t, queries, 999);

  std::printf(
      "Table III: SCS running time on DT under weight distributions "
      "(α=β=%u, avg over %u queries, seconds)\n",
      t, queries);
  std::printf("%-12s %12s %12s %12s %12s\n", "algorithm", "AE", "RW", "UF",
              "SK");

  const abcs::WeightModel models[] = {
      abcs::WeightModel::kAllEqual, abcs::WeightModel::kRandomWalk,
      abcs::WeightModel::kUniform, abcs::WeightModel::kSkewNormal};
  double baseline_s[4] = {0}, peel_s[4] = {0}, expand_s[4] = {0};
  for (int mi = 0; mi < 4; ++mi) {
    const abcs::BipartiteGraph g =
        abcs::ApplyWeightModel(base.graph, models[mi], 31337);
    // Topology unchanged: reuse the decomposition for the index.
    const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g, &base.decomp);
    for (abcs::VertexId q : qs) {
      abcs::Timer timer;
      (void)abcs::ScsBaseline(g, q, t, t);
      baseline_s[mi] += timer.Seconds();
      timer.Reset();
      const abcs::Subgraph c1 = index.QueryCommunity(q, t, t);
      (void)abcs::ScsQuery(g, c1, q, t, t, abcs::ScsAlgo::kPeel);
      peel_s[mi] += timer.Seconds();
      timer.Reset();
      const abcs::Subgraph c2 = index.QueryCommunity(q, t, t);
      (void)abcs::ScsQuery(g, c2, q, t, t, abcs::ScsAlgo::kExpand);
      expand_s[mi] += timer.Seconds();
    }
  }
  const double n = qs.empty() ? 1.0 : static_cast<double>(qs.size());
  std::printf("%-12s %12.3e %12.3e %12.3e %12.3e\n", "SCS-Baseline",
              baseline_s[0] / n, baseline_s[1] / n, baseline_s[2] / n,
              baseline_s[3] / n);
  std::printf("%-12s %12.3e %12.3e %12.3e %12.3e\n", "SCS-Peel",
              peel_s[0] / n, peel_s[1] / n, peel_s[2] / n, peel_s[3] / n);
  std::printf("%-12s %12.3e %12.3e %12.3e %12.3e\n", "SCS-Expand",
              expand_s[0] / n, expand_s[1] / n, expand_s[2] / n,
              expand_s[3] / n);
  return 0;
}
