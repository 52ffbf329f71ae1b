// Ablation A1 (paper §IV-B remark): SCS-Binary vs SCS-Expand. The paper
// reports SCS-Binary at 0.86×–1.08× the running time of SCS-Expand, with
// an edge for SCS-Binary when few distinct weight values exist. We sweep
// the weight models (AE has 1 distinct value, RW/UF/SK are continuous) and
// a quantised-uniform model with 8 distinct values.

#include <cmath>
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
      abcs::bench::SampleCoreVertices(base, t, t, queries, 2222);

  std::printf(
      "Ablation A1: SCS-Binary vs SCS-Expand on DT (α=β=%u, avg over %u "
      "queries)\n",
      t, queries);
  std::printf("%-12s %12s %12s %10s %12s\n", "weights", "expand(s)",
              "binary(s)", "bin/exp", "probes/q");

  struct Variant {
    const char* name;
    abcs::BipartiteGraph graph;
  };
  std::vector<Variant> variants;
  variants.push_back(
      {"UF", abcs::ApplyWeightModel(base.graph, abcs::WeightModel::kUniform,
                                    7)});
  variants.push_back({"SK", abcs::ApplyWeightModel(
                                base.graph, abcs::WeightModel::kSkewNormal,
                                7)});
  variants.push_back({"RW", abcs::ApplyWeightModel(
                                base.graph, abcs::WeightModel::kRandomWalk,
                                7)});
  {
    // UF8: uniform weights quantised to 8 distinct values — the regime
    // where binary search needs only log2(8) = 3 feasibility peels.
    abcs::BipartiteGraph uf =
        abcs::ApplyWeightModel(base.graph, abcs::WeightModel::kUniform, 7);
    std::vector<abcs::Weight> w(uf.NumEdges());
    for (abcs::EdgeId e = 0; e < uf.NumEdges(); ++e) {
      w[e] = std::ceil(uf.GetWeight(e) / 12.5);
    }
    variants.push_back({"UF8", uf.WithWeights(w)});
  }

  for (const Variant& variant : variants) {
    const abcs::DeltaIndex index =
        abcs::DeltaIndex::Build(variant.graph, &base.decomp);
    // Pooled workspace/scratch, matching the engine's steady state.
    abcs::QueryScratch scratch;
    abcs::ScsWorkspace ws;
    double expand_s = 0, binary_s = 0;
    abcs::ScsStats binary_stats;
    for (abcs::VertexId q : qs) {
      const abcs::Subgraph c = index.QueryCommunity(q, t, t);
      abcs::Timer timer;
      const abcs::ScsResult re =
          abcs::ScsQuery(variant.graph, c, q, t, t, abcs::ScsAlgo::kExpand,
                         {}, nullptr, &scratch, &ws);
      expand_s += timer.Seconds();
      timer.Reset();
      const abcs::ScsResult rb =
          abcs::ScsQuery(variant.graph, c, q, t, t, abcs::ScsAlgo::kBinary,
                         {}, &binary_stats, &scratch, &ws);
      binary_s += timer.Seconds();
      if (re.found != rb.found ||
          (re.found && re.significance != rb.significance)) {
        std::fprintf(stderr, "MISMATCH q=%u on %s\n", q, variant.name);
        return 1;
      }
    }
    const double n = qs.empty() ? 1.0 : static_cast<double>(qs.size());
    std::printf("%-12s %12.3e %12.3e %9.2fx %12.1f\n", variant.name,
                expand_s / n, binary_s / n,
                binary_s / (expand_s > 0 ? expand_s : 1e-12),
                static_cast<double>(binary_stats.incremental_probes) / n);
  }
  return 0;
}
