// Ablation A2: the expansion parameter ε of SCS-Expand. The paper argues
// the total validation cost is ε/(ε−1)·size(R), minimised at ε = 2; this
// sweep shows time and validation counts across ε on two datasets.

#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"

int main() {
  const uint32_t queries = abcs::bench::NumQueries();
  std::printf(
      "Ablation A2: SCS-Expand ε sweep (α=β=0.4δ, avg over %u queries)\n",
      queries);
  // `checks` = incremental validations per query (expand validates only by
  // journal-seeded probes under the unified ScsStats semantics).
  std::printf("%-5s %6s %12s %14s %16s\n", "name", "eps", "time(s)",
              "checks", "edges_processed");
  for (const char* name : {"DT", "AR"}) {
    const abcs::bench::PreparedDataset ds =
        abcs::bench::Prepare(*abcs::FindDataset(name));
    const uint32_t t = abcs::bench::ScaledParam(ds.delta(), 0.4);
    const abcs::DeltaIndex index =
        abcs::DeltaIndex::Build(ds.graph, &ds.decomp);
    const std::vector<abcs::VertexId> qs =
        abcs::bench::SampleCoreVertices(ds, t, t, queries, 3333);
    abcs::QueryScratch scratch;
    abcs::ScsWorkspace ws;
    for (double eps : {1.2, 1.5, 2.0, 3.0, 4.0}) {
      abcs::ScsOptions options;
      options.epsilon = eps;
      double total_s = 0;
      abcs::ScsStats stats;
      for (abcs::VertexId q : qs) {
        const abcs::Subgraph c = index.QueryCommunity(q, t, t);
        abcs::Timer timer;
        (void)abcs::ScsQuery(ds.graph, c, q, t, t, abcs::ScsAlgo::kExpand,
                             options, &stats, &scratch, &ws);
        total_s += timer.Seconds();
      }
      const double n = qs.empty() ? 1.0 : static_cast<double>(qs.size());
      std::printf("%-5s %6.1f %12.3e %14.1f %16.0f\n", name, eps, total_s / n,
                  static_cast<double>(stats.validations +
                                      stats.incremental_probes) /
                      n,
                  static_cast<double>(stats.edges_processed) / n);
    }
  }
  return 0;
}
