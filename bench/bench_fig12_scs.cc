// Figure 12: significant (α,β)-community search — SCS-Baseline vs SCS-Peel
// vs SCS-Expand on all datasets (α = β = 0.7δ, mean ± stddev over random
// queries). Peel and Expand retrieve C_{α,β}(q) with Qopt first (the
// two-step paradigm); Baseline expands over the whole graph.

#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"

int main() {
  const uint32_t queries = abcs::bench::NumQueries();
  std::printf(
      "Figure 12: SCS query time, α=β=0.7δ, mean ± std over %u queries "
      "(seconds)\n",
      queries);
  std::printf("%-5s %6s   %-22s %-22s %-22s\n", "name", "a=b", "baseline",
              "peel", "expand");
  for (const abcs::DatasetSpec& spec : abcs::AllDatasets()) {
    const abcs::bench::PreparedDataset ds = abcs::bench::Prepare(spec);
    const uint32_t t = abcs::bench::ScaledParam(ds.delta(), 0.7);
    const abcs::DeltaIndex index =
        abcs::DeltaIndex::Build(ds.graph, &ds.decomp);
    const std::vector<abcs::VertexId> qs =
        abcs::bench::SampleCoreVertices(ds, t, t, queries, 4321);
    if (qs.empty()) {
      std::printf("%-5s %6u  (empty core)\n", spec.name.c_str(), t);
      continue;
    }

    std::vector<double> base_s, peel_s, expand_s;
    for (abcs::VertexId q : qs) {
      abcs::Timer timer;
      const abcs::ScsResult rb = abcs::ScsBaseline(ds.graph, q, t, t);
      base_s.push_back(timer.Seconds());

      timer.Reset();
      const abcs::Subgraph c1 = index.QueryCommunity(q, t, t);
      const abcs::ScsResult rp =
          abcs::ScsQuery(ds.graph, c1, q, t, t, abcs::ScsAlgo::kPeel);
      peel_s.push_back(timer.Seconds());

      timer.Reset();
      const abcs::Subgraph c2 = index.QueryCommunity(q, t, t);
      const abcs::ScsResult re =
          abcs::ScsQuery(ds.graph, c2, q, t, t, abcs::ScsAlgo::kExpand);
      expand_s.push_back(timer.Seconds());

      if (rb.significance != rp.significance ||
          rp.significance != re.significance) {
        std::fprintf(stderr, "MISMATCH on %s q=%u\n", spec.name.c_str(), q);
        return 1;
      }
    }
    char b[64], p[64], e[64];
    std::snprintf(b, sizeof(b), "%.3e ± %.1e", abcs::bench::Mean(base_s),
                  abcs::bench::StdDev(base_s));
    std::snprintf(p, sizeof(p), "%.3e ± %.1e", abcs::bench::Mean(peel_s),
                  abcs::bench::StdDev(peel_s));
    std::snprintf(e, sizeof(e), "%.3e ± %.1e", abcs::bench::Mean(expand_s),
                  abcs::bench::StdDev(expand_s));
    std::printf("%-5s %6u   %-22s %-22s %-22s\n", spec.name.c_str(), t, b,
                p, e);
  }
  return 0;
}
