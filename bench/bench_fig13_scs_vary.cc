// Figure 13: effect of α and β on the SCS algorithms, on DT-like and
// ML-like datasets.
//  (a): DT, α = β = c·δ      (b): ML, α = β = c·δ
//  (c): DT, α = c·δ, β = 0.5δ (d): ML, α = 0.5δ, β = c·δ

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"

namespace {

void RunSeries(const abcs::bench::PreparedDataset& ds, const char* label,
               bool vary_both, bool vary_beta) {
  // The baseline is slow at small α,β; cap repetitions for this figure.
  const uint32_t queries = std::min<uint32_t>(abcs::bench::NumQueries(), 25);
  const abcs::DeltaIndex index =
      abcs::DeltaIndex::Build(ds.graph, &ds.decomp);
  std::printf("%s (avg over up to %u queries, seconds)\n", label, queries);
  std::printf("%5s %6s %6s %12s %12s %12s\n", "c", "alpha", "beta",
              "baseline", "peel", "expand");
  for (double c = 0.1; c <= 0.91; c += 0.1) {
    uint32_t alpha, beta;
    if (vary_both) {
      alpha = beta = abcs::bench::ScaledParam(ds.delta(), c);
    } else if (vary_beta) {
      alpha = abcs::bench::ScaledParam(ds.delta(), 0.5);
      beta = abcs::bench::ScaledParam(ds.delta(), c);
    } else {
      alpha = abcs::bench::ScaledParam(ds.delta(), c);
      beta = abcs::bench::ScaledParam(ds.delta(), 0.5);
    }
    const std::vector<abcs::VertexId> qs =
        abcs::bench::SampleCoreVertices(ds, alpha, beta, queries, 555);
    if (qs.empty()) {
      std::printf("%5.1f %6u %6u   (empty core)\n", c, alpha, beta);
      continue;
    }
    double base_s = 0, peel_s = 0, expand_s = 0;
    for (abcs::VertexId q : qs) {
      abcs::Timer timer;
      (void)abcs::ScsBaseline(ds.graph, q, alpha, beta);
      base_s += timer.Seconds();
      timer.Reset();
      const abcs::Subgraph c1 = index.QueryCommunity(q, alpha, beta);
      (void)abcs::ScsQuery(ds.graph, c1, q, alpha, beta, abcs::ScsAlgo::kPeel);
      peel_s += timer.Seconds();
      timer.Reset();
      const abcs::Subgraph c2 = index.QueryCommunity(q, alpha, beta);
      (void)abcs::ScsQuery(ds.graph, c2, q, alpha, beta,
                           abcs::ScsAlgo::kExpand);
      expand_s += timer.Seconds();
    }
    const double n = static_cast<double>(qs.size());
    std::printf("%5.1f %6u %6u %12.3e %12.3e %12.3e\n", c, alpha, beta,
                base_s / n, peel_s / n, expand_s / n);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const abcs::bench::PreparedDataset dt =
      abcs::bench::Prepare(*abcs::FindDataset("DT"));
  const abcs::bench::PreparedDataset ml =
      abcs::bench::Prepare(*abcs::FindDataset("ML"));
  RunSeries(dt, "Figure 13(a): DT, alpha=beta=c*delta", true, false);
  RunSeries(ml, "Figure 13(b): ML, alpha=beta=c*delta", true, false);
  RunSeries(dt, "Figure 13(c): DT, alpha=c*delta, beta=0.5*delta", false,
            false);
  RunSeries(ml, "Figure 13(d): ML, alpha=0.5*delta, beta=c*delta", false,
            true);
  return 0;
}
