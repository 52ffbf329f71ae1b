// Microbenchmarks (google-benchmark) for the library kernels: core
// decomposition, offset computation, index construction, community
// retrieval and the SCS kernels.

#include <benchmark/benchmark.h>

#include "abcore/degeneracy.h"
#include "abcore/offsets.h"
#include "abcore/peeling.h"
#include "bench_common.h"
#include "common/dsu.h"
#include "common/rng.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/generators.h"
#include "models/butterfly.h"

namespace {

const abcs::bench::PreparedDataset& Dataset() {
  static const abcs::bench::PreparedDataset* ds =
      new abcs::bench::PreparedDataset(
          abcs::bench::Prepare(*abcs::FindDataset("BS")));
  return *ds;
}

void BM_KCoreDecomposition(benchmark::State& state) {
  const abcs::BipartiteGraph& g = Dataset().graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(abcs::KCoreNumbers(g));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_KCoreDecomposition);

void BM_AlphaOffsets(benchmark::State& state) {
  const abcs::BipartiteGraph& g = Dataset().graph;
  const uint32_t alpha = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(abcs::ComputeAlphaOffsets(g, alpha));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_AlphaOffsets)->Arg(1)->Arg(4)->Arg(8);

void BM_AlphaBetaCorePeel(benchmark::State& state) {
  const abcs::BipartiteGraph& g = Dataset().graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(abcs::ComputeAlphaBetaCore(g, 4, 4));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_AlphaBetaCorePeel);

void BM_DeltaIndexBuild(benchmark::State& state) {
  const abcs::bench::PreparedDataset& ds = Dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        abcs::DeltaIndex::Build(ds.graph, &ds.decomp));
  }
}
BENCHMARK(BM_DeltaIndexBuild);

void BM_QoptQuery(benchmark::State& state) {
  const abcs::bench::PreparedDataset& ds = Dataset();
  static const abcs::DeltaIndex* index =
      new abcs::DeltaIndex(abcs::DeltaIndex::Build(ds.graph, &ds.decomp));
  const uint32_t t = abcs::bench::ScaledParam(ds.delta(), 0.7);
  const std::vector<abcs::VertexId> qs =
      abcs::bench::SampleCoreVertices(ds, t, t, 64, 1);
  if (qs.empty()) {
    state.SkipWithError("empty core");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->QueryCommunity(qs[i++ % qs.size()], t, t));
  }
}
BENCHMARK(BM_QoptQuery);

void BM_ScsPeelKernel(benchmark::State& state) {
  const abcs::bench::PreparedDataset& ds = Dataset();
  static const abcs::DeltaIndex* index =
      new abcs::DeltaIndex(abcs::DeltaIndex::Build(ds.graph, &ds.decomp));
  const uint32_t t = abcs::bench::ScaledParam(ds.delta(), 0.7);
  const std::vector<abcs::VertexId> qs =
      abcs::bench::SampleCoreVertices(ds, t, t, 16, 2);
  if (qs.empty()) {
    state.SkipWithError("empty core");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const abcs::VertexId q = qs[i++ % qs.size()];
    const abcs::Subgraph c = index->QueryCommunity(q, t, t);
    benchmark::DoNotOptimize(
        abcs::ScsQuery(ds.graph, c, q, t, t, abcs::ScsAlgo::kPeel));
  }
}
BENCHMARK(BM_ScsPeelKernel);

void BM_ScsExpandKernel(benchmark::State& state) {
  const abcs::bench::PreparedDataset& ds = Dataset();
  static const abcs::DeltaIndex* index =
      new abcs::DeltaIndex(abcs::DeltaIndex::Build(ds.graph, &ds.decomp));
  const uint32_t t = abcs::bench::ScaledParam(ds.delta(), 0.7);
  const std::vector<abcs::VertexId> qs =
      abcs::bench::SampleCoreVertices(ds, t, t, 16, 2);
  if (qs.empty()) {
    state.SkipWithError("empty core");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const abcs::VertexId q = qs[i++ % qs.size()];
    const abcs::Subgraph c = index->QueryCommunity(q, t, t);
    benchmark::DoNotOptimize(
        abcs::ScsQuery(ds.graph, c, q, t, t, abcs::ScsAlgo::kExpand));
  }
}
BENCHMARK(BM_ScsExpandKernel);

void BM_DsuUnionFind(benchmark::State& state) {
  const uint32_t n = 100000;
  abcs::Rng rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> ops(n);
  for (auto& op : ops) {
    op = {static_cast<uint32_t>(rng.NextBounded(n)),
          static_cast<uint32_t>(rng.NextBounded(n))};
  }
  for (auto _ : state) {
    abcs::Dsu dsu(n);
    for (const auto& [a, b] : ops) dsu.Union(a, b);
    benchmark::DoNotOptimize(dsu.num_sets());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DsuUnionFind);

void BM_ButterflyCounting(benchmark::State& state) {
  abcs::BipartiteGraph g;
  if (!abcs::GenErdosRenyiBipartite(500, 500, 5000, 3, &g).ok()) {
    state.SkipWithError("gen failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(abcs::CountButterfliesPerEdge(g));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_ButterflyCounting);

}  // namespace
