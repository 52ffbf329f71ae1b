#ifndef ABCS_BENCH_BENCH_COMMON_H_
#define ABCS_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "abcore/offsets.h"
#include "graph/datasets.h"

namespace abcs::bench {

/// A dataset materialised for benchmarking: graph plus the δ-bounded
/// offset decomposition shared by the index builds.
struct PreparedDataset {
  DatasetSpec spec;
  BipartiteGraph graph;
  BicoreDecomposition decomp;

  uint32_t delta() const { return decomp.delta; }
};

/// Generates the dataset and computes its decomposition. Deterministic.
PreparedDataset Prepare(const DatasetSpec& spec);

/// Samples up to `count` distinct vertices belonging to the (α,β)-core
/// (query vertices with nonempty communities, as the paper's random
/// queries). Deterministic for a given seed.
std::vector<VertexId> SampleCoreVertices(const PreparedDataset& ds,
                                         uint32_t alpha, uint32_t beta,
                                         uint32_t count, uint64_t seed);

/// α = β = round(c·δ), clamped to ≥ 1.
uint32_t ScaledParam(uint32_t delta, double c);

double Mean(const std::vector<double>& xs);
double StdDev(const std::vector<double>& xs);

/// The machine a BENCH file was recorded on, as a JSON object:
/// {"nproc": …, "compiler": "<id> <version>", "build_type": "…"}.
std::string MachineJson();

/// Number of query repetitions; honours the ABCS_BENCH_QUERIES environment
/// variable (default 100, the paper's setting).
uint32_t NumQueries();

}  // namespace abcs::bench

#endif  // ABCS_BENCH_BENCH_COMMON_H_
