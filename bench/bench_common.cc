#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/rng.h"

namespace abcs::bench {

PreparedDataset Prepare(const DatasetSpec& spec) {
  PreparedDataset ds;
  ds.spec = spec;
  Status st = MakeDataset(spec, &ds.graph);
  if (!st.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", spec.name.c_str(),
                 st.ToString().c_str());
    std::abort();
  }
  // Setup, not a measured quantity: use every core (identical result).
  ds.decomp = ComputeBicoreDecompositionParallel(ds.graph);
  return ds;
}

std::vector<VertexId> SampleCoreVertices(const PreparedDataset& ds,
                                         uint32_t alpha, uint32_t beta,
                                         uint32_t count, uint64_t seed) {
  const uint32_t tau = std::min(alpha, beta);
  std::vector<VertexId> members;
  if (tau == 0 || tau > ds.delta()) return members;
  const bool use_alpha = alpha <= beta;
  const uint32_t need = use_alpha ? beta : alpha;
  for (VertexId v = 0; v < ds.graph.NumVertices(); ++v) {
    const uint32_t value =
        use_alpha ? ds.decomp.sa(alpha, v) : ds.decomp.sb(beta, v);
    if (value >= need) members.push_back(v);
  }
  if (members.empty()) return members;
  Rng rng(seed);
  rng.Shuffle(members);
  if (members.size() > count) members.resize(count);
  return members;
}

uint32_t ScaledParam(uint32_t delta, double c) {
  return std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(c * static_cast<double>(delta))));
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mean = Mean(xs);
  double acc = 0;
  for (double x : xs) acc += (x - mean) * (x - mean);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

std::string MachineJson() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" ABCS_BENCH_COMPILER
         "\", \"build_type\": \"" ABCS_BENCH_BUILD_TYPE "\"}";
}

uint32_t NumQueries() {
  if (const char* env = std::getenv("ABCS_BENCH_QUERIES")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<uint32_t>(n);
  }
  return 100;
}

}  // namespace abcs::bench
