// Unified peeling-kernel benchmark: single-peel throughput of the shared
// bucket-queue kernel (abcore/peel_kernel.h) across its entry points, plus
// serial vs multi-threaded whole-grid offset decomposition — the index-build
// hot path — with a thread-scaling sweep on the largest registry dataset.
//
// ABCS_BENCH_DATASET overrides the dataset (default: DTI, the largest).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "abcore/degeneracy.h"
#include "abcore/offsets.h"
#include "abcore/peel_kernel.h"
#include "abcore/peeling.h"
#include "bench_common.h"
#include "common/timer.h"

namespace {

double TimeBest(int reps, const auto& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    abcs::Timer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

}  // namespace

int main() {
  const char* name_env = std::getenv("ABCS_BENCH_DATASET");
  const std::string name = name_env ? name_env : "DTI";
  const abcs::DatasetSpec* spec = abcs::FindDataset(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    return 1;
  }
  abcs::BipartiteGraph g;
  if (!abcs::MakeDataset(*spec, &g).ok()) return 1;
  const double m = static_cast<double>(g.NumEdges());

  const uint32_t delta = abcs::Degeneracy(g);
  std::printf("peel kernel on %s: |E|=%u |U|=%u |L|=%u delta=%u\n",
              spec->name.c_str(), g.NumEdges(), g.NumUpper(), g.NumLower(),
              delta);

  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> base_deg(n);
  for (abcs::VertexId v = 0; v < n; ++v) base_deg[v] = g.Degree(v);
  const auto threshold = [](abcs::VertexId) { return 2u; };
  const double raw_22 = TimeBest(3, [&] {
    std::vector<uint32_t> deg = base_deg;
    std::vector<uint8_t> alive(n, 1);
    abcs::ThresholdPeel(n, deg, alive, abcs::GraphNeighbors(g), threshold,
                        [](abcs::VertexId) {});
  });

  std::printf("\nsingle peels (best of 3)\n%-28s %10s %12s\n", "kernel",
              "seconds", "Medges/s");
  const struct {
    const char* label;
    double seconds;
  } rows[] = {
      {"ThresholdPeel (2,2)-core",
       TimeBest(3, [&] { abcs::ComputeAlphaBetaCore(g, 2, 2); })},
      {"ThresholdPeel raw (2,2)", raw_22},
      {"LevelPeeler alpha-offsets",
       TimeBest(3, [&] { abcs::ComputeAlphaOffsets(g, 2); })},
      {"LevelPeeler beta-offsets",
       TimeBest(3, [&] { abcs::ComputeBetaOffsets(g, 2); })},
      {"LevelPeeler k-core numbers",
       TimeBest(3, [&] { abcs::KCoreNumbers(g); })},
  };
  for (const auto& row : rows) {
    std::printf("%-28s %10.4f %12.1f\n", row.label, row.seconds,
                m / row.seconds / 1e6);
  }

  std::printf(
      "\nwhole-grid decomposition (incremental nested-core chains over "
      "delta = %u levels/side, best of 3)\n",
      delta);
  std::printf("%-10s %10s %10s\n", "threads", "seconds", "speedup");
  const double serial =
      TimeBest(3, [&] { abcs::ComputeBicoreDecomposition(g); });
  std::printf("%-10s %10.3f %10s\n", "serial", serial, "1.00x");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 1; t <= hw; t *= 2) {
    const double s = TimeBest(
        3, [&] { abcs::ComputeBicoreDecompositionParallel(g, t); });
    std::printf("%-10u %10.3f %9.2fx\n", t, s, serial / s);
  }
  if ((hw & (hw - 1)) != 0) {  // hw not a power of two: add the full-width row
    const double s = TimeBest(
        3, [&] { abcs::ComputeBicoreDecompositionParallel(g, hw); });
    std::printf("%-10u %10.3f %9.2fx\n", hw, s, serial / s);
  }
  return 0;
}
