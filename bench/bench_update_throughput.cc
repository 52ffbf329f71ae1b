// Live-update throughput through the snapshot-versioned serving layer:
// the SnapshotManager's single-writer epoch chain, A/B-ing the two
// publish regimes at several commit batch sizes.
//
//   reweight — weights-only batches: every op retunes an existing edge's
//              significance. The publish copies the graph with the new
//              weights and shares the decomposition and both indexes of
//              the last topology epoch (all three are topology-only), so
//              the epoch cost is one O(m) graph copy.
//   churn    — topology batches: every op pair removes an existing edge
//              and reinserts it. The publish rebuilds the graph, re-peels
//              the decomposition once and rebuilds both indexes, the full
//              copy-on-write-at-commit price.
//
// Each cycle enqueues one batch plus a kCommit and waits for the commit
// callback, so the measured commit latency is exactly what a client sees
// between sending `update c` and receiving its new epoch. Ops/sec counts
// applied mutations over the whole wall clock (batching amortises the
// publish; the sweep shows by how much).
//
// Emits BENCH_update.json with one row per mode × batch size.
//
// Environment:
//   ABCS_BENCH_DATASET         registry dataset (default BS)
//   ABCS_BENCH_UPDATE_COMMITS  commit cycles per config (default 20)
//   argv[1]                    output JSON path (default BENCH_update.json)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "serve/snapshot.h"

namespace {

using abcs::serve::SnapshotManager;
using abcs::serve::SnapshotManagerOptions;
using abcs::serve::UpdateOp;
using abcs::serve::WireStatus;

struct Row {
  const char* mode;
  uint32_t batch;  ///< mutations per commit
  double ops_per_s = 0;
  double commit_p50_us = 0;
  double commit_p99_us = 0;
  uint64_t epochs = 0;
};

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(i, xs.size() - 1)];
}

/// Enqueues one op and waits for its writer-side completion; aborts the
/// bench on any rejection (the queue never fills here — the enqueuer is
/// the only client and waits per commit).
void MustApply(SnapshotManager& mgr, UpdateOp op, uint32_t u, uint32_t v,
               double w) {
  std::promise<WireStatus> done;
  auto fut = done.get_future();
  if (!mgr.Enqueue(op, u, v, w, [&done](WireStatus ws, uint64_t) {
        done.set_value(ws);
      })) {
    std::fprintf(stderr, "update rejected at enqueue\n");
    std::exit(1);
  }
  const WireStatus ws = fut.get();
  if (ws != WireStatus::kOk) {
    std::fprintf(stderr, "update failed: %s\n",
                 abcs::serve::WireStatusName(ws));
    std::exit(1);
  }
}

Row RunConfig(const abcs::bench::PreparedDataset& ds,
              const abcs::DeltaIndex& delta, const abcs::BicoreIndex& bicore,
              bool weights_only, uint32_t batch, uint32_t commits) {
  SnapshotManagerOptions options;
  options.update_queue = static_cast<std::size_t>(batch) * 2 + 8;
  SnapshotManager mgr(ds.graph, &delta, &bicore, &ds.decomp, options);
  if (!mgr.Start().ok()) {
    std::fprintf(stderr, "writer failed to start\n");
    std::exit(1);
  }

  // Deterministic stream of existing edges to mutate.
  std::mt19937_64 rng(weights_only ? 11 : 22);
  std::uniform_int_distribution<abcs::EdgeId> pick(0,
                                                   ds.graph.NumEdges() - 1);
  const uint32_t num_upper = ds.graph.NumUpper();

  std::vector<double> commit_us;
  commit_us.reserve(commits);
  uint64_t applied = 0;
  abcs::Timer total;
  for (uint32_t c = 0; c < commits; ++c) {
    for (uint32_t i = 0; i < batch; ++i) {
      const abcs::Edge& e = ds.graph.GetEdge(pick(rng));
      const uint32_t v_lower = e.v - num_upper;
      if (weights_only) {
        MustApply(mgr, UpdateOp::kReweightEdge, e.u, v_lower,
                  e.w + 0.25 * static_cast<double>(c % 3));
        applied += 1;
      } else {
        // Remove + reinsert: topology-dirty batch, steady-state graph.
        MustApply(mgr, UpdateOp::kRemoveEdge, e.u, v_lower, 0);
        MustApply(mgr, UpdateOp::kInsertEdge, e.u, v_lower, e.w);
        applied += 2;
      }
    }
    abcs::Timer commit;
    std::promise<uint64_t> published;
    auto fut = published.get_future();
    if (!mgr.Enqueue(UpdateOp::kCommit, 0, 0, 0,
                     [&published](WireStatus, uint64_t epoch) {
                       published.set_value(epoch);
                     })) {
      std::fprintf(stderr, "commit rejected at enqueue\n");
      std::exit(1);
    }
    fut.get();
    commit_us.push_back(commit.Seconds() * 1e6);
  }
  const double secs = total.Seconds();
  mgr.Drain();

  Row row{weights_only ? "reweight" : "churn", batch};
  row.ops_per_s = secs > 0 ? static_cast<double>(applied) / secs : 0;
  row.commit_p50_us = Percentile(commit_us, 0.50);
  row.commit_p99_us = Percentile(commit_us, 0.99);
  row.epochs = mgr.Stats().commits;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* dataset_env = std::getenv("ABCS_BENCH_DATASET");
  const std::string dataset = dataset_env ? dataset_env : "BS";
  const char* commits_env = std::getenv("ABCS_BENCH_UPDATE_COMMITS");
  const uint32_t commits =
      commits_env ? static_cast<uint32_t>(std::atoi(commits_env)) : 20;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_update.json";

  const abcs::DatasetSpec* spec = abcs::FindDataset(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return 2;
  }
  const abcs::bench::PreparedDataset ds = abcs::bench::Prepare(*spec);
  const abcs::DeltaIndex delta = abcs::DeltaIndex::Build(ds.graph, &ds.decomp);
  const abcs::BicoreIndex bicore =
      abcs::BicoreIndex::Build(ds.graph, &ds.decomp);

  std::printf(
      "update throughput on %s: n=%u |E|=%u δ=%u, %u commits/config\n",
      dataset.c_str(), ds.graph.NumVertices(), ds.graph.NumEdges(),
      ds.delta(), commits);
  std::printf("%-10s %6s %12s %14s %14s %8s\n", "mode", "batch", "ops/s",
              "commit_p50", "commit_p99", "epochs");

  std::vector<Row> rows;
  for (const bool weights_only : {true, false}) {
    for (const uint32_t batch : {1u, 16u, 64u, 256u}) {
      const Row row = RunConfig(ds, delta, bicore, weights_only, batch,
                                commits);
      rows.push_back(row);
      std::printf("%-10s %6u %12.1f %12.1fus %12.1fus %8llu\n", row.mode,
                  row.batch, row.ops_per_s, row.commit_p50_us,
                  row.commit_p99_us,
                  static_cast<unsigned long long>(row.epochs));
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"machine\": %s,\n  \"dataset\": \"%s\",\n"
               "  \"num_edges\": %u,\n  \"delta\": %u,\n"
               "  \"commits_per_config\": %u,\n  \"results\": [\n",
               abcs::bench::MachineJson().c_str(), dataset.c_str(),
               ds.graph.NumEdges(), ds.delta(), commits);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"batch\": %u, "
                 "\"ops_per_s\": %.1f, \"commit_p50_us\": %.1f, "
                 "\"commit_p99_us\": %.1f, \"epochs\": %llu}%s\n",
                 r.mode, r.batch, r.ops_per_s, r.commit_p50_us,
                 r.commit_p99_us, static_cast<unsigned long long>(r.epochs),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
