// Live updates (paper §III-B discussion): a service keeps serving
// (α,β)-community queries while the rating stream mutates the graph, as
// `abcs serve --enable-updates` does. A SnapshotManager's single writer
// applies each edge insertion/removal to its pending batch; every few steps
// a commit re-peels the offsets once and publishes the next snapshot
// (graph, decomposition, I_δ and I_v), and queries read the latest
// published one.

#include <cstdio>
#include <future>
#include <memory>

#include "abcore/offsets.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "graph/datasets.h"
#include "serve/snapshot.h"

namespace {

using abcs::serve::SnapshotManager;
using abcs::serve::UpdateOp;
using abcs::serve::WireStatus;

/// Enqueues one op and waits for the writer's answer.
WireStatus Apply(SnapshotManager& manager, UpdateOp op, uint32_t u,
                 uint32_t v_lower, double w) {
  std::promise<WireStatus> done;
  std::future<WireStatus> answered = done.get_future();
  manager.Enqueue(op, u, v_lower, w, [&done](WireStatus ws, uint64_t) {
    done.set_value(ws);
  });
  return answered.get();
}

}  // namespace

int main() {
  abcs::BipartiteGraph g;
  abcs::Status st = abcs::MakeDataset(*abcs::FindDataset("GH"), &g);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  abcs::Timer timer;
  const abcs::BicoreDecomposition decomp =
      abcs::ComputeBicoreDecompositionParallel(g);
  const abcs::DeltaIndex delta = abcs::DeltaIndex::Build(g, &decomp);
  const abcs::BicoreIndex bicore = abcs::BicoreIndex::Build(g, &decomp);
  SnapshotManager manager(g, &delta, &bicore, &decomp, {});
  st = manager.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("seeded epoch 1: %u edges, delta=%u (%.2fs)\n", g.NumEdges(),
              decomp.delta, timer.Seconds());

  // Interleave queries with a random update stream, committing every
  // kCommitEvery steps.
  constexpr int kSteps = 200;
  constexpr int kCommitEvery = 20;
  abcs::Rng rng(2026);
  const uint32_t alpha = decomp.delta / 2, beta = decomp.delta / 2;
  uint32_t served = 0, inserted = 0, removed = 0;
  abcs::QueryScratch scratch;
  abcs::Subgraph community;
  timer.Reset();
  for (int step = 1; step <= kSteps; ++step) {
    const std::shared_ptr<const abcs::serve::Snapshot> snap =
        manager.Current();
    const abcs::BipartiteGraph& served_graph = snap->graph();
    const uint32_t dice = static_cast<uint32_t>(rng.NextBounded(100));
    if (dice < 40) {
      // New rating between random endpoints (duplicates conflict).
      const uint32_t u = static_cast<uint32_t>(rng.NextBounded(g.NumUpper()));
      const uint32_t v = static_cast<uint32_t>(rng.NextBounded(g.NumLower()));
      inserted += Apply(manager, UpdateOp::kInsertEdge, u, v,
                        1.0 + rng.NextBounded(100)) == WireStatus::kOk;
    } else if (dice < 60) {
      // Retract a rating of the published graph (one already retracted
      // since the last commit conflicts).
      const abcs::Edge& ed = served_graph.GetEdge(static_cast<abcs::EdgeId>(
          rng.NextBounded(served_graph.NumEdges())));
      removed += Apply(manager, UpdateOp::kRemoveEdge, ed.u,
                       ed.v - served_graph.NumUpper(),
                       0.0) == WireStatus::kOk;
    } else {
      const abcs::VertexId q =
          static_cast<abcs::VertexId>(rng.NextBounded(g.NumVertices()));
      snap->engine(abcs::QueryMethod::kDelta)
          .Query(abcs::QueryRequest{q, alpha, beta}, scratch, &community);
      served += !community.Empty();
    }
    if (step % kCommitEvery == 0) {
      Apply(manager, UpdateOp::kCommit, 0, 0, 0.0);
    }
  }
  manager.Drain();
  const std::shared_ptr<const abcs::serve::Snapshot> last = manager.Current();
  std::printf(
      "%d mixed operations in %.2fs (epoch %llu): %u inserts, %u "
      "removals, %u nonempty (%u,%u)-community answers; delta now %u, %u "
      "edges\n",
      kSteps, timer.Seconds(), static_cast<unsigned long long>(last->epoch()),
      inserted, removed, served, alpha, beta, last->decomposition()->delta,
      last->graph().NumEdges());
  return 0;
}
