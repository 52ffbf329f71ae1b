// Dynamic maintenance (paper §III-B discussion): a service keeps serving
// (α,β)-community queries while the rating stream mutates the graph. The
// DynamicDeltaIndex applies each edge insertion/removal with a localized
// re-peel instead of recomputing the offsets. Every few updates it
// publishes a snapshot — the exported graph plus the I_δ built from the
// maintained decomposition, with no offset peel — and queries read the
// latest snapshot, as `abcs serve --enable-updates` does at each commit.

#include <cstdio>

#include "common/rng.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/maintenance.h"
#include "graph/datasets.h"

int main() {
  abcs::BipartiteGraph g;
  abcs::Status st = abcs::MakeDataset(*abcs::FindDataset("GH"), &g);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  abcs::Timer timer;
  abcs::DynamicDeltaIndex index(g);
  std::printf("seeded dynamic index: %u edges, delta=%u (%.2fs)\n",
              index.NumAliveEdges(), index.delta(), timer.Seconds());

  // The published snapshot queries and removals read.
  abcs::BipartiteGraph snapshot;
  abcs::DeltaIndex snapshot_index;
  const auto publish = [&] {
    snapshot = index.ExportGraph();
    const abcs::BicoreDecomposition decomp = index.ExportDecomposition();
    snapshot_index = abcs::DeltaIndex::Build(snapshot, &decomp);
  };

  // Interleave queries with a random update stream, publishing every
  // kCommitEvery operations.
  constexpr int kSteps = 200;
  constexpr int kCommitEvery = 20;
  abcs::Rng rng(2026);
  const uint32_t alpha = index.delta() / 2, beta = index.delta() / 2;
  uint32_t served = 0, inserted = 0, removed = 0, published = 0;
  timer.Reset();
  for (int step = 0; step < kSteps; ++step) {
    if (step % kCommitEvery == 0) {
      publish();
      ++published;
    }
    const uint32_t dice = static_cast<uint32_t>(rng.NextBounded(100));
    if (dice < 40) {
      // New rating between random endpoints (duplicates are rejected).
      const abcs::VertexId u =
          static_cast<abcs::VertexId>(rng.NextBounded(g.NumUpper()));
      const abcs::VertexId v = static_cast<abcs::VertexId>(
          g.NumUpper() + rng.NextBounded(g.NumLower()));
      if (index.InsertEdge(u, v, 1.0 + rng.NextBounded(100)).ok()) {
        ++inserted;
      }
    } else if (dice < 60) {
      // Retract a rating of the published graph (already retracted since
      // the last publish: rejected).
      const abcs::Edge& ed = snapshot.GetEdge(
          static_cast<abcs::EdgeId>(rng.NextBounded(snapshot.NumEdges())));
      if (index.RemoveEdge(ed.u, ed.v).ok()) ++removed;
    } else {
      const abcs::VertexId q =
          static_cast<abcs::VertexId>(rng.NextBounded(g.NumVertices()));
      const abcs::Subgraph c = snapshot_index.QueryCommunity(q, alpha, beta);
      served += !c.Empty();
    }
  }
  std::printf(
      "%d mixed operations in %.2fs (%u publishes): %u inserts, %u "
      "removals, %u nonempty (%u,%u)-community answers; delta now %u, %u "
      "edges\n",
      kSteps, timer.Seconds(), published, inserted, removed, served, alpha,
      beta, index.delta(), index.NumAliveEdges());
  return 0;
}
