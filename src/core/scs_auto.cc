#include "core/scs_auto.h"

#include <numeric>
#include <span>

#include "core/scs_binary.h"
#include "core/scs_expand.h"

namespace abcs {

namespace {

// Planner thresholds, calibrated with bench_scs_throughput and the
// crossover ablation on the registry datasets (see docs/scs_engine.md).
// Below kTinyEdges every kernel finishes in the noise, so the simplest
// wins. kExpandFrac bounds the batch-aligned prefix share under which
// Expand provably touches a small fraction of C: expansion work is
// O(ε · prefix) while any peel-family kernel pays a full O(size(C))
// stabilisation first. Measurements show the rank-based Peel winning
// everywhere else — its single linear stabilise plus back-to-front batch
// kills has the lowest per-edge constant, and Binary's probe diffs
// telescope to the *same* edge work Peel does plus undo overhead — so the
// planner routes the remainder to Peel. Binary stays an explicit choice:
// its value is the O(log W) bound on validations (and the 2–4× win over
// its own pre-PR fresh-peel form), not beating Peel's constants.
constexpr uint32_t kTinyEdges = 512;
constexpr double kExpandFrac = 1.0 / 32.0;

}  // namespace

ScsAlgo PlanScsAlgo(const LocalGraph& lg, VertexId q, uint32_t alpha,
                    uint32_t beta) {
  const uint32_t m = lg.NumEdges();
  const uint32_t lq = lg.LocalId(q);
  if (lq == kInvalidVertex || m <= kTinyEdges || lg.NumDistinctWeights() <= 1) {
    return ScsAlgo::kPeel;
  }
  const uint32_t t = lg.IsUpperLocal(lq) ? alpha : beta;
  const auto arcs = lg.Neighbors(lq);
  // q cannot keep threshold(q) edges: infeasible, and a single
  // stabilisation (Peel's) discovers that with the least machinery.
  if (arcs.size() < t || t == 0) return ScsAlgo::kPeel;
  // Arcs are rank-sorted, so arcs[t-1].pos is the rank of q's t-th
  // strongest edge; any feasible subgraph retains ≥ t edges at q, so the
  // feasible prefix extends at least to the end of that rank's whole
  // batch. This batch-aligned prefix share is the planner's size(R) proxy.
  const uint32_t prefix_end =
      lg.PrefixEnd(lg.DistinctIndexOfRank(arcs[t - 1].pos));
  const double bfrac =
      static_cast<double>(prefix_end) / static_cast<double>(m);
  if (bfrac <= kExpandFrac) return ScsAlgo::kExpand;
  return ScsAlgo::kPeel;
}

void ScsQueryInto(const BipartiteGraph& g, const Subgraph& community,
                  VertexId q, uint32_t alpha, uint32_t beta, ScsAlgo algo,
                  const ScsOptions& options, ScsResult* out, ScsStats* stats,
                  QueryScratch* scratch, ScsWorkspace* workspace) {
  QueryScratch local_scratch;
  QueryScratch& s = scratch ? *scratch : local_scratch;
  ScsWorkspace local_ws;
  ScsWorkspace& ws = workspace ? *workspace : local_ws;
  // A budget already spent on retrieval builds the empty graph, which the
  // kernel's entry guard answers as not found.
  std::span<const EdgeId> pool = community.edges;
  if (s.CancelStopped()) pool = {};
  ws.lg.BuildFrom(g, pool);
  if (algo == ScsAlgo::kAuto) algo = PlanScsAlgo(ws.lg, q, alpha, beta);
  switch (algo) {
    case ScsAlgo::kAuto:  // resolved above
    case ScsAlgo::kPeel:
      PeelToSignificantInto(ws.lg, q, alpha, beta, out, stats, s);
      break;
    case ScsAlgo::kExpand:
      ScsExpandOnLocal(ws.lg, q, alpha, beta, options, out, stats, s,
                       ws.expand);
      break;
    case ScsAlgo::kBinary:
      ScsBinaryOnLocal(ws.lg, q, alpha, beta, out, stats, s);
      break;
  }
}

ScsResult ScsQuery(const BipartiteGraph& g, const Subgraph& community,
                   VertexId q, uint32_t alpha, uint32_t beta, ScsAlgo algo,
                   const ScsOptions& options, ScsStats* stats,
                   QueryScratch* scratch, ScsWorkspace* workspace) {
  ScsResult result;
  ScsQueryInto(g, community, q, alpha, beta, algo, options, &result, stats,
               scratch, workspace);
  return result;
}

ScsResult ScsBaseline(const BipartiteGraph& g, VertexId q, uint32_t alpha,
                      uint32_t beta, const ScsOptions& options,
                      ScsStats* stats, QueryScratch* scratch,
                      ScsWorkspace* workspace) {
  ScsWorkspace local_ws;
  ScsWorkspace& ws = workspace ? *workspace : local_ws;
  ws.pool.edges.resize(g.NumEdges());
  std::iota(ws.pool.edges.begin(), ws.pool.edges.end(), 0u);
  return ScsQuery(g, ws.pool, q, alpha, beta, ScsAlgo::kExpand, options,
                  stats, scratch, &ws);
}

}  // namespace abcs
