#include "core/scs_binary.h"

#include <vector>

#include "core/rank_peel.h"

namespace abcs {

namespace {

/// From-scratch stable peel of the rank prefix [0, prefix_end) with freshly
/// built degrees; returns whether q survives. The reference the
/// incremental probes are tested against; the incremental path never calls
/// this.
bool FreshPeelPrefix(const LocalGraph& lg, uint32_t lq, uint32_t alpha,
                     uint32_t beta, uint32_t prefix_end) {
  const uint32_t n = lg.NumVertices();
  const uint32_t m = lg.NumEdges();
  auto threshold = [&](uint32_t x) {
    return lg.IsUpperLocal(x) ? alpha : beta;
  };
  std::vector<uint8_t> alive(m, 0);
  std::vector<uint32_t> deg(n, 0);
  for (uint32_t r = 0; r < prefix_end; ++r) {
    const LocalGraph::LocalEdge& le = lg.edges()[r];
    alive[r] = 1;
    ++deg[le.u];
    ++deg[le.v];
  }
  std::vector<uint32_t> cascade;
  for (uint32_t x = 0; x < n; ++x) {
    if (deg[x] > 0 && deg[x] < threshold(x)) cascade.push_back(x);
  }
  while (!cascade.empty()) {
    const uint32_t x = cascade.back();
    cascade.pop_back();
    if (deg[x] >= threshold(x) || deg[x] == 0) continue;
    for (const LocalGraph::LocalArc& a : lg.Neighbors(x)) {
      if (!alive[a.pos]) continue;
      alive[a.pos] = 0;
      --deg[x];
      --deg[a.to];
      if (deg[a.to] < threshold(a.to)) cascade.push_back(a.to);
    }
  }
  return deg[lq] >= threshold(lq);
}

}  // namespace

void ScsBinaryOnLocal(const LocalGraph& lg, VertexId q, uint32_t alpha,
                      uint32_t beta, ScsResult* out, ScsStats* stats,
                      QueryScratch& s, std::vector<ScsProbe>* probe_log) {
  RankPeel peel(lg, q, alpha, beta, s, stats);
  // The opening stabilisation is the only from-scratch peel of the search.
  if (!peel.Begin(ScsAlgo::kBinary, out) || !peel.StabiliseAll()) return;

  // Binary search over distinct-weight indices (descending weights, so
  // larger index = longer prefix = more feasible). Invariant: the working
  // state is the stable peel of prefix `cur_end` = PrefixEnd(hi), and hi is
  // feasible. A probe at a shorter prefix peels down from that state with
  // every kill journaled: commit on feasible, undo on infeasible.
  uint32_t cur_end = lg.NumEdges();
  auto probe = [&](uint32_t target_end) {
    peel.PeelRange(target_end, cur_end, [](uint32_t) { return true; });
    const bool feasible = !peel.QViolates();
    if (stats) ++stats->incremental_probes;
    if (probe_log) probe_log->push_back(ScsProbe{target_end, feasible});
    if (feasible) {
      cur_end = target_end;
    } else {
      peel.Restore();
    }
    return feasible;
  };

  uint32_t lo = 0, hi = lg.NumDistinctWeights() - 1;
  while (lo < hi) {
    if (s.CancelStopped()) return;
    const uint32_t mid = lo + (hi - lo) / 2;  // mid < hi
    if (probe(lg.PrefixEnd(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (s.CancelStopped()) return;
  peel.ExtractComponent(lg.DistinctWeight(hi), out);
}

bool ScsFeasibleFreshPeel(const LocalGraph& lg, VertexId q, uint32_t alpha,
                          uint32_t beta, uint32_t prefix_end) {
  const uint32_t lq = lg.LocalId(q);
  if (lq == kInvalidVertex || alpha == 0 || beta == 0) return false;
  return FreshPeelPrefix(lg, lq, alpha, beta, prefix_end);
}

}  // namespace abcs
