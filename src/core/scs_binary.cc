#include "core/scs_binary.h"

#include <vector>

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
  out->community.edges.clear();
  out->significance = 0;
  out->found = false;
  if (stats) stats->algo_used = ScsAlgo::kBinary;
  if (alpha == 0 || beta == 0) return;
  const uint32_t lq = lg.LocalId(q);
  if (lq == kInvalidVertex || lg.NumEdges() == 0) return;

  const uint32_t n = lg.NumVertices();
  const uint32_t m = lg.NumEdges();
  auto threshold = [&](uint32_t x) {
    return lg.IsUpperLocal(x) ? alpha : beta;
  };

  std::vector<uint32_t>& deg = s.U32(QueryScratch::kSlotDeg);
  std::vector<uint8_t>& alive = s.U8(QueryScratch::kSlotAlive);
  std::vector<uint32_t>& cascade = s.U32(QueryScratch::kSlotQueue);
  std::vector<uint32_t>& journal = s.U32(QueryScratch::kSlotJournal);

  // Opening stabilisation of the full community — the only from-scratch
  // peel of the whole search.
  deg.assign(n, 0);
  for (const LocalGraph::LocalEdge& le : lg.edges()) {
    ++deg[le.u];
    ++deg[le.v];
  }
  alive.assign(m, 1);
  cascade.clear();
  auto kill = [&](uint32_t r, std::vector<uint32_t>* sink) {
    s.CancelTick();
    const LocalGraph::LocalEdge& le = lg.edges()[r];
    alive[r] = 0;
    if (sink) sink->push_back(r);
    if (stats) ++stats->edges_processed;
    --deg[le.u];
    --deg[le.v];
    if (deg[le.u] < threshold(le.u)) cascade.push_back(le.u);
    if (deg[le.v] < threshold(le.v)) cascade.push_back(le.v);
  };
  auto run_cascade = [&](std::vector<uint32_t>* sink) {
    while (!cascade.empty()) {
      const uint32_t x = cascade.back();
      cascade.pop_back();
      if (deg[x] >= threshold(x) || deg[x] == 0) continue;
      for (const LocalGraph::LocalArc& a : lg.Neighbors(x)) {
        if (alive[a.pos]) kill(a.pos, sink);
      }
    }
  };
  for (uint32_t x = 0; x < n; ++x) {
    if (deg[x] < threshold(x)) cascade.push_back(x);
  }
  run_cascade(nullptr);
  if (stats) ++stats->validations;
  if (s.CancelStopped()) return;  // per-query state: abandonment is free
  if (deg[lq] < threshold(lq)) return;  // infeasible even on the whole pool

  // Binary search over distinct-weight indices (descending weights, so
  // larger index = longer prefix = more feasible). Invariant: the working
  // state is the stable peel of prefix `cur_end` = PrefixEnd(hi), and hi is
  // feasible. A probe at a shorter prefix peels down from that state with
  // every kill journaled: commit on feasible, undo on infeasible.
  uint32_t cur_end = m;
  auto probe = [&](uint32_t target_end) {
    journal.clear();
    for (uint32_t r = target_end; r < cur_end; ++r) {
      if (alive[r]) kill(r, &journal);
    }
    run_cascade(&journal);
    const bool feasible = deg[lq] >= threshold(lq);
    if (stats) ++stats->incremental_probes;
    if (probe_log) probe_log->push_back(ScsProbe{target_end, feasible});
    if (feasible) {
      cur_end = target_end;
    } else {
      for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
        const LocalGraph::LocalEdge& le = lg.edges()[*it];
        alive[*it] = 1;
        ++deg[le.u];
        ++deg[le.v];
      }
      if (stats) stats->edges_processed += journal.size();
    }
    return feasible;
  };

  uint32_t lo = 0, hi = lg.NumDistinctWeights() - 1;
  while (lo < hi) {
    // A cancel mid-probe abandons the search with `found = false`; every
    // peel structure here is a per-query scratch slot (re-`assign`ed on
    // the next query), so no unwind beyond the probe's own journal is
    // needed and the workspace stays reusable bit-identically.
    if (s.CancelStopped()) return;
    const uint32_t mid = lo + (hi - lo) / 2;  // mid < hi
    if (probe(lg.PrefixEnd(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (s.CancelStopped()) return;
  ExtractAliveComponent(lg, lq, alive, lg.DistinctWeight(hi), s, out);
}

ScsResult ScsBinary(const BipartiteGraph& g, const Subgraph& community,
                    VertexId q, uint32_t alpha, uint32_t beta, ScsStats* stats,
                    QueryScratch* scratch, ScsWorkspace* workspace) {
  ScsResult result;
  if (community.Empty() || alpha == 0 || beta == 0) return result;
  QueryScratch local_scratch;
  QueryScratch& s = scratch ? *scratch : local_scratch;
  ScsWorkspace local_ws;
  ScsWorkspace& ws = workspace ? *workspace : local_ws;
  ws.lg.BuildFrom(g, community.edges);
  ScsBinaryOnLocal(ws.lg, q, alpha, beta, &result, stats, s);
  return result;
}

bool ScsFeasibleFreshPeel(const LocalGraph& lg, VertexId q, uint32_t alpha,
                          uint32_t beta, uint32_t prefix_end) {
  const uint32_t lq = lg.LocalId(q);
  if (lq == kInvalidVertex || alpha == 0 || beta == 0) return false;
  return FreshPeelPrefix(lg, lq, alpha, beta, prefix_end);
}

}  // namespace abcs
