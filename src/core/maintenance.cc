#include "core/maintenance.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "abcore/offsets.h"
#include "abcore/peel_kernel.h"
#include "graph/graph_builder.h"

namespace abcs {

DynamicDeltaIndex::DynamicDeltaIndex(const BipartiteGraph& g,
                                     const BicoreDecomposition* decomp) {
  num_upper_ = g.NumUpper();
  const uint32_t n = g.NumVertices();
  adj_.resize(n);
  edges_.reserve(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& ed = g.GetEdge(e);
    edges_.push_back(ed);
    edge_alive_.push_back(1);
    adj_[ed.u].push_back(Arc{ed.v, e});
    adj_[ed.v].push_back(Arc{ed.u, e});
  }
  num_alive_edges_ = g.NumEdges();

  // The static decomposition is compact (CSR slices); the dynamic tables
  // stay dense per level because updates mutate arbitrary (τ, v) cells —
  // growing a vertex's slice in place would shift the whole arena. A
  // caller-supplied decomposition (typically an opened bundle's mmap'd
  // arenas) is copied on write into those rows — no offset peel at all.
  // A decomposition whose vertex count disagrees with `g` (wrong bundle)
  // cannot be trusted and is recomputed instead of read out of bounds.
  BicoreDecomposition local;
  if (decomp == nullptr || decomp->NumVertices() != n) {
    local = ComputeBicoreDecompositionParallel(g);
    decomp = &local;
  }
  delta_ = decomp->delta;
  sa_.assign(delta_, std::vector<uint32_t>(n, 0));
  sb_.assign(delta_, std::vector<uint32_t>(n, 0));
  // Vertex-outer expansion: one sequential pass over each arena, touching
  // only the Σ Levels(v) nonzero cells (the rows are pre-zeroed).
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t la = decomp->alpha.Levels(v);
    for (uint32_t tau = 1; tau <= la; ++tau) {
      sa_[tau - 1][v] = decomp->alpha.values[decomp->alpha.start[v] + tau - 1];
    }
    const uint32_t lb = decomp->beta.Levels(v);
    for (uint32_t tau = 1; tau <= lb; ++tau) {
      sb_[tau - 1][v] = decomp->beta.values[decomp->beta.start[v] + tau - 1];
    }
  }
}

std::vector<VertexId> DynamicDeltaIndex::CollectScope(
    const std::vector<uint32_t>& value, uint32_t lo, uint32_t hi,
    std::initializer_list<VertexId> seeds) {
  std::vector<VertexId> scope;
  ws_visited_.resize(adj_.size(), 0);
  ws_stack_.clear();
  for (VertexId s : seeds) {
    if (!ws_visited_[s]) {
      ws_visited_[s] = 1;
      ws_stack_.push_back(s);
      scope.push_back(s);
    }
  }
  while (!ws_stack_.empty()) {
    VertexId x = ws_stack_.back();
    ws_stack_.pop_back();
    for (const Arc& a : adj_[x]) {
      VertexId y = a.to;
      if (ws_visited_[y] || value[y] < lo || value[y] > hi) continue;
      ws_visited_[y] = 1;
      ws_stack_.push_back(y);
      scope.push_back(y);
    }
  }
  // The visited set is exactly the scope; clearing it here restores the
  // all-zero invariant in O(|scope|) instead of reallocating O(n).
  for (VertexId x : scope) ws_visited_[x] = 0;
  return scope;
}

void DynamicDeltaIndex::RecomputeScoped(std::vector<uint32_t>& value,
                                        uint32_t tau, bool fix_upper,
                                        const std::vector<VertexId>& scope) {
  const uint32_t n = NumVertices();
  auto is_fixed = [&](VertexId x) { return (x < num_upper_) == fix_upper; };

  // All ws_ arrays hold their between-calls invariant (alive/in_scope
  // all-zero, deg stale-but-unread); only the O(|scope|) slice is touched.
  ws_in_scope_.resize(n, 0);
  ws_deg_.resize(n, 0);
  ws_alive_.resize(n, 0);
  for (VertexId x : scope) ws_in_scope_[x] = 1;

  // Degrees inside the scoped subgraph plus boundary support: an external
  // neighbour with (unchanged) offset V supports scope vertices for every
  // level ≤ V, so it contributes to the degree until level V "expires".
  ws_expiry_.clear();  // (level, target)
  uint32_t max_level = 1;
  for (VertexId x : scope) {
    uint32_t d = 0;
    for (const Arc& a : adj_[x]) {
      VertexId y = a.to;
      if (ws_in_scope_[y]) {
        ++d;
      } else if (value[y] >= 1) {
        ++d;
        ws_expiry_.emplace_back(value[y], x);
        max_level = std::max(max_level, value[y]);
      }
    }
    ws_deg_[x] = d;
    if (!is_fixed(x)) max_level = std::max(max_level, d);
  }
  std::sort(ws_expiry_.begin(), ws_expiry_.end());

  for (VertexId x : scope) ws_alive_[x] = 1;

  // Level-L removal: x leaves the core while moving to level L+1, so its
  // new offset is L (0 if it already fails the (τ,1)-level constraints).
  // Out-of-scope vertices are never alive, so the kernel's alive check
  // subsumes the scope filter.
  LevelPeeler peeler(
      ws_deg_, ws_alive_, tau, max_level,
      [&](VertexId x, auto&& visit) {
        for (const Arc& a : adj_[x]) visit(a.to);
      },
      is_fixed, [&](VertexId x, uint32_t level) { value[x] = level; },
      &ws_peel_);
  peeler.Start(scope);

  std::size_t expiry_ptr = 0;
  // Skip boundary supports that vanished during the initial peel: their
  // holders are dead already, and decrements on dead vertices are ignored
  // anyway, so the pointer can simply start at level 1.
  for (uint32_t level = 1; level <= max_level && peeler.alive_count() > 0;
       ++level) {
    peeler.RunLevel(level);
    // Boundary supports with offset == level expire now; the loss still
    // counts against membership at this level (offset stays `level`).
    while (expiry_ptr < ws_expiry_.size() &&
           ws_expiry_[expiry_ptr].first == level) {
      peeler.Decrement(ws_expiry_[expiry_ptr].second, level);
      ++expiry_ptr;
    }
  }
  // Defensive: anything still alive survived every level we can justify
  // (and must be killed to restore the all-zero alive invariant).
  for (VertexId x : scope) {
    if (ws_alive_[x]) {
      value[x] = max_level;
      ws_alive_[x] = 0;
    }
    ws_in_scope_[x] = 0;
  }
}

void DynamicDeltaIndex::UpdateLevel(std::vector<uint32_t>& value,
                                    uint32_t tau, bool fix_upper, VertexId u,
                                    VertexId v, bool is_insert) {
  const uint32_t k = std::min(value[u], value[v]);
  if (!is_insert && k == 0) {
    return;  // the edge belonged to no level-≥1 core: offsets unchanged
  }
  const uint32_t kMax = std::numeric_limits<uint32_t>::max();
  // Insertion: risers have old offset ≥ K and connect to the edge through
  // vertices with offset ≥ K, so that whole reachable region is recomputed
  // at once (mutually-supporting groups must rise together — a smaller
  // seed grown lazily can get stuck at a lower fixpoint). Removal: every
  // drop is caused by a dropping neighbour with offset in [1, K], so the
  // [1, K]-reachable region suffices as the seed.
  std::vector<VertexId> scope = is_insert
                                    ? CollectScope(value, k, kMax, {u, v})
                                    : CollectScope(value, 1, k, {u, v});

  // Trigger rounds (safety net): recompute the scope against its ORIGINAL
  // offsets and grow it whenever a changed vertex crossed an out-of-scope
  // neighbour's critical threshold — i.e. that neighbour's own offset
  // might move. Terminates because the scope grows strictly; the final
  // fixpoint is exact because every untouched boundary vertex keeps all
  // its supports. ws_update_mark_ is a lent all-zero buffer, restored
  // before every return.
  ws_update_mark_.resize(adj_.size(), 0);
  for (VertexId x : scope) ws_update_mark_[x] = 1;
  auto clear_marks = [&] {
    for (VertexId x : scope) ws_update_mark_[x] = 0;
  };
  std::unordered_map<VertexId, uint32_t> saved;
  for (int round = 0; round < 1024; ++round) {
    for (VertexId x : scope) saved.try_emplace(x, value[x]);
    for (const auto& [x, old] : saved) value[x] = old;
    RecomputeScoped(value, tau, fix_upper, scope);

    bool expanded = false;
    const std::size_t scope_size = scope.size();
    for (std::size_t i = 0; i < scope_size; ++i) {
      const VertexId x = scope[i];
      const uint32_t old = saved[x];
      if (value[x] == old) continue;
      for (const Arc& a : adj_[x]) {
        const VertexId y = a.to;
        if (ws_update_mark_[y]) continue;
        const uint64_t vy = value[y];
        const bool affected = is_insert ? (old < vy + 1 && vy + 1 <= value[x])
                                        : (value[x] < vy && vy <= old);
        if (affected) {
          ws_update_mark_[y] = 1;
          scope.push_back(y);
          expanded = true;
        }
      }
    }
    if (!expanded) {
      clear_marks();
      for (VertexId x : scope) MarkTouched(x);
      return;
    }
  }
  // Pathological expansion (should not happen): fall back to the whole
  // connected region so correctness is never at risk.
  clear_marks();
  for (const auto& [x, old] : saved) value[x] = old;
  std::vector<VertexId> full = CollectScope(value, 0, kMax, {u, v});
  RecomputeScoped(value, tau, fix_upper, full);
  for (VertexId x : full) MarkTouched(x);
}

bool DynamicDeltaIndex::KkCoreNonEmpty(uint32_t k) {
  const uint32_t n = NumVertices();
  // Reuses the scoped-recompute buffers (alive is left dirty here; it is
  // refilled wholesale on every use, unlike the scoped paths' invariant).
  ws_deg_.resize(n);
  ws_alive_.assign(n, 1);
  for (VertexId x = 0; x < n; ++x) {
    ws_deg_[x] = static_cast<uint32_t>(adj_[x].size());
  }
  uint32_t remaining = n;
  ThresholdPeel(
      n, ws_deg_, ws_alive_,
      [&](VertexId x, auto&& visit) {
        for (const Arc& a : adj_[x]) visit(a.to);
      },
      [k](VertexId) { return k; }, [&](VertexId) { --remaining; },
      &ws_stack_);
  std::fill(ws_alive_.begin(), ws_alive_.end(), 0);
  return remaining > 0;
}

void DynamicDeltaIndex::MaybeGrowDelta() {
  while (KkCoreNonEmpty(delta_ + 1)) {
    ++delta_;
    summary_.delta_changed = true;
    const BipartiteGraph snapshot = ExportGraph();
    sa_.push_back(ComputeAlphaOffsets(snapshot, delta_));
    sb_.push_back(ComputeBetaOffsets(snapshot, delta_));
  }
}

void DynamicDeltaIndex::MaybeShrinkDelta() {
  const uint32_t before = delta_;
  while (delta_ >= 1) {
    const std::vector<uint32_t>& top = sa_[delta_ - 1];
    bool nonempty = false;
    for (uint32_t x : top) {
      if (x >= delta_) {
        nonempty = true;
        break;
      }
    }
    if (nonempty) break;
    sa_.pop_back();
    sb_.pop_back();
    --delta_;
  }
  if (delta_ != before) summary_.delta_changed = true;
}

void DynamicDeltaIndex::MarkTouched(VertexId x) {
  summary_touched_.resize(adj_.size(), 0);
  if (summary_touched_[x]) return;
  summary_touched_[x] = 1;
  summary_.touched.push_back(x);
}

UpdateSummary DynamicDeltaIndex::DrainSummary() {
  summary_.epoch = epoch_;
  UpdateSummary out = std::move(summary_);
  summary_ = UpdateSummary{};
  for (VertexId x : out.touched) summary_touched_[x] = 0;
  return out;
}

Status DynamicDeltaIndex::InsertEdge(VertexId u, VertexId v, Weight w) {
  if (u >= num_upper_ || v < num_upper_ || v >= NumVertices()) {
    return Status::InvalidArgument("endpoints must be (upper, lower)");
  }
  for (const Arc& a : adj_[u]) {
    if (a.to == v) return Status::InvalidArgument("edge already exists");
  }
  const EdgeId eid = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, w});
  edge_alive_.push_back(1);
  adj_[u].push_back(Arc{v, eid});
  adj_[v].push_back(Arc{u, eid});
  ++num_alive_edges_;

  for (uint32_t tau = 1; tau <= delta_; ++tau) {
    // The new edge can only enter a (τ,·)-core if its fixed-side endpoint
    // has enough total degree; below that, nothing changes at this τ.
    if (adj_[u].size() >= tau) {
      UpdateLevel(sa_[tau - 1], tau, /*fix_upper=*/true, u, v,
                  /*is_insert=*/true);
    }
    if (adj_[v].size() >= tau) {
      UpdateLevel(sb_[tau - 1], tau, /*fix_upper=*/false, u, v,
                  /*is_insert=*/true);
    }
  }
  MaybeGrowDelta();
  ++epoch_;
  summary_.topology_changed = true;
  MarkTouched(u);
  MarkTouched(v);
  return Status::OK();
}

Status DynamicDeltaIndex::RemoveEdge(VertexId u, VertexId v) {
  if (u >= num_upper_ || v < num_upper_ || v >= NumVertices()) {
    return Status::InvalidArgument("endpoints must be (upper, lower)");
  }
  EdgeId eid = kInvalidEdge;
  for (const Arc& a : adj_[u]) {
    if (a.to == v) {
      eid = a.eid;
      break;
    }
  }
  if (eid == kInvalidEdge) return Status::NotFound("edge does not exist");

  auto erase_arc = [&](VertexId from, VertexId to) {
    auto& list = adj_[from];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].to == to) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
  };
  erase_arc(u, v);
  erase_arc(v, u);
  edge_alive_[eid] = 0;
  --num_alive_edges_;

  for (uint32_t tau = 1; tau <= delta_; ++tau) {
    UpdateLevel(sa_[tau - 1], tau, /*fix_upper=*/true, u, v,
                /*is_insert=*/false);
    UpdateLevel(sb_[tau - 1], tau, /*fix_upper=*/false, u, v,
                /*is_insert=*/false);
  }
  MaybeShrinkDelta();
  ++epoch_;
  summary_.topology_changed = true;
  MarkTouched(u);
  MarkTouched(v);
  return Status::OK();
}

Status DynamicDeltaIndex::UpdateWeight(VertexId u, VertexId v, Weight w) {
  if (u >= num_upper_ || v < num_upper_ || v >= NumVertices()) {
    return Status::InvalidArgument("endpoints must be (upper, lower)");
  }
  for (const Arc& a : adj_[u]) {
    if (a.to == v) {
      edges_[a.eid].w = w;
      ++epoch_;
      summary_.weights_changed = true;
      return Status::OK();
    }
  }
  return Status::NotFound("edge does not exist");
}

BipartiteGraph DynamicDeltaIndex::ExportGraph() const {
  GraphBuilder builder;
  builder.Reserve(num_upper_, NumVertices() - num_upper_, num_alive_edges_);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (!edge_alive_[e]) continue;
    builder.AddEdge(edges_[e].u, edges_[e].v - num_upper_, edges_[e].w);
  }
  BipartiteGraph out;
  Status st = builder.Build(&out);
  (void)st;
  return out;
}

BicoreDecomposition DynamicDeltaIndex::ExportDecomposition() const {
  // CSR slice invariant (abcore/offsets.h): v's slice holds levels
  // 1..L(v) where L(v) is the last τ with a nonzero offset, and offsets
  // are non-increasing in τ — so L(v) is the length of the nonzero prefix
  // of v's dense column.
  const uint32_t n = NumVertices();
  BicoreDecomposition d;
  d.delta = delta_;
  const auto pack = [&](const std::vector<std::vector<uint32_t>>& rows,
                        OffsetArena* arena) {
    std::vector<uint32_t>& start = arena->start.Mutable();
    start.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      uint32_t levels = 0;
      while (levels < delta_ && rows[levels][v] >= 1) ++levels;
      start[v + 1] = start[v] + levels;
    }
    std::vector<uint32_t>& values = arena->values.Mutable();
    values.assign(start[n], 0);
    for (VertexId v = 0; v < n; ++v) {
      const uint32_t levels = start[v + 1] - start[v];
      for (uint32_t tau = 0; tau < levels; ++tau) {
        values[start[v] + tau] = rows[tau][v];
      }
    }
  };
  pack(sa_, &d.alpha);
  pack(sb_, &d.beta);
  return d;
}

}  // namespace abcs
