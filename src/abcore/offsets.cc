#include "abcore/offsets.h"

#include <algorithm>
#include <atomic>
#include <ranges>
#include <thread>

#include "abcore/degeneracy.h"
#include "abcore/peel_kernel.h"

namespace abcs {

namespace {

/// Offset computation on top of the shared level-wise kernel.
///
/// One side of the bipartition is *fixed*: its vertices must keep degree
/// ≥ k throughout (upper for α-offsets, lower for β-offsets). The other
/// side is *ranked*: peeling proceeds in levels L = 1, 2, ... and the level
/// at which a vertex dies is its offset — the maximal second core parameter
/// for which it is still in the core. Fixed-side deaths during level L also
/// record offset L. Vertices eliminated while establishing the initial
/// (k,1)- or (1,k)-core get offset 0. O(m). All per-call state lives in
/// `ws`; the result is `ws.offset`.
void ComputeOffsetsInto(const BipartiteGraph& g, uint32_t k, bool fix_upper,
                        OffsetWorkspace& ws) {
  const uint32_t n = g.NumVertices();
  ws.offset.assign(n, 0);
  ws.alive.assign(n, 1);
  ws.deg.assign(n, 0);

  auto is_fixed = [&](VertexId v) { return g.IsUpper(v) == fix_upper; };

  uint32_t max_ranked_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    ws.deg[v] = g.Degree(v);
    if (!is_fixed(v)) max_ranked_deg = std::max(max_ranked_deg, ws.deg[v]);
  }

  LevelPeeler peeler(
      ws.deg, ws.alive, k, max_ranked_deg, GraphNeighbors(g), is_fixed,
      [&](VertexId v, uint32_t level) { ws.offset[v] = level; }, &ws.peel);
  peeler.Start(std::views::iota(VertexId{0}, n));
  for (uint32_t level = 1; level <= max_ranked_deg && peeler.alive_count() > 0;
       ++level) {
    peeler.RunLevel(level);
  }
}

std::vector<uint32_t> ComputeOffsetsImpl(const BipartiteGraph& g, uint32_t k,
                                         bool fix_upper) {
  OffsetWorkspace ws;
  ComputeOffsetsInto(g, k, fix_upper, ws);
  return std::move(ws.offset);
}

// ------------------------------------------------- incremental chains --

/// Per-worker state for one side's τ-chain (or a contiguous chunk of it).
///
/// `deg`/`alive`/`frontier` hold the *persistent* (τ,1)-core: tightening
/// from τ to τ+1 only removes the vertices that newly violate the fixed
/// constraint, cascading through the shared ThresholdPeelRange kernel, so
/// carrying the core forward costs O(removed vertices + their arcs)
/// instead of a fresh O(m) peel. Each level's ranked peel is destructive,
/// so it runs on the `work_*` copies — restored in O(|core|) per τ, not
/// O(n): `work_alive` returns to all-zero by itself because every frontier
/// vertex dies during the ranked peel.
struct ChainState {
  std::vector<uint32_t> deg;
  std::vector<uint8_t> alive;
  std::vector<VertexId> frontier;
  std::vector<uint32_t> work_deg;
  std::vector<uint8_t> work_alive;
  std::vector<VertexId> queue;
  LevelPeelScratch peel;
};

/// Runs levels [tau_lo, tau_hi] of one chain, writing each level's offsets
/// into the pre-laid-out arena slices. The arena layout already encodes
/// chain membership — Levels(v) ≥ τ ⇔ v ∈ (τ,1)-core (the slice lengths
/// come from the τ = 1 offsets of the opposite side) — so the chunk seeds
/// its starting core *directly from the layout* in O(n + vol(core_lo))
/// instead of peeling the whole graph down, then runs incrementally;
/// total work is the seed plus Σ_τ |E(core_τ)|.
void RunChainChunk(const BipartiteGraph& g, bool fix_upper, uint32_t tau_lo,
                   uint32_t tau_hi, const OffsetArena& arena,
                   uint32_t* arena_values, ChainState& st) {
  const uint32_t n = g.NumVertices();
  auto is_fixed = [&](VertexId v) { return g.IsUpper(v) == fix_upper; };
  // Build-time arenas are always owned; hoist the raw pointer (like
  // arena_values) so the hot peel callback skips the ownership branch.
  const uint32_t* const arena_start = arena.start.data();

  const auto levels = [arena_start](VertexId v) {
    return arena_start[v + 1] - arena_start[v];
  };
  st.alive.assign(n, 0);
  st.deg.resize(n);
  st.work_deg.resize(n);
  st.work_alive.assign(n, 0);
  st.frontier.clear();
  for (VertexId v = 0; v < n; ++v) {
    if (levels(v) >= tau_lo) {
      st.alive[v] = 1;
      st.frontier.push_back(v);
    }
  }
  for (const VertexId v : st.frontier) {
    uint32_t d = 0;
    for (const Arc& a : g.Neighbors(v)) {
      if (levels(a.to) >= tau_lo) ++d;
    }
    st.deg[v] = d;
  }

  for (uint32_t tau = tau_lo; tau <= tau_hi; ++tau) {
    // Tighten the carried core to the (τ,1)-core (resp. (1,τ)): only the
    // frontier needs scanning, and only newly-failing vertices cascade.
    ThresholdPeelRange(
        st.frontier, st.deg, st.alive, GraphNeighbors(g),
        [&](VertexId v) { return is_fixed(v) ? tau : 1u; }, [](VertexId) {},
        &st.queue);
    std::erase_if(st.frontier, [&](VertexId v) { return !st.alive[v]; });
    if (st.frontier.empty()) break;

    // Ranked peel on a copy of the surviving core; the removal level of a
    // vertex is its offset at this τ. Frontier vertices satisfy the base
    // constraints exactly, so every recorded offset is ≥ 1 and lands
    // inside the vertex's arena slice (slice length ≥ τ by construction).
    uint32_t max_ranked_deg = 0;
    for (const VertexId v : st.frontier) {
      st.work_deg[v] = st.deg[v];
      st.work_alive[v] = 1;
      if (!is_fixed(v)) max_ranked_deg = std::max(max_ranked_deg, st.deg[v]);
    }
    LevelPeeler peeler(
        st.work_deg, st.work_alive, tau, max_ranked_deg, GraphNeighbors(g),
        is_fixed,
        [&](VertexId v, uint32_t level) {
          arena_values[arena_start[v] + tau - 1] = level;
        },
        &st.peel);
    peeler.Start(st.frontier);
    for (uint32_t level = 1;
         level <= max_ranked_deg && peeler.alive_count() > 0; ++level) {
      peeler.RunLevel(level);
    }
  }
}

/// CSR layout from per-vertex slice lengths: `len(v)` values per vertex.
template <typename SliceLen>
void LayoutArena(uint32_t n, SliceLen&& len, OffsetArena* arena) {
  std::vector<uint32_t>& start = arena->start.Mutable();
  start.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    start[v + 1] = start[v] + len(v);
  }
  arena->values.Mutable().assign(start[n], 0);
}

/// Shared frame of all three builds: δ, the two O(m) seed peels at τ = 1
/// (which both bound the arena layout — v's α-side slice ends at the last
/// τ with v ∈ (τ,1)-core, i.e. s_b(v,1) — and ARE the τ = 1 slices), and
/// the laid-out arenas with level 1 filled.
BicoreDecomposition LayoutDecomposition(const BipartiteGraph& g) {
  BicoreDecomposition d;
  uint32_t delta = 0;
  for (uint32_t c : KCoreNumbers(g)) delta = std::max(delta, c);
  d.delta = delta;
  const uint32_t n = g.NumVertices();
  if (delta == 0) {
    LayoutArena(n, [](VertexId) { return 0u; }, &d.alpha);
    LayoutArena(n, [](VertexId) { return 0u; }, &d.beta);
    return d;
  }

  const std::vector<uint32_t> sa1 = ComputeAlphaOffsets(g, 1);
  const std::vector<uint32_t> sb1 = ComputeBetaOffsets(g, 1);
  LayoutArena(
      n, [&](VertexId v) { return std::min(delta, sb1[v]); }, &d.alpha);
  LayoutArena(
      n, [&](VertexId v) { return std::min(delta, sa1[v]); }, &d.beta);
  std::vector<uint32_t>& alpha_values = d.alpha.values.Mutable();
  std::vector<uint32_t>& beta_values = d.beta.values.Mutable();
  for (VertexId v = 0; v < n; ++v) {
    if (d.alpha.Levels(v) >= 1) alpha_values[d.alpha.start[v]] = sa1[v];
    if (d.beta.Levels(v) >= 1) beta_values[d.beta.start[v]] = sb1[v];
  }
  return d;
}

}  // namespace

std::vector<uint32_t> ComputeAlphaOffsets(const BipartiteGraph& g,
                                          uint32_t alpha) {
  return ComputeOffsetsImpl(g, alpha, /*fix_upper=*/true);
}

std::vector<uint32_t> ComputeBetaOffsets(const BipartiteGraph& g,
                                         uint32_t beta) {
  return ComputeOffsetsImpl(g, beta, /*fix_upper=*/false);
}

const std::vector<uint32_t>& ComputeAlphaOffsets(const BipartiteGraph& g,
                                                 uint32_t alpha,
                                                 OffsetWorkspace& ws) {
  ComputeOffsetsInto(g, alpha, /*fix_upper=*/true, ws);
  return ws.offset;
}

const std::vector<uint32_t>& ComputeBetaOffsets(const BipartiteGraph& g,
                                                uint32_t beta,
                                                OffsetWorkspace& ws) {
  ComputeOffsetsInto(g, beta, /*fix_upper=*/false, ws);
  return ws.offset;
}

BicoreDecomposition ComputeBicoreDecomposition(const BipartiteGraph& g) {
  return ComputeBicoreDecompositionParallel(g, 1);
}

BicoreDecomposition ComputeBicoreDecompositionParallel(
    const BipartiteGraph& g, unsigned num_threads) {
  BicoreDecomposition d = LayoutDecomposition(g);
  if (d.delta <= 1) return d;  // τ = 1 already filled by the layout peels

  // Levels [2, δ] of each chain, split into contiguous chunks. Each chunk
  // seeds from scratch (one O(m) tighten) then runs incrementally, so the
  // chunk count trades seeding overhead against parallelism: one chunk per
  // worker and chain keeps the total seeding cost at 2·T·O(m).
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  num_threads = std::max(1u, num_threads);
  const uint32_t span = d.delta - 1;  // τ ∈ [2, δ]
  const uint32_t chunks = std::min<uint32_t>(num_threads, span);

  struct Chunk {
    bool fix_upper;
    uint32_t lo, hi;
    OffsetArena* arena;
    uint32_t* values;  ///< mutable value array, materialised pre-spawn
  };
  // Freshly laid-out arenas are owned, so Mutable() is allocation-free
  // here; taking the pointers on this thread keeps the workers read-only
  // on the ArenaStorage itself.
  uint32_t* const alpha_values = d.alpha.values.Mutable().data();
  uint32_t* const beta_values = d.beta.values.Mutable().data();
  std::vector<Chunk> tasks;
  tasks.reserve(2 * chunks);
  for (uint32_t c = 0; c < chunks; ++c) {
    const uint32_t lo = 2 + c * span / chunks;
    const uint32_t hi = 2 + (c + 1) * span / chunks - 1;
    // Interleave the sides so the heavy low-τ chunks are claimed first.
    tasks.push_back({true, lo, hi, &d.alpha, alpha_values});
    tasks.push_back({false, lo, hi, &d.beta, beta_values});
  }

  // Chunks write disjoint (τ, v) arena cells, so workers share nothing but
  // the task counter; the result is the mathematical offset table and thus
  // bit-identical for every thread count.
  std::atomic<uint32_t> next_task{0};
  auto worker = [&]() {
    ChainState st;
    for (;;) {
      const uint32_t i = next_task.fetch_add(1);
      if (i >= tasks.size()) return;
      const Chunk& task = tasks[i];
      RunChainChunk(g, task.fix_upper, task.lo, task.hi, *task.arena,
                    task.values, st);
    }
  };
  const unsigned spawn =
      std::min<unsigned>(num_threads, static_cast<unsigned>(tasks.size()));
  if (spawn == 1) {
    worker();  // inline on the caller: no spawn, paper-faithful timing
    return d;
  }
  std::vector<std::thread> threads;
  threads.reserve(spawn);
  for (unsigned t = 0; t < spawn; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return d;
}

BicoreDecomposition ComputeBicoreDecompositionNaive(const BipartiteGraph& g) {
  BicoreDecomposition d = LayoutDecomposition(g);
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t>& alpha_values = d.alpha.values.Mutable();
  std::vector<uint32_t>& beta_values = d.beta.values.Mutable();
  OffsetWorkspace ws;
  for (uint32_t tau = 2; tau <= d.delta; ++tau) {
    const std::vector<uint32_t>& sa = ComputeAlphaOffsets(g, tau, ws);
    for (VertexId v = 0; v < n; ++v) {
      if (d.alpha.Levels(v) >= tau) {
        alpha_values[d.alpha.start[v] + tau - 1] = sa[v];
      }
    }
    const std::vector<uint32_t>& sb = ComputeBetaOffsets(g, tau, ws);
    for (VertexId v = 0; v < n; ++v) {
      if (d.beta.Levels(v) >= tau) {
        beta_values[d.beta.start[v] + tau - 1] = sb[v];
      }
    }
  }
  return d;
}

}  // namespace abcs
