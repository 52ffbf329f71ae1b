#ifndef ABCS_ABCORE_OFFSETS_H_
#define ABCS_ABCORE_OFFSETS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "abcore/peel_kernel.h"
#include "graph/bipartite_graph.h"
#include "io/arena_storage.h"

namespace abcs {

/// \brief α-offsets `s_a(·, α)` for a fixed α (Definition 6).
///
/// `result[v]` is the maximal β such that `v` is contained in the
/// (α,β)-core, or 0 if `v` is not even in the (α,1)-core. Defined for
/// vertices of *both* layers. Computed by level-wise peeling of the
/// (α,1)-core in O(m).
std::vector<uint32_t> ComputeAlphaOffsets(const BipartiteGraph& g,
                                          uint32_t alpha);

/// β-offsets `s_b(·, β)` for a fixed β: `result[v]` is the maximal α such
/// that `v` is in the (α,β)-core (0 if not in the (1,β)-core).
std::vector<uint32_t> ComputeBetaOffsets(const BipartiteGraph& g,
                                         uint32_t beta);

/// \brief Lent buffers for the offset peels: the O(n) offset/degree/alive
/// arrays, the threshold-peel work queue and the level-peel bucket pool.
/// Callers running many peels keep one instance so repeated recomputes
/// stop allocating 3×O(n) arrays per call (capacity is retained across
/// uses) — e.g. the naive decomposition baseline's 2δ peels.
struct OffsetWorkspace {
  std::vector<uint32_t> offset;
  std::vector<uint32_t> deg;
  std::vector<uint8_t> alive;
  std::vector<VertexId> queue;
  LevelPeelScratch peel;
};

/// Workspace forms: identical results, computed into `ws.offset` (returned
/// by reference, valid until the next call on `ws`) with zero steady-state
/// heap allocations.
const std::vector<uint32_t>& ComputeAlphaOffsets(const BipartiteGraph& g,
                                                 uint32_t alpha,
                                                 OffsetWorkspace& ws);
const std::vector<uint32_t>& ComputeBetaOffsets(const BipartiteGraph& g,
                                                uint32_t beta,
                                                OffsetWorkspace& ws);

/// \brief One side of the decomposition in compact CSR form: vertex `v`
/// owns the slice `values[start[v] .. start[v+1])` holding s(v, τ) for
/// τ = 1 .. Levels(v), where Levels(v) is v's last level with a nonzero
/// offset (clamped to δ). Offsets are non-increasing in τ and every stored
/// value is ≥ 1, so `At` answers any τ exactly: past-the-slice levels are
/// 0 by definition. Total size Σ_v Levels(v) instead of the dense δ·n.
/// Both arrays live in `ArenaStorage`: owned by a fresh build, or borrowed
/// zero-copy views into an opened index bundle (io/index_bundle.h).
struct OffsetArena {
  ArenaStorage<uint32_t> start;   ///< size n+1
  ArenaStorage<uint32_t> values;  ///< concatenated per-vertex slices

  uint32_t Levels(VertexId v) const { return start[v + 1] - start[v]; }
  uint32_t At(uint32_t tau, VertexId v) const {
    const uint32_t base = start[v];
    return (tau >= 1 && tau <= start[v + 1] - base) ? values[base + tau - 1]
                                                    : 0;
  }
  std::size_t Bytes() const {
    return start.size() * sizeof(uint32_t) + values.size() * sizeof(uint32_t);
  }
  friend bool operator==(const OffsetArena&, const OffsetArena&) = default;
};

/// \brief The degeneracy-bounded bicore decomposition: α- and β-offsets for
/// every τ ∈ [1, δ], stored as two compact offset arenas.
///
/// By Lemma 4 every nonempty (α,β)-core has min(α,β) ≤ δ, so this table
/// determines membership of *any* (α,β)-core:
/// `v ∈ (α,β)-core ⇔ (α ≤ β ? sa(α, v) ≥ β : sb(β, v) ≥ α)` whenever
/// min(α,β) ≤ δ, and the core is empty otherwise. This is the shared
/// substrate of the bicore index I_v and the degeneracy-bounded index I_δ.
struct BicoreDecomposition {
  uint32_t delta = 0;
  OffsetArena alpha;  ///< s_a(·, τ) slices
  OffsetArena beta;   ///< s_b(·, τ) slices

  /// s_a(v, τ) for any τ ≥ 1 (exact for τ ≤ δ; 0 beyond a vertex's slice).
  uint32_t sa(uint32_t tau, VertexId v) const { return alpha.At(tau, v); }
  /// s_b(v, τ), symmetrically.
  uint32_t sb(uint32_t tau, VertexId v) const { return beta.At(tau, v); }

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(alpha.start.empty() ? 0
                                                     : alpha.start.size() - 1);
  }
  /// Retained bytes of the offset table (the Fig. 11 memory axis).
  std::size_t MemoryBytes() const { return alpha.Bytes() + beta.Bytes(); }
  friend bool operator==(const BicoreDecomposition&,
                         const BicoreDecomposition&) = default;
};

/// Bytes the pre-arena representation used for the same table: 2δ dense
/// n-arrays of uint32_t. The compaction baseline reported by the benches.
constexpr std::size_t DenseDecompositionBytes(uint32_t delta, uint32_t n) {
  return static_cast<std::size_t>(2) * delta * n * sizeof(uint32_t);
}

/// Peak transient working set of the incremental decomposition build on
/// top of the retained arenas: the two O(n) layout seed arrays plus each
/// worker's chain state (persistent deg/alive and their ranked-peel work
/// copies). The frontier/queue lists and bucket queues are excluded — they
/// are O(|core|), not O(n), and dwarfed by the n-arrays on every registry
/// dataset. For comparison, the old dense build retained 2δ·n·4 bytes
/// (`DenseDecompositionBytes`) *plus* a 9n-byte peel workspace.
constexpr std::size_t DecompositionBuildTransientBytes(uint32_t n,
                                                       unsigned workers) {
  const std::size_t seed = 2u * n * sizeof(uint32_t);
  const std::size_t per_worker =
      static_cast<std::size_t>(n) *
      (2 * sizeof(uint32_t) + 2 * sizeof(uint8_t));
  return seed + workers * per_worker;
}

/// Computes the full δ-bounded decomposition (Algorithm 3's offset phase),
/// output-sensitively: within each side the (τ+1,1)-core is obtained from
/// the (τ,1)-core by an incremental tighten instead of a fresh O(m) peel,
/// so total work is O(m + Σ_τ |E((τ,1)-core)| + |E((1,τ)-core)|) rather
/// than the naive 2δ·m.
BicoreDecomposition ComputeBicoreDecomposition(const BipartiteGraph& g);

/// Parallel variant: each side's τ-chain is split into contiguous τ-chunks
/// distributed over `num_threads` worker threads (0 = hardware
/// concurrency; an effective count of 1 runs inline with no thread
/// spawned). Each chunk seeds its first core from scratch and then runs
/// incrementally, so multicore scaling composes with the output-sensitive
/// win. Bit-identical to the serial (and naive) result.
BicoreDecomposition ComputeBicoreDecompositionParallel(
    const BipartiteGraph& g, unsigned num_threads = 0);

/// Reference build: the naive 2δ independent full-graph peels, one per
/// (side, τ). Same result, Θ(δ·m) work — kept as the equivalence-test
/// oracle and the BENCH_build.json baseline.
BicoreDecomposition ComputeBicoreDecompositionNaive(const BipartiteGraph& g);

}  // namespace abcs

#endif  // ABCS_ABCORE_OFFSETS_H_
