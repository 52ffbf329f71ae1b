#ifndef ABCS_CORE_MAINTENANCE_H_
#define ABCS_CORE_MAINTENANCE_H_

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "abcore/offsets.h"
#include "abcore/peel_kernel.h"
#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// \brief Dynamically maintained degeneracy-bounded index (paper §III-B,
/// "Discussion of index maintenance").
///
/// Holds a mutable copy of the graph plus the offset tables s_a(·,τ) and
/// s_b(·,τ) for every τ ≤ δ. Edge insertions and removals update the
/// offsets *locally* instead of rebuilding:
///
///  - Only (τ,β)-cores whose vertex set contains *both* endpoints of the
///    updated edge can change, so every affected vertex is reachable from
///    the edge through vertices with offset ≥ K (insertion,
///    K = min(offset(u), offset(v))) resp. ≥ 1 (removal) — the paper's
///    S⁺/S⁻ sets, found by a localized BFS.
///  - The scope is then re-peeled level by level; out-of-scope neighbours
///    act as boundary supports that expire once the level exceeds their
///    (provably unchanged) offset, making the local recomputation exact.
///    Note the classic "±1 per update" k-core bound does NOT hold here:
///    a fixed-side vertex (threshold τ at every level) can jump multiple
///    levels when it gains or loses a single high-offset neighbour, which
///    is why a full scoped re-peel is used instead of a promote/demote
///    pass.
///
/// δ itself may grow or shrink by one per update; growing triggers a full
/// offset computation for the single new level.
///
/// The class answers no queries itself: a reader is served by a static
/// `DeltaIndex` built from `ExportGraph()` and `ExportDecomposition()`, as
/// every published serving epoch is (src/serve/snapshot.h).
///
/// Correctness of the incremental rules is enforced by property tests that
/// replay random update streams against full recomputation
/// (tests/maintenance_test.cc).
/// \brief A drained account of everything a `DynamicDeltaIndex` mutated
/// since the previous drain — the contract the serve memo's selective
/// invalidation relies on (src/serve/memo.h).
///
/// `touched` is a deduplicated superset of every vertex whose offsets may
/// have changed: the update endpoints plus every vertex of every scoped
/// re-peel. Any vertex absent from `touched` provably kept all its offset
/// values, hence its community memberships, for every (α,β).
struct UpdateSummary {
  uint64_t epoch = 0;             ///< index epoch at drain time
  bool topology_changed = false;  ///< any insert/remove applied
  bool weights_changed = false;   ///< any weight update applied
  bool delta_changed = false;     ///< δ grew or shrank (global effect)
  std::vector<VertexId> touched;
};

class DynamicDeltaIndex {
 public:
  /// Seeds the dynamic index from `g` (the graph is copied; `g` need not
  /// outlive the index). When `decomp` is non-null it is copied-on-write
  /// into the mutable per-level rows instead of being recomputed — the
  /// restart path: open a bundle (io/index_bundle.h) and seed updates from
  /// its mmap'd arenas without a single offset peel. A decomposition whose
  /// vertex count does not match `g` is ignored (recomputed) rather than
  /// trusted. Neither `g` nor `decomp` needs to outlive the index.
  explicit DynamicDeltaIndex(const BipartiteGraph& g,
                             const BicoreDecomposition* decomp = nullptr);

  uint32_t delta() const { return delta_; }
  uint32_t NumUpper() const { return num_upper_; }
  uint32_t NumVertices() const { return static_cast<uint32_t>(adj_.size()); }
  /// Number of currently alive edges.
  uint32_t NumAliveEdges() const { return num_alive_edges_; }

  /// Inserts edge (u, v) with weight `w`; `u` must be an upper vertex and
  /// `v` a lower vertex (unified ids). Fails if the edge already exists.
  Status InsertEdge(VertexId u, VertexId v, Weight w);

  /// Removes edge (u, v). Fails if absent.
  Status RemoveEdge(VertexId u, VertexId v);

  /// Re-weights existing edge (u, v) to `w`. Offsets are topology-only so
  /// no re-peel runs; only the weight table and the epoch advance. Fails
  /// if the edge is absent.
  Status UpdateWeight(VertexId u, VertexId v, Weight w);

  /// Monotone version counter: starts at 0, +1 per successful mutation.
  /// Cheap enough to poll on every query admission.
  uint64_t Epoch() const { return epoch_; }

  /// Returns the accumulated change summary and resets the accumulator.
  /// Called by the serve writer at each publish boundary.
  UpdateSummary DrainSummary();

  /// Current offset values (1-based τ ≤ delta()); exposed for tests.
  uint32_t OffsetAlpha(uint32_t tau, VertexId v) const {
    return sa_[tau - 1][v];
  }
  uint32_t OffsetBeta(uint32_t tau, VertexId v) const {
    return sb_[tau - 1][v];
  }

  /// Compacts the alive edges into an immutable snapshot (fresh edge ids,
  /// same vertex ids). Used by tests to cross-check against full rebuilds.
  BipartiteGraph ExportGraph() const;

  /// Packs the maintained dense offset rows into the compact CSR arena
  /// form — the publish path's free ride: snapshots and compaction bundles
  /// reuse the incrementally maintained decomposition instead of re-peeling
  /// 2δ levels from scratch. Bit-identical to a fresh
  /// ComputeBicoreDecomposition of ExportGraph().
  BicoreDecomposition ExportDecomposition() const;

 private:
  /// Updates one offset table after inserting/removing edge (u, v): finds
  /// the affected scope (the paper's S⁺/S⁻) and re-peels it with boundary
  /// support from unchanged neighbours.
  void UpdateLevel(std::vector<uint32_t>& value, uint32_t tau, bool fix_upper,
                   VertexId u, VertexId v, bool is_insert);
  /// Exact level-wise re-peel of the scoped subgraph; out-of-scope
  /// neighbours support scope vertices until the level passes their
  /// (unchanged) offset.
  void RecomputeScoped(std::vector<uint32_t>& value, uint32_t tau,
                       bool fix_upper, const std::vector<VertexId>& scope);
  /// Initial scope of an edge update: the seeds plus every vertex
  /// reachable through vertices whose offset lies in [lo, hi].
  std::vector<VertexId> CollectScope(const std::vector<uint32_t>& value,
                                     uint32_t lo, uint32_t hi,
                                     std::initializer_list<VertexId> seeds);
  void MaybeGrowDelta();
  void MaybeShrinkDelta();
  /// Adds `x` to the pending summary's touched set (deduplicated).
  void MarkTouched(VertexId x);
  /// True iff the (k,k)-core of the current graph is nonempty.
  bool KkCoreNonEmpty(uint32_t k);

  uint32_t num_upper_ = 0;
  uint32_t num_alive_edges_ = 0;
  std::vector<std::vector<Arc>> adj_;
  std::vector<Edge> edges_;        // slot per EdgeId ever created
  std::vector<uint8_t> edge_alive_;
  uint32_t delta_ = 0;
  std::vector<std::vector<uint32_t>> sa_;  // [τ-1][v]
  std::vector<std::vector<uint32_t>> sb_;

  uint64_t epoch_ = 0;
  UpdateSummary summary_;                  ///< accumulating, see DrainSummary
  std::vector<uint8_t> summary_touched_;   ///< membership bitmap for dedup

  // Lent buffers for the per-level scoped recomputes: one update touches
  // up to 2δ levels, and each used to allocate 3×O(n) arrays plus a BFS
  // visited map — these persist instead, and the scoped code restores
  // their invariant (alive / in_scope / update_mark / visited all-zero;
  // deg stale-but-unread) in O(|scope|) after each use.
  std::vector<uint32_t> ws_deg_;
  std::vector<uint8_t> ws_alive_;
  std::vector<uint8_t> ws_in_scope_;
  std::vector<uint8_t> ws_update_mark_;
  std::vector<uint8_t> ws_visited_;
  std::vector<std::pair<uint32_t, VertexId>> ws_expiry_;
  std::vector<VertexId> ws_stack_;
  LevelPeelScratch ws_peel_;
};

}  // namespace abcs

#endif  // ABCS_CORE_MAINTENANCE_H_
