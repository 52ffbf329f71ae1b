#ifndef ABCS_CORE_QUERY_SCRATCH_H_
#define ABCS_CORE_QUERY_SCRATCH_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/cancel.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// \brief Reusable per-thread scratch arena for community queries.
///
/// The paper's headline result is output-sensitive retrieval: query time
/// proportional to size(C_{α,β}(q)), not to the graph. Allocating and
/// zeroing O(n) `visited` / `in_core` arrays per query silently re-inserts
/// an O(n) term; this arena removes it:
///
///  - *Epoch-stamped sets.* `visited`/`in_core` are `uint32_t` stamp
///    arrays compared against a per-query epoch. `BeginQuery` bumps the
///    epoch instead of clearing, so membership reset is O(1). When the
///    epoch counter would wrap around, both arrays are zeroed once and the
///    epoch restarts at 1 — a stale stamp can therefore never collide with
///    a live epoch (stamp 0 is never a valid epoch).
///  - *Flat BFS queue.* A `std::vector<VertexId>` with a head cursor
///    replaces the per-query `std::deque` (each vertex enters the queue at
///    most once, so the buffer never wraps and its capacity is bounded by
///    the largest community seen).
///  - *Named buffer slots.* Peeling-style callers (online query, the
///    SCS `RankPeel`) borrow `uint32_t`/`uint8_t` vectors that keep
///    their capacity across queries.
///
/// After warm-up (the first query at a given graph size), steady-state
/// queries through a `QueryScratch` perform zero heap allocations; the
/// engine test asserts this with a counting global allocator.
///
/// Not thread-safe: use one instance per thread (see `QueryEngine`).
class QueryScratch {
 public:
  // Named `uint32_t` buffer slots. A single algorithm must use distinct
  // slots for buffers that are live at the same time.
  enum U32Slot : std::size_t {
    kSlotDeg = 0,    ///< per-vertex degrees
    kSlotQueue,      ///< peel work queue
    kSlotStack,      ///< DFS stack for component extraction
    kSlotJournal,    ///< killed-edge undo journal (SCS probes and batches)
    kNumU32Slots,
  };
  enum U8Slot : std::size_t {
    kSlotAlive = 0,  ///< per-vertex or per-edge liveness
    kNumU8Slots,
  };

  /// Begins a query over the id space [0, n): lazily grows the stamp
  /// arrays, advances the epoch (wraparound-safe) and resets the BFS queue.
  void BeginQuery(uint32_t n);

  /// Marks `v` visited; returns true iff this is the first visit this
  /// query.
  bool TryVisit(uint32_t v) {
    if (visited_[v] == epoch_) return false;
    visited_[v] = epoch_;
    return true;
  }
  bool Visited(uint32_t v) const { return visited_[v] == epoch_; }

  /// Sizes the in-core stamp set. Kept separate from `BeginQuery` so paths
  /// that never mark core membership (Qopt, Qo) don't grow or clear it —
  /// call once before the first `MarkInCore`/`InCore` of a query.
  void EnsureInCore(uint32_t n) {
    if (in_core_.size() < n) in_core_.resize(n, 0);
  }
  void MarkInCore(uint32_t v) { in_core_[v] = epoch_; }
  bool InCore(uint32_t v) const { return in_core_[v] == epoch_; }

  // Flat FIFO over the current query's vertices.
  void Push(uint32_t v) { queue_.push_back(v); }
  bool QueueEmpty() const { return queue_head_ == queue_.size(); }
  uint32_t Pop() { return queue_[queue_head_++]; }

  /// Borrowable buffers; contents are unspecified on entry (callers
  /// `assign`/`resize`+fill), capacity persists across queries.
  std::vector<uint32_t>& U32(std::size_t slot) { return u32_[slot]; }
  std::vector<uint8_t>& U8(std::size_t slot) { return u8_[slot]; }

  /// Current epoch (test/diagnostic use).
  uint32_t epoch() const { return epoch_; }

  /// Test hook: jumps the epoch *forward* (e.g. near the wraparound
  /// boundary). Jumping backward would fabricate a state — stamps larger
  /// than the epoch — that cannot arise in real use.
  void SetEpochForTest(uint32_t epoch) { epoch_ = epoch; }

  /// Total bytes of owned capacity. Snapshot it after warm-up and compare
  /// after more queries to prove the steady state allocates nothing.
  std::size_t CapacityBytes() const;

  /// Attaches (or detaches, with nullptr) a cooperative cancel token. The
  /// scratch is how a token reaches the scratch-taking kernels without a
  /// signature change on every retrieval path; the owner arms/disarms it.
  void set_cancel_token(CancelToken* token) { cancel_ = token; }
  CancelToken* cancel_token() const { return cancel_; }

  /// Kernel-side stop check: one relaxed load when no token is attached
  /// or the token is disarmed. True means unwind now.
  bool CancelTick() { return cancel_ != nullptr && cancel_->Tick(); }
  /// Sticky variant for loop guards that must not consume an op tick.
  bool CancelStopped() const {
    return cancel_ != nullptr && cancel_->Stopped();
  }

 private:
  uint32_t epoch_ = 0;
  CancelToken* cancel_ = nullptr;  ///< borrowed; null = never cancelled
  std::vector<uint32_t> visited_;
  std::vector<uint32_t> in_core_;
  std::vector<uint32_t> queue_;
  std::size_t queue_head_ = 0;
  std::array<std::vector<uint32_t>, kNumU32Slots> u32_;
  std::array<std::vector<uint8_t>, kNumU8Slots> u8_;
};

/// \brief The shared BFS-collect kernel behind all three community
/// retrieval paths (`Qopt` over I_δ entries, `Qv` over core-filtered
/// adjacency, `Qo` over peel-survivor adjacency).
///
/// Starting from `q`, visits q's component breadth-first with
/// scratch-stamped membership. For each frontier vertex `u`,
/// `neighbors(u, visit)` must call `visit(to, eid)` once per admissible
/// arc — the functor owns filtering, early termination and work counting;
/// the kernel owns edge emission (each community edge is collected from
/// its lower endpoint, the library-wide convention) and frontier
/// expansion. `scratch.BeginQuery` must have been called by the caller.
///
/// Cancellation: an attached armed token stops the walk at the next
/// frontier pop; the caller observes the partial result through
/// `CancelStopped()` and must discard it.
template <typename NeighborsFn>
void CollectCommunityBfs(QueryScratch& scratch, const BipartiteGraph& g,
                         VertexId q, std::vector<EdgeId>& out_edges,
                         NeighborsFn&& neighbors) {
  scratch.TryVisit(q);
  scratch.Push(q);
  while (!scratch.QueueEmpty()) {
    if (scratch.CancelStopped()) return;
    const VertexId u = scratch.Pop();
    const bool emit = !g.IsUpper(u);
    neighbors(u, [&](VertexId to, EdgeId eid) {
      if (emit) out_edges.push_back(eid);
      if (scratch.TryVisit(to)) scratch.Push(to);
    });
  }
}

}  // namespace abcs

#endif  // ABCS_CORE_QUERY_SCRATCH_H_
