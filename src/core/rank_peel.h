#ifndef ABCS_CORE_RANK_PEEL_H_
#define ABCS_CORE_RANK_PEEL_H_

#include <cstdint>
#include <vector>

#include "core/query_scratch.h"
#include "core/scs_common.h"

namespace abcs {

/// \brief The one peel primitive of the SCS layer: an edge-journaled
/// (deg, alive) state over the ranks of a weight-rank LocalGraph.
///
/// SCS-Peel (Algorithm 4), SCS-Expand (Algorithm 5) and SCS-Binary (§IV-B)
/// all peel a rank prefix to (α,β)-stability with cascading degree repair
/// and stop at the batch where q breaks its threshold (Theorem 1). Each
/// kernel is a short loop over this state; the kill, the cascade, the
/// journal undo and the minimum-weight batch descent are written here
/// once. Members are defined in this header so every kernel inlines them.
///
/// State lives in the scratch slots `kSlotDeg` (per-vertex degree),
/// `kSlotAlive` (per-rank liveness), `kSlotQueue` (cascade stack) and
/// `kSlotJournal` (the kills of the current probe or batch, for undo), so
/// a pooled scratch keeps the steady state allocation-free.
///
/// Invariants: `deg[x]` is the number of alive ranks at x. A vertex is
/// pushed onto the cascade when its degree drops from its threshold to
/// one below it, or by a seed scan; every cascade runs to a fixed point,
/// and the set of edges it kills does not depend on the order it pops
/// vertices in, so `edges_processed` is order-independent.
///
/// Cancellation: one `CancelTick()` per rank or arc inspected, ticked in
/// `Insert`, `PeelRange` and `RunCascade` and nowhere else in the kernels.
/// Cascades run to completion; kernels check `CancelStopped()` at batch
/// and probe boundaries and abandon with `found = false`. Every structure
/// is a per-query scratch slot re-assigned by the next `Reset*`, so an
/// abandoned state owes no unwind.
class RankPeel {
 public:
  RankPeel(const LocalGraph& lg, VertexId q, uint32_t alpha, uint32_t beta,
           QueryScratch& scratch, ScsStats* stats)
      : lg_(lg),
        alpha_(alpha),
        beta_(beta),
        lq_(lg.LocalId(q)),
        s_(scratch),
        stats_(stats),
        deg_(scratch.U32(QueryScratch::kSlotDeg)),
        alive_(scratch.U8(QueryScratch::kSlotAlive)),
        cascade_(scratch.U32(QueryScratch::kSlotQueue)),
        journal_(scratch.U32(QueryScratch::kSlotJournal)) {}

  /// The kernels' shared entry guard: clears `out`, records `algo` as the
  /// kernel used, and returns false when there is nothing to search — α
  /// or β is 0, q is not a vertex of the graph, or it has no edges.
  bool Begin(ScsAlgo algo, ScsResult* out) {
    out->community.edges.clear();
    out->significance = 0;
    out->found = false;
    if (stats_) stats_->algo_used = algo;
    return alpha_ != 0 && beta_ != 0 && lq_ != kInvalidVertex &&
           lg_.NumEdges() != 0;
  }

  uint32_t lq() const { return lq_; }
  uint32_t Threshold(uint32_t x) const {
    return lg_.IsUpperLocal(x) ? alpha_ : beta_;
  }
  uint32_t Degree(uint32_t x) const { return deg_[x]; }
  /// True iff q is below its threshold — the stop test of every kernel.
  bool QViolates() const { return deg_[lq_] < Threshold(lq_); }

  /// Every rank alive, degrees counted over the whole graph.
  void ResetAllAlive() {
    deg_.assign(lg_.NumVertices(), 0);
    for (const LocalGraph::LocalEdge& le : lg_.edges()) {
      ++deg_[le.u];
      ++deg_[le.v];
    }
    alive_.assign(lg_.NumEdges(), 1);
  }
  /// No rank alive (SCS-Expand's empty starting graph).
  void ResetNoneAlive() {
    deg_.assign(lg_.NumVertices(), 0);
    alive_.assign(lg_.NumEdges(), 0);
  }

  /// Seeds the cascade with every vertex x of degree 0 < deg < threshold
  /// for which `keep(x)` holds.
  template <typename Keep>
  void SeedBelowThreshold(Keep&& keep) {
    cascade_.clear();
    for (uint32_t x = 0; x < lg_.NumVertices(); ++x) {
      if (deg_[x] > 0 && deg_[x] < Threshold(x) && keep(x)) {
        cascade_.push_back(x);
      }
    }
  }

  /// Resets every rank alive and peels to stability: one from-scratch
  /// validation. Returns whether q survives (false on a cancel too).
  bool StabiliseAll() {
    ResetAllAlive();
    SeedBelowThreshold([](uint32_t) { return true; });
    RunCascade(/*journal=*/false);
    if (stats_) ++stats_->validations;
    return !s_.CancelStopped() && !QViolates();
  }

  /// Inserts dead rank `r` (SCS-Expand's growth step).
  void Insert(uint32_t r) {
    s_.CancelTick();
    const LocalGraph::LocalEdge& le = lg_.edges()[r];
    alive_[r] = 1;
    if (stats_) ++stats_->edges_processed;
    ++deg_[le.u];
    ++deg_[le.v];
  }

  /// Peels every queued vertex, and every vertex its kills push below
  /// threshold, until the cascade is empty.
  void RunCascade(bool journal) {
    while (!cascade_.empty()) {
      const uint32_t x = cascade_.back();
      cascade_.pop_back();
      if (deg_[x] == 0) continue;
      for (const LocalGraph::LocalArc& a : lg_.Neighbors(x)) {
        s_.CancelTick();
        if (alive_[a.pos]) Kill(a.pos, x, a.to, journal);
      }
    }
  }

  /// Forgets the journal, committing its kills.
  void ClearJournal() { journal_.clear(); }
  /// One journaled step: forgets the journal, kills every alive rank in
  /// [begin, end) that `keep(r)` accepts, and cascades. `Restore` undoes
  /// exactly this step.
  template <typename Keep>
  void PeelRange(uint32_t begin, uint32_t end, Keep&& keep) {
    ClearJournal();
    for (uint32_t r = begin; r < end; ++r) {
      s_.CancelTick();
      if (alive_[r] && keep(r)) {
        const LocalGraph::LocalEdge& le = lg_.edges()[r];
        Kill(r, le.u, le.v, /*journal=*/true);
      }
    }
    RunCascade(/*journal=*/true);
  }
  /// Undoes every journaled kill and clears the journal.
  void Restore() {
    for (const uint32_t r : journal_) {
      const LocalGraph::LocalEdge& le = lg_.edges()[r];
      alive_[r] = 1;
      ++deg_[le.u];
      ++deg_[le.v];
    }
    if (stats_) stats_->edges_processed += journal_.size();
    journal_.clear();
  }

  /// From a state where q's component is stable, kills the rank batches
  /// di, di−1, … (minimum weight first) with their cascades, skipping
  /// ranks `keep(r)` rejects, until q violates. The state at the start of
  /// that batch, restricted to q's component, is R (Theorem 1): restore
  /// the batch and extract it. Returns false when abandoned on a cancel.
  template <typename Keep>
  bool DescendFrom(uint32_t di, Keep&& keep, ScsResult* out) {
    for (uint32_t d = di + 1; d-- > 0;) {
      if (s_.CancelStopped()) return false;
      PeelRange(lg_.PrefixBegin(d), lg_.PrefixEnd(d), keep);
      if (QViolates()) {
        Restore();
        ExtractComponent(lg_.DistinctWeight(d), out);
        return true;
      }
    }
    return false;  // unreachable: q dies at the latest with its last edge
  }

  /// q's connected component over alive ranks, as R (see
  /// ExtractAliveComponent).
  void ExtractComponent(Weight fmin_seed, ScsResult* out) {
    ExtractAliveComponent(lg_, lq_, alive_, fmin_seed, s_, out);
  }

 private:
  // Kills alive rank r = (x, y) and repairs both endpoint degrees; with
  // `journal`, records the kill for `Restore`. The cascade passes the
  // endpoints off the arc, sparing a lookup in the edge array.
  void Kill(uint32_t r, uint32_t x, uint32_t y, bool journal) {
    alive_[r] = 0;
    if (journal) journal_.push_back(r);
    if (stats_) ++stats_->edges_processed;
    Drop(x);
    Drop(y);
  }
  // One degree lost at x; queue x when that takes it below threshold.
  void Drop(uint32_t x) {
    if (deg_[x]-- == Threshold(x)) cascade_.push_back(x);
  }

  const LocalGraph& lg_;
  const uint32_t alpha_;
  const uint32_t beta_;
  const uint32_t lq_;
  QueryScratch& s_;
  ScsStats* stats_;
  std::vector<uint32_t>& deg_;
  std::vector<uint8_t>& alive_;
  std::vector<uint32_t>& cascade_;
  std::vector<uint32_t>& journal_;
};

}  // namespace abcs

#endif  // ABCS_CORE_RANK_PEEL_H_
