#ifndef ABCS_CORE_SCS_COMMON_H_
#define ABCS_CORE_SCS_COMMON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/dsu.h"
#include "core/query_scratch.h"
#include "core/subgraph.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// Which SCS kernel answers a query. `kAuto` lets the planner pick from
/// cheap statistics of the weight-rank LocalGraph (see PlanScsAlgo).
enum class ScsAlgo { kAuto, kPeel, kExpand, kBinary };

/// Returns "auto" / "peel" / "expand" / "binary".
const char* ScsAlgoName(ScsAlgo algo);

/// Options shared by the SCS query algorithms.
struct ScsOptions {
  /// Expansion parameter ε > 1 controlling how often SCS-Expand validates
  /// the growing component (paper §IV-B argues ε = 2 minimises total
  /// validation cost ε/(ε−1)·size(R)).
  double epsilon = 2.0;
};

/// Work counters for the SCS algorithms, with one semantics across every
/// kernel so the ablation benches compare like-for-like:
///
///  - `validations` counts candidate stabilisations initialised *from
///    scratch* (degrees rebuilt over the whole working edge set): SCS-Peel's
///    and SCS-Binary's opening peel, and every probe of the fresh-peel
///    binary baseline.
///  - `incremental_probes` counts feasibility checks *seeded from a
///    previous stable state* and journaled for undo: SCS-Binary's
///    binary-search probes and SCS-Expand's per-round validations.
///  - `edges_processed` counts edge state transitions — an edge inserted
///    into the growing graph (Expand), killed by peeling, or restored by a
///    journal undo each count once.
struct ScsStats {
  uint32_t validations = 0;  ///< from-scratch stabilisation peels
  /// journaled probes seeded from a previous stable state
  uint32_t incremental_probes = 0;
  /// edge state transitions (insert / kill / restore)
  uint64_t edges_processed = 0;
  ScsAlgo algo_used = ScsAlgo::kPeel;  ///< kernel that produced the result
};

/// Result of a significant (α,β)-community search.
struct ScsResult {
  Subgraph community;       ///< R; empty when no community exists
  Weight significance = 0;  ///< f(R), the maximised minimum edge weight
  bool found = false;
};

/// \brief A compact, mutable *weight-rank* view of a subgraph shared by all
/// SCS kernels: vertices renumbered densely, edges sorted by significance
/// exactly once per query, CSR adjacency over the rank order.
///
/// The rank order is the substrate of the whole SCS layer. Edges are stored
/// by non-increasing weight (ties broken by pool position, so the order is
/// deterministic); the local edge id of an edge *is* its rank. Consequences
/// the kernels rely on:
///
///  - "the subgraph with w(e) ≥ w" is a contiguous *prefix* of ranks, and
///    the distinct-weight table maps threshold index i to its prefix end;
///  - each vertex's arc list is sorted by ascending rank, so its strongest
///    incident edges are a prefix of `Neighbors()` (the ScsAuto planner
///    reads the rank of q's threshold-th arc as a size(R) proxy);
///  - SCS-Peel consumes ranks back-to-front, SCS-Expand front-to-back and
///    SCS-Binary probes prefix lengths — none of them sorts or copies the
///    edge set again.
///
/// Built once per query in O(size(sub)) (a counting sort or a stable radix
/// sort on the weight keys; only weights closer than the radix resolution
/// fall back to an O(k log k) sort of their run, so the worst case is
/// O(size(sub) log size(sub))). `BuildFrom` reuses every internal buffer,
/// so a pooled instance (see ScsWorkspace) performs zero steady-state
/// allocations across a batch of queries.
class LocalGraph {
 public:
  /// An edge of the local graph; `pos` (its index in `edges()`) doubles as
  /// the local edge id *and* its weight rank (0 = most significant).
  struct LocalEdge {
    uint32_t u;  ///< local id of the upper endpoint
    uint32_t v;  ///< local id of the lower endpoint
    Weight w;
    EdgeId global;  ///< EdgeId in the original graph
  };
  struct LocalArc {
    uint32_t to;   ///< local vertex id
    uint32_t pos;  ///< local edge id == weight rank
  };

  LocalGraph() = default;
  LocalGraph(const BipartiteGraph& g, const std::vector<EdgeId>& edges);

  /// (Re)builds the view over `edges`, reusing all internal capacity.
  void BuildFrom(const BipartiteGraph& g, std::span<const EdgeId> edges);

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(global_of_.size());
  }
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }
  /// Edges in rank order: non-increasing weight, ties by pool position.
  const std::vector<LocalEdge>& edges() const { return edges_; }

  /// Local id of a global vertex, or kInvalidVertex if absent.
  uint32_t LocalId(VertexId global) const;
  VertexId GlobalId(uint32_t local) const { return global_of_[local]; }
  bool IsUpperLocal(uint32_t local) const { return is_upper_[local] != 0; }

  /// Arcs of `local`, sorted by ascending edge rank (strongest first).
  std::span<const LocalArc> Neighbors(uint32_t local) const {
    return {arcs_.data() + offsets_[local],
            offsets_[local + 1] - offsets_[local]};
  }

  // -- Distinct-weight prefix table (descending weights) --------------------

  uint32_t NumDistinctWeights() const {
    return static_cast<uint32_t>(prefix_end_.size());
  }
  /// i-th distinct weight, strictly decreasing in i.
  Weight DistinctWeight(uint32_t i) const { return distinct_w_[i]; }
  /// Ranks [PrefixBegin(i), PrefixEnd(i)) carry weight DistinctWeight(i);
  /// ranks [0, PrefixEnd(i)) are exactly {e : w(e) ≥ DistinctWeight(i)}.
  uint32_t PrefixBegin(uint32_t i) const {
    return i == 0 ? 0 : prefix_end_[i - 1];
  }
  uint32_t PrefixEnd(uint32_t i) const { return prefix_end_[i]; }
  /// Index of the distinct weight whose batch contains `rank` (O(log W)).
  uint32_t DistinctIndexOfRank(uint32_t rank) const;

 private:
  // Fills edges_ from build_edges_ in rank order by a stable LSD radix sort
  // on the weight keys (the path for pools with many distinct weights).
  void RankByRadix();

  std::vector<VertexId> global_of_;
  std::vector<uint8_t> is_upper_;
  std::vector<LocalEdge> edges_;  // rank order
  std::vector<uint32_t> offsets_;
  std::vector<LocalArc> arcs_;
  // Epoch-stamped dense global→local map (PR 2's O(1)-reset idiom): vertex
  // v is present iff map_stamp_[v] == map_epoch_. Local ids are assigned in
  // first-encounter order over the pool — deterministic for a given pool.
  std::vector<uint32_t> map_stamp_;
  std::vector<uint32_t> map_local_;
  uint32_t map_epoch_ = 0;
  std::vector<Weight> distinct_w_;
  std::vector<uint32_t> prefix_end_;
  // Build-time pools (kept for capacity reuse).
  std::vector<LocalEdge> build_edges_;
  std::vector<std::pair<uint64_t, uint32_t>> build_rank_;
  // Radix ping-pong buffers of packed (key digits << 32 | pool index) and
  // the per-pass digit histograms.
  std::vector<uint64_t> radix_a_;
  std::vector<uint64_t> radix_b_;
  std::vector<uint32_t> radix_count_;
  std::vector<uint32_t> build_cursor_;
  // Pooled open-address table for the duplicate-heavy counting-sort path:
  // slot i holds a weight key iff ht_stamp_[i] == ht_epoch_.
  std::vector<uint64_t> ht_key_;
  std::vector<uint32_t> ht_val_;
  std::vector<uint32_t> ht_stamp_;
  uint32_t ht_epoch_ = 0;
  std::vector<uint64_t> bucket_key_;
  std::vector<uint32_t> bucket_of_;    // edge pool index → discovered bucket
  std::vector<uint32_t> bucket_rank_;  // discovered bucket → weight rank
  std::vector<uint32_t> bucket_cursor_;
};

/// Per-component aggregates SCS-Expand keeps at DSU roots so its Lemma 7/8
/// pruning checks are O(1) per batch.
struct ScsComponentAgg {
  uint64_t edges = 0;
  uint32_t num_upper = 0;
  uint32_t num_lower = 0;
  uint32_t upper_ok = 0;  ///< upper vertices with deg ≥ α
  uint32_t lower_ok = 0;  ///< lower vertices with deg ≥ β
};

/// SCS-Expand's reusable component-tracking state.
struct ScsExpandAux {
  Dsu dsu{0};
  std::vector<ScsComponentAgg> agg;
};

/// \brief Pooled per-thread working set for the SCS layer: one LocalGraph
/// whose buffers are reused across queries (and profile grid cells), plus
/// the expand kernel's component state and the whole-graph edge pool
/// SCS-Baseline searches. Pair it with a `QueryScratch`; after warm-up the
/// steady state of a batch performs zero heap allocations.
///
/// Not thread-safe: one instance per thread (see QueryWorker).
struct ScsWorkspace {
  LocalGraph lg;
  ScsExpandAux expand;
  Subgraph pool;
};

/// \brief SCS-Peel (Algorithm 4 lines 3–23, generalised): finds the
/// significant (α,β)-community of `q` *within* the edge set of `lg`.
///
/// Stabilises the input (removes vertices below their degree threshold),
/// then deletes rank batches back-to-front (minimum weight first) with
/// cascading degree repair until `q` violates its threshold; the state at
/// the start of the violating batch, restricted to q's connected
/// component, is R (Theorem 1). found = false when `q` is not in any valid
/// subgraph of `lg`. A short loop over `RankPeel`; reuses `out`'s
/// capacity.
void PeelToSignificantInto(const LocalGraph& lg, VertexId q, uint32_t alpha,
                           uint32_t beta, ScsResult* out, ScsStats* stats,
                           QueryScratch& scratch);

/// Shared extraction step: DFS over `alive` edges from local vertex `lq`,
/// collecting q's connected component into `out->community` and its minimum
/// weight into `out->significance` (seeded with `fmin_seed`, the feasibility
/// threshold — by maximality the component always contains an edge of that
/// weight). Sets `out->found`.
void ExtractAliveComponent(const LocalGraph& lg, uint32_t lq,
                           const std::vector<uint8_t>& alive, Weight fmin_seed,
                           QueryScratch& scratch, ScsResult* out);

/// \brief Reference oracle: tries every distinct weight threshold from the
/// highest down, keeping edges ≥ w and peeling to (α,β); the first
/// threshold where `q` survives yields R (q's connected component of the
/// stable subgraph). O(#weights · m) — test/verification use only.
ScsResult ScsBruteForce(const BipartiteGraph& g, VertexId q, uint32_t alpha,
                        uint32_t beta);

}  // namespace abcs

#endif  // ABCS_CORE_SCS_COMMON_H_
