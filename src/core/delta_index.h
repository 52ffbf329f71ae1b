#ifndef ABCS_CORE_DELTA_INDEX_H_
#define ABCS_CORE_DELTA_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "abcore/offsets.h"
#include "common/status.h"
#include "core/query_scratch.h"
#include "core/query_stats.h"
#include "core/subgraph.h"
#include "graph/bipartite_graph.h"
#include "io/arena_storage.h"

namespace abcs {

struct BundleAccess;

/// \brief The degeneracy-bounded index `I_δ` (paper §III-B, Algorithm 3)
/// and its optimal community query `Qopt`.
///
/// Two halves cover all (α,β)-communities (Lemma 4: min(α,β) ≤ δ):
///  - `Iα_δ[u][τ]` for τ ≤ δ where u ∈ (τ,τ)-core: u's neighbours v with
///    s_a(v,τ) ≥ τ, sorted by decreasing s_a — serves queries with α ≤ β.
///  - `Iβ_δ[u][τ]`: neighbours with s_b(v,τ) > τ, sorted by decreasing
///    s_b — serves queries with β < α (strict `>` because those queries
///    filter with α > τ, so entries at exactly τ can never qualify).
///
/// Construction: O(δ·m) time, O(δ·m) space (Lemmas 5–6). Queries touch
/// exactly the arcs of C_{α,β}(q) plus one sentinel per visited vertex
/// (Lemma 3's optimality).
///
/// Storage is arena-based: each half keeps one flat entry array plus
/// per-vertex slices of a shared level table, so a query's inner loop is a
/// contiguous scan with two array lookups per visited vertex — no
/// per-vertex allocations or pointer chasing. Every array lives in
/// `ArenaStorage`, so an index is either self-owning (Build) or a
/// zero-copy view into an opened bundle (io/index_bundle.h).
class DeltaIndex {
 public:
  DeltaIndex() = default;

  /// Builds the index in O(δ·m). If `decomp` is non-null it is used
  /// instead of recomputing the offsets; otherwise the 2δ offset peels run
  /// on `num_threads` workers (1 = serial, 0 = hardware concurrency; the
  /// result is identical either way). The graph must outlive the index.
  static DeltaIndex Build(const BipartiteGraph& g,
                          const BicoreDecomposition* decomp = nullptr,
                          unsigned num_threads = 1);

  /// Degeneracy δ of the indexed graph.
  uint32_t delta() const { return delta_; }

  /// `Qopt`: the (α,β)-community of `q` in O(size(C_{α,β}(q))) time.
  Subgraph QueryCommunity(VertexId q, uint32_t alpha, uint32_t beta,
                          QueryStats* stats = nullptr) const;

  /// Scratch-backed `Qopt`: identical result, but all per-query state
  /// (visited stamps, BFS queue) lives in `scratch` and the edges are
  /// written into `*out` (cleared first, capacity reused), so steady-state
  /// queries perform zero heap allocations.
  void QueryCommunity(VertexId q, uint32_t alpha, uint32_t beta,
                      QueryScratch& scratch, Subgraph* out,
                      QueryStats* stats = nullptr) const;

  /// Bytes used by the index payload (Fig. 11).
  std::size_t MemoryBytes() const;

 private:
  friend struct BundleAccess;

  struct Entry {
    VertexId to;
    EdgeId eid;
    uint32_t offset;  ///< s_a(to, τ) in the α half, s_b(to, τ) in the β half
  };

  /// One half of the index in arena form. Vertex v owns
  ///   levels   τ = 1 .. NumLevels(v)
  ///   level τ's entries: entries[level_start[table_base[v] + τ - 1]
  ///                              .. level_start[table_base[v] + τ])
  ///   its own offset at τ: self_offset[table_base[v] - v + τ - 1]
  /// (`table_base` has one extra slot per vertex for the trailing
  /// level_start bound, hence the `- v` when indexing self_offset).
  struct Half {
    ArenaStorage<uint32_t> table_base;   // size n+1
    ArenaStorage<uint32_t> level_start;  // concatenated (L(v)+1 per vertex)
    ArenaStorage<uint32_t> self_offset;  // concatenated (L(v) per vertex)
    ArenaStorage<Entry> entries;

    uint32_t NumLevels(VertexId v) const {
      return table_base[v + 1] - table_base[v] - 1;
    }
    std::size_t Bytes() const {
      return table_base.size() * sizeof(uint32_t) +
             level_start.size() * sizeof(uint32_t) +
             self_offset.size() * sizeof(uint32_t) +
             entries.size() * sizeof(Entry);
    }
  };

  void QueryImpl(VertexId q, uint32_t level, uint32_t need, const Half& half,
                 QueryScratch& scratch, Subgraph* out,
                 QueryStats* stats) const;

  const BipartiteGraph* graph_ = nullptr;
  uint32_t delta_ = 0;
  Half alpha_half_;
  Half beta_half_;
};

}  // namespace abcs

#endif  // ABCS_CORE_DELTA_INDEX_H_
