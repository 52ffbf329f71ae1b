#ifndef ABCS_ABCORE_PEELING_H_
#define ABCS_ABCORE_PEELING_H_

#include <cstdint>
#include <vector>

#include "core/cancel.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// Result of an (α,β)-core computation: per-vertex membership plus summary
/// counts. `alive[v]` is 1 iff `v` belongs to the core.
struct CoreResult {
  std::vector<uint8_t> alive;
  uint32_t num_upper = 0;  ///< |U(R_{α,β})|
  uint32_t num_lower = 0;  ///< |L(R_{α,β})|
  uint32_t num_edges = 0;  ///< size(R_{α,β})

  bool Empty() const { return num_upper == 0 && num_lower == 0; }
};

/// \brief Computes the (α,β)-core of `g` by iterative peeling
/// (Definition 1): repeatedly delete upper vertices with degree < α and
/// lower vertices with degree < β until a fixed point. O(m).
CoreResult ComputeAlphaBetaCore(const BipartiteGraph& g, uint32_t alpha,
                                uint32_t beta);

/// \brief In-place peeling over caller-owned state, used by algorithms that
/// repeatedly shrink a working subgraph (SCS-Peel).
///
/// On entry `deg[v]` must be the degree of `v` in the subgraph induced by
/// `alive`. Peels until every alive upper vertex has deg ≥ alpha and every
/// alive lower vertex has deg ≥ beta; updates `deg`/`alive` and appends the
/// removed vertices to `removed` if non-null. `queue_storage`, when
/// non-null, lends the internal work-queue buffer so repeated peels reuse
/// its capacity (allocation-free steady state). An armed `cancel` token
/// stops the peel mid-cascade; `deg`/`alive` are then torn and must be
/// discarded (per-query callers re-assign both anyway).
void PeelInPlace(const BipartiteGraph& g, uint32_t alpha, uint32_t beta,
                 std::vector<uint32_t>& deg, std::vector<uint8_t>& alive,
                 std::vector<VertexId>* removed = nullptr,
                 std::vector<VertexId>* queue_storage = nullptr,
                 CancelToken* cancel = nullptr);

}  // namespace abcs

#endif  // ABCS_ABCORE_PEELING_H_
