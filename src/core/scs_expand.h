#ifndef ABCS_CORE_SCS_EXPAND_H_
#define ABCS_CORE_SCS_EXPAND_H_

#include "core/scs_common.h"

namespace abcs {

/// \brief SCS-Expand (paper Algorithm 5), incremental: grows an empty graph
/// by maximum-weight rank batches of `lg`, maintaining connected components
/// with union–find, until the component of `q` provably may contain R
/// (Lemma 7/8 pruning) and has grown by a factor ε since the last check —
/// then validates.
///
/// Each ε-round's validation is *seeded from the expansion state* instead
/// of a fresh peel: the kernel already holds the degrees of every added
/// edge, so validation just cascades the below-threshold vertices of q's
/// component, journaling every kill. An infeasible round undoes the journal
/// and expansion continues from the exact previous state; a feasible round
/// keeps peeling minimum-weight batches down from the now-stable state
/// until q violates, which is R (Theorem 1) — no per-round LocalGraph
/// construction, degree rebuild or edge re-sort.
///
/// Faster than SCS-Peel when size(R) ≪ size(C_{α,β}(q)) (small α, β). A
/// short loop over `RankPeel`; SCS-Baseline runs it over the whole graph.
void ScsExpandOnLocal(const LocalGraph& lg, VertexId q, uint32_t alpha,
                      uint32_t beta, const ScsOptions& options, ScsResult* out,
                      ScsStats* stats, QueryScratch& scratch,
                      ScsExpandAux& aux);

}  // namespace abcs

#endif  // ABCS_CORE_SCS_EXPAND_H_
