#ifndef ABCS_CORE_SCS_BINARY_H_
#define ABCS_CORE_SCS_BINARY_H_

#include <vector>

#include "core/scs_common.h"

namespace abcs {

/// One feasibility probe of the binary search (test/diagnostic record).
struct ScsProbe {
  uint32_t prefix_end = 0;  ///< rank prefix length probed
  bool feasible = false;    ///< did q survive the (α,β)-peel of that prefix
};

/// \brief SCS-Binary (paper §IV-B remark), incremental: binary search over
/// the distinct edge weights of `lg` with feasibility probes that *share
/// surviving degrees* across steps.
///
/// feasible(w) := q survives peeling {e : w(e) ≥ w} to (α,β); monotone in
/// w. The search maintains the stable peel state of its current feasible
/// prefix. Moving the threshold up (shorter prefix) peels down from that
/// state, journaling every kill; a feasible probe commits the new state, an
/// infeasible one undoes the journal. Total work is therefore proportional
/// to the edges that actually change state per probe — after the single
/// opening stabilisation, no probe rebuilds degrees or rescans the edge
/// set, which on duplicate-weight-heavy inputs collapses the classic
/// O(size(C)·log W) to O(size(C)).
///
/// A short loop over `RankPeel`. `probe_log`, when supplied, records
/// every (prefix_end, feasible) pair in probe order — the engine tests
/// replay it against from-scratch peels.
void ScsBinaryOnLocal(const LocalGraph& lg, VertexId q, uint32_t alpha,
                      uint32_t beta, ScsResult* out, ScsStats* stats,
                      QueryScratch& scratch,
                      std::vector<ScsProbe>* probe_log = nullptr);

/// From-scratch feasibility at a rank prefix: peels {ranks < prefix_end} to
/// (α,β) with freshly built degrees. Reference for the incremental probes
/// (tests).
bool ScsFeasibleFreshPeel(const LocalGraph& lg, VertexId q, uint32_t alpha,
                          uint32_t beta, uint32_t prefix_end);

}  // namespace abcs

#endif  // ABCS_CORE_SCS_BINARY_H_
