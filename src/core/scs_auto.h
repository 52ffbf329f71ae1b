#ifndef ABCS_CORE_SCS_AUTO_H_
#define ABCS_CORE_SCS_AUTO_H_

#include "core/scs_common.h"
#include "core/subgraph.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// \brief The ScsAuto planner: picks the kernel for one query from
/// statistics the weight-rank LocalGraph already holds — no extra pass
/// over the edges.
///
/// Signals (O(log W) to read): m = size(C), W = distinct-weight count (the
/// rank table's length), and the *batch-aligned prefix* of q's
/// threshold-th strongest incident edge — any feasible subgraph keeps ≥
/// threshold(q) edges at q, so the feasible prefix extends at least
/// through that edge's whole equal-weight batch; its share of m is a
/// lower-bound proxy for size(R)/size(C).
///
/// Decision (calibrated against bench_scs_throughput + the crossover
/// ablation, see docs/scs_engine.md): a provably-thin prefix routes to
/// Expand, whose ε-schedule touches O(ε·prefix) edges while every
/// peel-family kernel pays a full O(size(C)) stabilisation first;
/// everything else routes to Peel, whose single linear stabilise + ordered
/// batch kills carries the lowest constants — measured across the registry
/// datasets, Binary's probe diffs telescope to the same edge work Peel
/// performs plus undo overhead, so it never beats a correctly-routed Peel
/// and remains an explicit `--algo binary` choice (its log W validation
/// bound and its 2–4× win over the pre-PR fresh-peel form stand on their
/// own).
ScsAlgo PlanScsAlgo(const LocalGraph& lg, VertexId q, uint32_t alpha,
                    uint32_t beta);

/// \brief One entry point for the whole SCS layer: builds (or reuses, via
/// `workspace`) the weight-rank LocalGraph of `community`, resolves `algo`
/// (kAuto → PlanScsAlgo) and runs the kernel. `stats->algo_used` records
/// the resolved kernel. An empty community, α or β = 0, q outside the
/// community, or a cancel token already stopped all answer found = false.
/// The Into form reuses `out`'s capacity — with a pooled workspace and
/// scratch the steady state allocates nothing.
void ScsQueryInto(const BipartiteGraph& g, const Subgraph& community,
                  VertexId q, uint32_t alpha, uint32_t beta, ScsAlgo algo,
                  const ScsOptions& options, ScsResult* out,
                  ScsStats* stats = nullptr, QueryScratch* scratch = nullptr,
                  ScsWorkspace* workspace = nullptr);
ScsResult ScsQuery(const BipartiteGraph& g, const Subgraph& community,
                   VertexId q, uint32_t alpha, uint32_t beta,
                   ScsAlgo algo = ScsAlgo::kAuto,
                   const ScsOptions& options = {}, ScsStats* stats = nullptr,
                   QueryScratch* scratch = nullptr,
                   ScsWorkspace* workspace = nullptr);

/// \brief SCS-Baseline (paper §V-A): `ScsQuery(kExpand)` over the *whole
/// graph* instead of C_{α,β}(q), so the search space is q's connected
/// component in G — the cost the two-step paradigm avoids. Each call fills
/// the whole-graph edge pool into `workspace`'s buffer (when supplied).
ScsResult ScsBaseline(const BipartiteGraph& g, VertexId q, uint32_t alpha,
                      uint32_t beta, const ScsOptions& options = {},
                      ScsStats* stats = nullptr,
                      QueryScratch* scratch = nullptr,
                      ScsWorkspace* workspace = nullptr);

}  // namespace abcs

#endif  // ABCS_CORE_SCS_AUTO_H_
