#include "core/scs_expand.h"

#include "core/rank_peel.h"

namespace abcs {

void ScsExpandOnLocal(const LocalGraph& lg, VertexId q, uint32_t alpha,
                      uint32_t beta, const ScsOptions& options, ScsResult* out,
                      ScsStats* stats, QueryScratch& s, ScsExpandAux& aux) {
  RankPeel peel(lg, q, alpha, beta, s, stats);
  if (!peel.Begin(ScsAlgo::kExpand, out)) return;
  const uint32_t n = lg.NumVertices();
  const uint32_t lq = peel.lq();
  peel.ResetNoneAlive();
  aux.dsu.Assign(n);
  aux.agg.assign(n, ScsComponentAgg{});

  // Validation, seeded from the expansion state: the degrees of everything
  // added so far are already in the peel state, so stabilising q's
  // component is just cascading its below-threshold vertices — with every
  // kill journaled so an infeasible round restores the exact expansion
  // state. DSU roots restrict the seeds (and therefore the whole cascade)
  // to q's component; other components' edges never interact with it.
  // Finding the seeds is one O(n) filtered scan per validation — a
  // deliberate trade: the ε-schedule bounds validations to O(log size(C)),
  // and keeping per-root member lists to avoid the scan is exactly the
  // small-to-large vector merging this rework removed.
  auto validate = [&](uint32_t last_di) {
    if (stats) ++stats->incremental_probes;
    const uint32_t qroot = aux.dsu.Find(lq);
    auto in_q_component = [&](uint32_t x) { return aux.dsu.Find(x) == qroot; };
    peel.ClearJournal();
    peel.SeedBelowThreshold(in_q_component);
    peel.RunCascade(/*journal=*/true);
    if (peel.QViolates()) {
      peel.Restore();
      return false;
    }
    // q's component is stable: descend from here. Kills stay inside q's
    // component (DSU roots only coarsen during expansion, never split, so
    // the filter is a sound superset test). A cancel mid-descent leaves the
    // expansion state torn; the caller checks CancelStopped() before
    // expanding further.
    auto rank_in_q_component = [&](uint32_t r) {
      return in_q_component(lg.edges()[r].u);
    };
    return peel.DescendFrom(last_di, rank_in_q_component, out);
  };

  uint64_t last_q_edges = 0;
  uint64_t pre_size = 0;
  const uint32_t num_distinct = lg.NumDistinctWeights();
  for (uint32_t di = 0; di < num_distinct; ++di) {
    if (s.CancelStopped()) return;
    // Add the rank batch of the next distinct weight.
    for (uint32_t r = lg.PrefixBegin(di); r < lg.PrefixEnd(di); ++r) {
      peel.Insert(r);
      const LocalGraph::LocalEdge& le = lg.edges()[r];
      for (uint32_t x : {le.u, le.v}) {
        ScsComponentAgg& agg = aux.agg[aux.dsu.Find(x)];
        const bool upper = lg.IsUpperLocal(x);
        if (peel.Degree(x) == 1) ++(upper ? agg.num_upper : agg.num_lower);
        if (peel.Degree(x) == peel.Threshold(x)) {
          ++(upper ? agg.upper_ok : agg.lower_ok);
        }
      }
      const uint32_t ru = aux.dsu.Find(le.u);
      const uint32_t rv = aux.dsu.Find(le.v);
      uint32_t root = ru;
      if (ru != rv) {
        root = aux.dsu.Union(ru, rv);
        const uint32_t other = (root == ru) ? rv : ru;
        aux.agg[root].edges += aux.agg[other].edges;
        aux.agg[root].num_upper += aux.agg[other].num_upper;
        aux.agg[root].num_lower += aux.agg[other].num_lower;
        aux.agg[root].upper_ok += aux.agg[other].upper_ok;
        aux.agg[root].lower_ok += aux.agg[other].lower_ok;
      }
      ++aux.agg[root].edges;
    }

    // A batch of equal-weight edges was added; decide whether to validate.
    if (peel.Degree(lq) == 0) continue;
    const ScsComponentAgg& a = aux.agg[aux.dsu.Find(lq)];
    if (a.edges == last_q_edges) continue;  // C* did not change
    last_q_edges = a.edges;

    // Lemma 7: αβ − α − β ≤ |E(C*)| − |U(C*)| − |L(C*)|.
    const int64_t lhs = static_cast<int64_t>(alpha) * beta - alpha - beta;
    const int64_t rhs = static_cast<int64_t>(a.edges) -
                        static_cast<int64_t>(a.num_upper) -
                        static_cast<int64_t>(a.num_lower);
    if (lhs > rhs) continue;
    // Lemma 8: enough high-degree vertices on each side, q among them.
    if (a.lower_ok < alpha || a.upper_ok < beta) continue;
    if (peel.QViolates()) continue;
    // Geometric check schedule: validate only after ε-fold growth.
    if (static_cast<double>(a.edges) <
        static_cast<double>(pre_size) * options.epsilon) {
      continue;
    }
    pre_size = a.edges;
    if (validate(di)) return;
    if (s.CancelStopped()) return;  // torn validate state: stop expanding
  }

  // All edges added; force a final validation (the ε gate may have skipped
  // the last state, which equals the full pool restricted to q's
  // component).
  if (peel.Degree(lq) > 0 && !s.CancelStopped()) validate(num_distinct - 1);
}

}  // namespace abcs
