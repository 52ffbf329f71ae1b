#ifndef ABCS_CORE_QUERY_ENGINE_H_
#define ABCS_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/bicore_index.h"
#include "core/cancel.h"
#include "core/delta_index.h"
#include "core/online_query.h"
#include "core/query_scratch.h"
#include "core/query_stats.h"
#include "core/scs_common.h"
#include "core/subgraph.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// Which retrieval algorithm serves a query: the index-free baseline `Qo`,
/// the bicore-index `Qv`, or the degeneracy-bounded `Qopt`.
enum class QueryMethod { kOnline, kBicore, kDelta };

/// Returns "online" / "bicore" / "delta".
const char* QueryMethodName(QueryMethod method);

/// One community retrieval request.
struct QueryRequest {
  VertexId q = 0;
  uint32_t alpha = 1;
  uint32_t beta = 1;
};

/// Deterministic per-query outcome (latencies excluded from determinism):
/// the answer, its size and the work spent on it, in one record.
struct QueryOutcome {
  /// With an SCS kernel: R was found. Without one: C is non-empty.
  bool found = false;
  uint32_t num_edges = 0;      ///< size(C_{α,β}(q))
  uint64_t touched_arcs = 0;   ///< retrieval work counter (see QueryStats)
  uint32_t result_edges = 0;   ///< size(R); 0 without an SCS kernel
  Weight significance = 0;     ///< f(R); 0 without an SCS kernel
  /// The kernel that extracted R (kAuto resolved by the planner); nullopt
  /// without an SCS kernel.
  std::optional<ScsAlgo> kernel;
  uint32_t validations = 0;  ///< SCS work counters (see ScsStats)
  uint32_t incremental_probes = 0;
  uint64_t edges_processed = 0;
  double seconds = 0.0;           ///< retrieval + SCS latency
  double retrieve_seconds = 0.0;  ///< retrieval share of `seconds`
};

/// \brief The pooled state of one query thread: retrieval scratch, the SCS
/// workspace, the retrieved C, the extracted R and a cancel token its
/// owner may arm around `QueryEngine::Execute`. One per thread; after
/// warm-up a worker's queries allocate nothing.
struct QueryWorker {
  QueryScratch scratch;
  ScsWorkspace workspace;
  Subgraph community;  ///< C of the last query
  ScsResult scs;       ///< R of the last query run with an SCS kernel
  CancelToken token;
};

/// Aggregates over one batch.
struct BatchStats {
  uint64_t num_queries = 0;
  uint64_t num_found = 0;           ///< outcomes with `found` set
  uint64_t total_edges = 0;         ///< Σ size(C)
  uint64_t touched_arcs = 0;        ///< Σ per-query touched arcs
  uint64_t total_result_edges = 0;  ///< Σ size(R)
  uint64_t validations = 0;
  uint64_t incremental_probes = 0;
  uint64_t edges_processed = 0;
  /// Resolved-kernel histogram, indexed by ScsAlgo (kAuto slot unused).
  uint64_t kernel_counts[4] = {0, 0, 0, 0};
  double total_seconds = 0.0;     ///< Σ per-query latencies (CPU-side)
  double retrieve_seconds = 0.0;  ///< Σ retrieval latencies
  double p50_seconds = 0.0;       ///< median per-query latency
  double p99_seconds = 0.0;       ///< 99th-percentile per-query latency
};

/// Options for `QueryEngine::RunBatch`.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (default).
  unsigned num_threads = 1;
  /// Extract R from every retrieved C with this kernel (kAuto = per-query
  /// planner); nullopt answers with C itself.
  std::optional<ScsAlgo> scs;
  /// Retain every answer's edge set (R with `scs`, else C) in
  /// `BatchResult::communities` (costs one allocation per non-empty
  /// answer; off for throughput runs).
  bool keep_communities = false;
};

/// Result of a batch run. `outcomes[i]` corresponds to `requests[i]`
/// regardless of the thread count, so everything except latencies is
/// deterministic.
struct BatchResult {
  std::vector<QueryOutcome> outcomes;
  std::vector<Subgraph> communities;  ///< filled iff keep_communities
  BatchStats stats;
  double wall_seconds = 0.0;
  unsigned num_threads_used = 0;  ///< resolved worker count

  double QueriesPerSecond() const {
    return wall_seconds > 0.0
               ? static_cast<double>(stats.num_queries) / wall_seconds
               : 0.0;
  }
};

/// \brief Batched, multithreaded community-query driver.
///
/// Wraps the three retrieval paths behind one submission API: requests are
/// distributed over `num_threads` workers through a shared work-stealing
/// partition (core/work_steal.h: workers start with contiguous chunks and
/// steal half of the largest remaining chunk when theirs drains, so one
/// slow query never stalls the requests queued behind it). Each worker
/// owns one `QueryWorker`, so the steady state of a batch performs zero
/// heap allocations per query (the paper's output-sensitive bound with no
/// hidden O(n) clearing). `Execute` is the one per-query step: `RunBatch`
/// and the serving daemon both reach the kernels through it. The indexes
/// are immutable after construction, so concurrent queries need no locking,
/// and `outcomes[i]` is written by exactly one worker regardless of who
/// executes it — results are bit-identical for every thread count.
class QueryEngine {
 public:
  /// The engine borrows `g` and the indexes; they must outlive it. The
  /// index matching `method` must be non-null (`kOnline` needs neither).
  QueryEngine(const BipartiteGraph& g, QueryMethod method,
              const DeltaIndex* delta = nullptr,
              const BicoreIndex* bicore = nullptr)
      : graph_(&g), method_(method), delta_(delta), bicore_(bicore) {}

  QueryMethod method() const { return method_; }

  /// Runs one query through the configured path into caller-owned scratch
  /// and output (zero allocations after warm-up).
  void Query(const QueryRequest& request, QueryScratch& scratch,
             Subgraph* out, QueryStats* stats = nullptr) const;

  /// The paper's two-step paradigm for one request: retrieves C_{α,β}(q)
  /// through the configured path into `worker.community`, then, when `scs`
  /// is set, extracts R into `worker.scs` with that kernel. Never arms
  /// `worker.token`; an owner that does reads `Stopped()` afterwards and
  /// discards the outcome.
  QueryOutcome Execute(const QueryRequest& request,
                       std::optional<ScsAlgo> scs, QueryWorker& worker) const;

  /// Runs `Execute` over `requests` on the configured worker count.
  BatchResult RunBatch(std::span<const QueryRequest> requests,
                       const BatchOptions& options = {}) const;

 private:
  const BipartiteGraph* graph_;
  QueryMethod method_;
  const DeltaIndex* delta_;
  const BicoreIndex* bicore_;
};

}  // namespace abcs

#endif  // ABCS_CORE_QUERY_ENGINE_H_
