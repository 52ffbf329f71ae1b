#include "core/query_engine.h"

#include <algorithm>
#include <thread>

#include "common/timer.h"
#include "core/scs_auto.h"
#include "core/work_steal.h"

namespace {

// Nearest-rank percentile over the (sorted in-place) latency vector.
void FillPercentiles(std::vector<double>& latencies, double* p50, double* p99) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t k = latencies.size();
  *p50 = latencies[(k * 50 + 99) / 100 - 1];
  *p99 = latencies[(k * 99 + 99) / 100 - 1];
}

}  // namespace

namespace abcs {

const char* QueryMethodName(QueryMethod method) {
  switch (method) {
    case QueryMethod::kOnline:
      return "online";
    case QueryMethod::kBicore:
      return "bicore";
    case QueryMethod::kDelta:
      return "delta";
  }
  return "unknown";
}

void QueryEngine::Query(const QueryRequest& request, QueryScratch& scratch,
                        Subgraph* out, QueryStats* stats) const {
  switch (method_) {
    case QueryMethod::kOnline:
      QueryCommunityOnline(*graph_, request.q, request.alpha, request.beta,
                           scratch, out, stats);
      break;
    case QueryMethod::kBicore:
      bicore_->QueryCommunity(request.q, request.alpha, request.beta, scratch,
                              out, stats);
      break;
    case QueryMethod::kDelta:
      delta_->QueryCommunity(request.q, request.alpha, request.beta, scratch,
                             out, stats);
      break;
  }
}

QueryOutcome QueryEngine::Execute(const QueryRequest& request,
                                  std::optional<ScsAlgo> scs,
                                  QueryWorker& worker) const {
  QueryOutcome o;
  QueryStats stats;
  Timer timer;
  Query(request, worker.scratch, &worker.community, &stats);
  o.retrieve_seconds = timer.Seconds();
  o.num_edges = static_cast<uint32_t>(worker.community.edges.size());
  o.touched_arcs = stats.touched_arcs;
  if (!scs) {
    o.found = !worker.community.Empty();
    o.seconds = o.retrieve_seconds;
    return o;
  }
  ScsStats scs_stats;
  ScsQueryInto(*graph_, worker.community, request.q, request.alpha,
               request.beta, *scs, ScsOptions{}, &worker.scs, &scs_stats,
               &worker.scratch, &worker.workspace);
  o.seconds = timer.Seconds();
  o.found = worker.scs.found;
  o.result_edges = static_cast<uint32_t>(worker.scs.community.edges.size());
  o.significance = worker.scs.significance;
  o.kernel = scs_stats.algo_used;
  o.validations = scs_stats.validations;
  o.incremental_probes = scs_stats.incremental_probes;
  o.edges_processed = scs_stats.edges_processed;
  return o;
}

BatchResult QueryEngine::RunBatch(std::span<const QueryRequest> requests,
                                  const BatchOptions& options) const {
  BatchResult result;
  result.outcomes.resize(requests.size());
  if (options.keep_communities) result.communities.resize(requests.size());

  unsigned num_threads =
      options.num_threads ? options.num_threads
                          : std::max(1u, std::thread::hardware_concurrency());
  result.num_threads_used = num_threads;
  if (requests.empty()) return result;
  num_threads = static_cast<unsigned>(
      std::min<std::size_t>(num_threads, requests.size()));
  result.num_threads_used = num_threads;

  // Each executed index writes only its own outcome slot, so no
  // synchronisation is needed and `outcomes[i]` always matches
  // `requests[i]` — results are bit-identical for every thread count.
  // `workers[t]` is only ever touched by thread t.
  std::vector<QueryWorker> workers(num_threads);
  auto body = [&](unsigned t, std::size_t i) {
    QueryWorker& w = workers[t];
    result.outcomes[i] = Execute(requests[i], options.scs, w);
    if (options.keep_communities) {
      result.communities[i] = options.scs ? w.scs.community : w.community;
    }
  };

  Timer wall;
  DispatchWorkStealing(requests.size(), num_threads, body);
  result.wall_seconds = wall.Seconds();

  BatchStats& stats = result.stats;
  stats.num_queries = requests.size();
  std::vector<double> latencies;
  latencies.reserve(result.outcomes.size());
  for (const QueryOutcome& o : result.outcomes) {
    if (o.found) ++stats.num_found;
    stats.total_edges += o.num_edges;
    stats.touched_arcs += o.touched_arcs;
    stats.total_result_edges += o.result_edges;
    stats.validations += o.validations;
    stats.incremental_probes += o.incremental_probes;
    stats.edges_processed += o.edges_processed;
    // Empty retrievals never enter a kernel — keep them out of the
    // planner-decision histogram.
    if (o.kernel && o.num_edges > 0) {
      ++stats.kernel_counts[static_cast<std::size_t>(*o.kernel)];
    }
    stats.total_seconds += o.seconds;
    stats.retrieve_seconds += o.retrieve_seconds;
    latencies.push_back(o.seconds);
  }
  FillPercentiles(latencies, &stats.p50_seconds, &stats.p99_seconds);
  return result;
}

}  // namespace abcs
