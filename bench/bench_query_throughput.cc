// Query-engine throughput: {online, bicore, delta} × thread counts ×
// {typical, small-community} parameter points on a registry dataset,
// through the batched zero-allocation QueryEngine, plus a
// per-query-allocation baseline (the by-value QueryCommunity API) to
// quantify what the scratch arena buys. The baseline comparison runs at
// the small-community point (α = β = δ), where per-query O(n) allocation
// and clearing dominates the output-sensitive query itself. Emits
// BENCH_query.json.
//
// Environment:
//   ABCS_BENCH_DATASET   registry dataset name (default BS), or "XL" — a
//                        million-vertex synthetic graph local to this
//                        bench (not in the Table I registry), where the
//                        small-community/large-graph regime is real
//   ABCS_BENCH_QUERIES   queries per configuration (default 100)
//   argv[1]              output JSON path (default BENCH_query.json)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/query_engine.h"

namespace {

struct Row {
  const char* method;
  const char* point;  ///< "typical" (0.7δ), "small" (δ) or "tiny"
  uint32_t alpha;
  uint32_t beta;
  unsigned threads;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t touched_arcs = 0;
  uint64_t total_edges = 0;
};

std::vector<unsigned> ThreadCounts() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> counts{1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

std::vector<abcs::QueryRequest> MakeRequests(
    const abcs::bench::PreparedDataset& ds, uint32_t alpha, uint32_t beta,
    uint32_t count) {
  const std::vector<abcs::VertexId> qs =
      abcs::bench::SampleCoreVertices(ds, alpha, beta, 64, 1234);
  std::vector<abcs::QueryRequest> requests;
  if (qs.empty()) return requests;
  requests.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    requests[i] = abcs::QueryRequest{qs[i % qs.size()], alpha, beta};
  }
  return requests;
}

struct Point {
  const char* label;
  uint32_t alpha;
  uint32_t beta;
};

// The motivating regime: a community of a handful of edges on a large
// graph, where per-query O(n) allocation dwarfs the output-sensitive
// retrieval. Fixes α = δ and pushes β to the 8th-largest δ-level offset,
// shrinking the (α,β)-core to the densest nugget of the graph.
bool TinyPoint(const abcs::bench::PreparedDataset& ds, Point* out) {
  if (ds.delta() < 1) return false;
  std::vector<uint32_t> offsets(ds.graph.NumVertices());
  for (abcs::VertexId v = 0; v < ds.graph.NumVertices(); ++v) {
    offsets[v] = ds.decomp.sa(ds.delta(), v);
  }
  std::sort(offsets.begin(), offsets.end(), std::greater<>());
  if (offsets.size() <= 8 || offsets[7] <= ds.delta()) return false;
  *out = Point{"tiny", ds.delta(), offsets[7]};
  return true;
}

// Million-vertex throughput dataset: big enough that a per-query O(n)
// allocation+clear dwarfs a small community's output-sensitive retrieval.
// Local to this bench so the Table I figure reproductions are unaffected.
abcs::DatasetSpec XlSpec() {
  abcs::DatasetSpec spec;
  spec.name = "XL";
  spec.num_upper = 400000;
  spec.num_lower = 600000;
  spec.num_edges = 1500000;
  spec.skew_upper = 2.3;
  spec.skew_lower = 2.3;
  spec.weights = abcs::WeightModel::kUniform;
  spec.seed = 777;
  spec.paper_note = "synthetic query-throughput dataset (not in Table I)";
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using abcs::bench::PreparedDataset;
  const char* dataset_env = std::getenv("ABCS_BENCH_DATASET");
  const std::string dataset = dataset_env ? dataset_env : "BS";
  const char* out_path = argc > 1 ? argv[1] : "BENCH_query.json";

  const abcs::DatasetSpec* spec = abcs::FindDataset(dataset);
  const abcs::DatasetSpec xl = XlSpec();
  if (spec == nullptr && dataset == "XL") spec = &xl;
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return 2;
  }
  const PreparedDataset ds = abcs::bench::Prepare(*spec);
  const uint32_t num_queries = abcs::bench::NumQueries();

  const abcs::DeltaIndex delta = abcs::DeltaIndex::Build(ds.graph, &ds.decomp);
  const abcs::BicoreIndex bicore =
      abcs::BicoreIndex::Build(ds.graph, &ds.decomp);

  std::vector<Point> points = {
      {"typical", abcs::bench::ScaledParam(ds.delta(), 0.7),
       abcs::bench::ScaledParam(ds.delta(), 0.7)},
      {"small", ds.delta(), ds.delta()},
  };
  Point tiny;
  const bool have_tiny = TinyPoint(ds, &tiny);
  if (have_tiny) points.push_back(tiny);

  std::printf("query throughput on %s: n=%u |E|=%u δ=%u, %u queries/config\n",
              dataset.c_str(), ds.graph.NumVertices(), ds.graph.NumEdges(),
              ds.delta(), num_queries);
  std::printf("%-8s %-8s %6s %6s %8s %12s %12s %12s %14s\n", "method",
              "point", "a", "b", "threads", "qps", "p50(us)", "p99(us)",
              "touched_arcs");

  std::vector<Row> rows;
  for (const Point& point : points) {
    const std::vector<abcs::QueryRequest> requests =
        MakeRequests(ds, point.alpha, point.beta, num_queries);
    if (requests.empty()) {
      std::fprintf(stderr, "empty (%u,%u)-core on %s — skipping %s point\n",
                   point.alpha, point.beta, dataset.c_str(), point.label);
      continue;
    }
    for (const abcs::QueryMethod method :
         {abcs::QueryMethod::kOnline, abcs::QueryMethod::kBicore,
          abcs::QueryMethod::kDelta}) {
      const abcs::QueryEngine engine(ds.graph, method, &delta, &bicore);
      for (const unsigned threads : ThreadCounts()) {
        abcs::BatchOptions options;
        options.num_threads = threads;
        const abcs::BatchResult warm = engine.RunBatch(requests, options);
        const abcs::BatchResult run = engine.RunBatch(requests, options);
        (void)warm;
        Row row{abcs::QueryMethodName(method), point.label, point.alpha,
                point.beta, threads};
        row.qps = run.QueriesPerSecond();
        row.p50_us = run.stats.p50_seconds * 1e6;
        row.p99_us = run.stats.p99_seconds * 1e6;
        row.touched_arcs = run.stats.touched_arcs;
        row.total_edges = run.stats.total_edges;
        rows.push_back(row);
        std::printf("%-8s %-8s %6u %6u %8u %12.1f %12.3f %12.3f %14llu\n",
                    row.method, row.point, row.alpha, row.beta, threads,
                    row.qps, row.p50_us, row.p99_us,
                    static_cast<unsigned long long>(row.touched_arcs));
      }
    }
  }

  // Per-query-allocation baseline at the smallest-community point:
  // identical delta-index queries through the by-value API, which
  // allocates and zeroes fresh O(n) visited state per call.
  // Single-threaded on both sides, so the ratio isolates the arena.
  const Point baseline_point =
      have_tiny ? tiny : Point{"small", ds.delta(), ds.delta()};
  double baseline_qps = 0;
  double engine_qps_1t = 0;
  {
    const std::vector<abcs::QueryRequest> requests = MakeRequests(
        ds, baseline_point.alpha, baseline_point.beta, num_queries);
    if (!requests.empty()) {
      for (const abcs::QueryRequest& r : requests) {  // warm caches
        (void)delta.QueryCommunity(r.q, r.alpha, r.beta);
      }
      abcs::Timer timer;
      for (const abcs::QueryRequest& r : requests) {
        (void)delta.QueryCommunity(r.q, r.alpha, r.beta);
      }
      const double secs = timer.Seconds();
      baseline_qps = secs > 0 ? static_cast<double>(num_queries) / secs : 0;
    }
    for (const Row& row : rows) {
      if (row.threads == 1 && std::string(row.method) == "delta" &&
          std::string(row.point) == baseline_point.label) {
        engine_qps_1t = row.qps;
      }
    }
  }
  const double speedup = baseline_qps > 0 ? engine_qps_1t / baseline_qps : 0;
  std::printf(
      "alloc-baseline (delta, %s, 1 thread): %.1f qps; scratch engine: "
      "%.1f qps; speedup %.2fx\n",
      baseline_point.label, baseline_qps, engine_qps_1t, speedup);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"machine\": %s,\n  \"dataset\": \"%s\",\n"
               "  \"num_vertices\": %u,\n  \"num_edges\": %u,\n"
               "  \"delta\": %u,\n  \"num_queries\": %u,\n"
               "  \"results\": [\n",
               abcs::bench::MachineJson().c_str(), dataset.c_str(),
               ds.graph.NumVertices(), ds.graph.NumEdges(), ds.delta(),
               num_queries);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"method\": \"%s\", \"point\": \"%s\", "
                 "\"alpha\": %u, \"beta\": %u, \"threads\": %u, "
                 "\"qps\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
                 "\"touched_arcs\": %llu, \"total_edges\": %llu}%s\n",
                 row.method, row.point, row.alpha, row.beta, row.threads,
                 row.qps, row.p50_us, row.p99_us,
                 static_cast<unsigned long long>(row.touched_arcs),
                 static_cast<unsigned long long>(row.total_edges),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"alloc_baseline_point\": \"%s\",\n"
               "  \"alloc_baseline_qps\": %.1f,\n"
               "  \"scratch_speedup_vs_alloc\": %.3f\n}\n",
               baseline_point.label, baseline_qps, speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
