// SCS kernel throughput: {peel, expand, binary, auto} × dataset × weight
// model (including duplicate-weight-heavy distributions, the regime the
// incremental SCS-Binary targets). Communities are retrieved once per query
// point; the timed loop runs only the extraction kernels through one pooled
// ScsWorkspace + QueryScratch, matching the query engine's steady-state
// discipline. Emits BENCH_scs.json, headed by the machine it ran on
// (nproc, compiler, build type).
//
// Per (dataset × weights) cell the summary reports auto_vs_best: ScsAuto
// total time / best single-kernel total time (planner overhead; ≤1.10
// expected everywhere).
//
// Environment:
//   ABCS_BENCH_DATASETS  comma-separated registry names (default "BS")
//   ABCS_BENCH_QUERIES   queries per cell (default 100)
//   argv[1]              output JSON path (default BENCH_scs.json)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/query_engine.h"
#include "core/scs_auto.h"
#include "graph/weights.h"

namespace {

struct WeightVariant {
  const char* name;
  abcs::WeightModel model;
  uint32_t quantise;  ///< 0 = continuous; else number of distinct values
};

// UF/SK are the paper's continuous models; DUP8/DUP2 quantise UF to 8 and
// 2 distinct values — duplicate-weight-heavy workloads where the rank
// prefix table has few entries and probe sharing pays most.
constexpr WeightVariant kVariants[] = {
    {"UF", abcs::WeightModel::kUniform, 0},
    {"SK", abcs::WeightModel::kSkewNormal, 0},
    {"DUP8", abcs::WeightModel::kUniform, 8},
    {"DUP2", abcs::WeightModel::kUniform, 2},
};

abcs::BipartiteGraph MakeVariantGraph(const abcs::BipartiteGraph& base,
                                      const WeightVariant& variant) {
  abcs::BipartiteGraph g = abcs::ApplyWeightModel(base, variant.model, 7);
  if (variant.quantise == 0) return g;
  abcs::Weight wmax = 0;
  for (abcs::EdgeId e = 0; e < g.NumEdges(); ++e) {
    wmax = std::max(wmax, g.GetWeight(e));
  }
  const double bucket = wmax / static_cast<double>(variant.quantise);
  std::vector<abcs::Weight> w(g.NumEdges());
  for (abcs::EdgeId e = 0; e < g.NumEdges(); ++e) {
    w[e] = std::max(1.0, std::ceil(g.GetWeight(e) / bucket));
  }
  return g.WithWeights(w);
}

struct CellRow {
  std::string dataset;
  std::string weights;
  uint32_t alpha = 0, beta = 0;
  std::string kernel;
  uint32_t queries = 0;
  double median_us = 0, mean_us = 0, total_s = 0;
  uint64_t validations = 0, incremental_probes = 0, edges_processed = 0;
};

double MedianUs(std::vector<double>& seconds) {
  if (seconds.empty()) return 0;
  std::sort(seconds.begin(), seconds.end());
  const std::size_t k = seconds.size();
  const double mid = (k % 2) ? seconds[k / 2]
                             : 0.5 * (seconds[k / 2 - 1] + seconds[k / 2]);
  return mid * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const char* env = std::getenv("ABCS_BENCH_DATASETS");
  std::string datasets = env ? env : "BS";
  const char* out_path = argc > 1 ? argv[1] : "BENCH_scs.json";
  const uint32_t num_queries = abcs::bench::NumQueries();

  std::vector<CellRow> rows;
  struct CellSummary {
    std::string dataset, weights, best_kernel;
    double auto_vs_best = 0;
  };
  std::vector<CellSummary> summaries;

  for (std::size_t start = 0; start < datasets.size();) {
    std::size_t comma = datasets.find(',', start);
    if (comma == std::string::npos) comma = datasets.size();
    const std::string name = datasets.substr(start, comma - start);
    start = comma + 1;
    const abcs::DatasetSpec* spec = abcs::FindDataset(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
      return 2;
    }
    const abcs::bench::PreparedDataset ds = abcs::bench::Prepare(*spec);
    const uint32_t t = abcs::bench::ScaledParam(ds.delta(), 0.7);
    const std::vector<abcs::VertexId> qs =
        abcs::bench::SampleCoreVertices(ds, t, t, num_queries, 4444);
    if (qs.empty()) {
      std::fprintf(stderr, "empty (%u,%u)-core on %s — skipping\n", t, t,
                   name.c_str());
      continue;
    }
    std::printf(
        "scs throughput on %s: n=%u |E|=%u δ=%u α=β=%u, %zu queries/cell\n",
        name.c_str(), ds.graph.NumVertices(), ds.graph.NumEdges(), ds.delta(),
        t, qs.size());
    std::printf("%-6s %-6s %-14s %12s %12s %12s %14s\n", "data", "wts",
                "kernel", "median(us)", "mean(us)", "total(s)", "probes+vals");

    for (const WeightVariant& variant : kVariants) {
      const abcs::BipartiteGraph g = MakeVariantGraph(ds.graph, variant);
      const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g, &ds.decomp);
      // Retrieval is PR 2's story; fetch every community once up front so
      // the timed loops isolate the extraction kernels.
      std::vector<abcs::Subgraph> communities(qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i) {
        communities[i] = index.QueryCommunity(qs[i], t, t);
      }

      struct Kernel {
        const char* name;
        abcs::ScsAlgo algo;
      };
      const Kernel kernels[] = {
          {"peel", abcs::ScsAlgo::kPeel},
          {"expand", abcs::ScsAlgo::kExpand},
          {"binary", abcs::ScsAlgo::kBinary},
          {"auto", abcs::ScsAlgo::kAuto},
      };
      double totals[4] = {0};
      for (std::size_t k = 0; k < 4; ++k) {
        const Kernel& kernel = kernels[k];
        abcs::QueryScratch scratch;
        abcs::ScsWorkspace ws;
        abcs::ScsResult out;
        abcs::ScsStats stats;
        std::vector<double> latencies(qs.size());
        // Warm-up pass grows the pooled buffers; timed pass is steady-state.
        for (int pass = 0; pass < 2; ++pass) {
          const bool timed = pass == 1;
          for (std::size_t i = 0; i < qs.size(); ++i) {
            abcs::Timer timer;
            abcs::ScsQueryInto(g, communities[i], qs[i], t, t, kernel.algo,
                               {}, &out, timed ? &stats : nullptr, &scratch,
                               &ws);
            if (timed) latencies[i] = timer.Seconds();
          }
        }
        CellRow row;
        row.dataset = name;
        row.weights = variant.name;
        row.alpha = row.beta = t;
        row.kernel = kernel.name;
        row.queries = static_cast<uint32_t>(qs.size());
        for (double s : latencies) row.total_s += s;
        row.mean_us = row.total_s * 1e6 / static_cast<double>(qs.size());
        row.median_us = MedianUs(latencies);
        row.validations = stats.validations;
        row.incremental_probes = stats.incremental_probes;
        row.edges_processed = stats.edges_processed;
        totals[k] = row.total_s;
        rows.push_back(row);
        std::printf("%-6s %-6s %-14s %12.3f %12.3f %12.4f %14llu\n",
                    name.c_str(), variant.name, kernel.name, row.median_us,
                    row.mean_us, row.total_s,
                    static_cast<unsigned long long>(row.validations +
                                                    row.incremental_probes));
      }
      CellSummary summary;
      summary.dataset = name;
      summary.weights = variant.name;
      const std::size_t best =
          std::min_element(totals, totals + 3) - totals;  // single kernels
      summary.best_kernel = kernels[best].name;
      summary.auto_vs_best = totals[best] > 0 ? totals[3] / totals[best] : 0;
      summaries.push_back(summary);
      std::printf("%-6s %-6s best=%s auto/best=%.3f\n", name.c_str(),
                  variant.name, summary.best_kernel.c_str(),
                  summary.auto_vs_best);
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"machine\": %s,\n  \"num_queries\": %u,\n"
               "  \"results\": [\n",
               abcs::bench::MachineJson().c_str(), num_queries);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CellRow& r = rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"weights\": \"%s\", "
                 "\"alpha\": %u, \"beta\": %u, \"kernel\": \"%s\", "
                 "\"queries\": %u, \"median_us\": %.3f, \"mean_us\": %.3f, "
                 "\"total_s\": %.6f, \"validations\": %llu, "
                 "\"incremental_probes\": %llu, \"edges_processed\": %llu}%s\n",
                 r.dataset.c_str(), r.weights.c_str(), r.alpha, r.beta,
                 r.kernel.c_str(), r.queries, r.median_us, r.mean_us,
                 r.total_s, static_cast<unsigned long long>(r.validations),
                 static_cast<unsigned long long>(r.incremental_probes),
                 static_cast<unsigned long long>(r.edges_processed),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summaries\": [\n");
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const CellSummary& s = summaries[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"weights\": \"%s\", "
                 "\"best_kernel\": \"%s\", \"auto_vs_best\": %.4f}%s\n",
                 s.dataset.c_str(), s.weights.c_str(), s.best_kernel.c_str(),
                 s.auto_vs_best, i + 1 < summaries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
