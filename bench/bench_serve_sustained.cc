// Sustained-load serving benchmark: open-loop arrivals through the
// daemon's work-stealing TaskScheduler. The workload mixes ~86% cheap
// delta-index retrievals with ~14% expensive online queries — the regime
// behind the BENCH_query online p99 cliff (p50 0.78 ms vs p99 12.8 ms at
// 4 threads), where one in-flight online query would stall every request
// pinned behind it on its worker if idle workers did not steal.
//
// Open loop: arrival times are precomputed (exponential inter-arrivals,
// seeded), a producer pushes each request at its scheduled instant, and
// latency is measured completion − *scheduled* arrival — so queueing
// delay is charged to the server, not silently absorbed by a
// coordinated-omission closed loop. The offered rate is 70% of the
// measured closed-loop capacity at each thread count. Each thread count
// runs the open loop kRunsPerRow times and reports the run with the median
// p99 (its p50, p99, p999 and achieved rate).
//
// Emits BENCH_serve.json with the machine it ran on and one row per
// thread count; each row keeps `"mode": "work_steal"` so the rows stay
// keyed by (mode, threads) in the committed baseline.
//
// Environment:
//   ABCS_BENCH_DATASET        registry dataset (default BS)
//   ABCS_BENCH_SERVE_SECONDS  duration of one open-loop run (default 2)
//   argv[1]                   output JSON path (default BENCH_serve.json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/query_engine.h"
#include "serve/scheduler.h"

namespace {

using Clock = std::chrono::steady_clock;

// ~1 in 7 requests runs the index-free online method; the rest hit I_δ.
constexpr std::size_t kOnlineStride = 7;
// Simulated client connections; the scheduler hint pins a stream to one
// worker exactly like the daemon's per-connection affinity.
constexpr unsigned kStreams = 16;
// Open-loop runs per thread row. The producer shares the cores with the
// workers, so one run's p99 spreads several-fold on a 4-core box; the row
// reports the run with the median p99.
constexpr int kRunsPerRow = 5;

struct Workload {
  std::vector<abcs::QueryRequest> requests;
  std::vector<bool> online;  ///< per-request method flag
};

struct RunResult {
  double offered_qps = 0;
  double achieved_qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

double Quantile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0;
  const std::size_t k = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

Workload MakeWorkload(const abcs::bench::PreparedDataset& ds, uint32_t alpha,
                      uint32_t beta, std::size_t count) {
  const std::vector<abcs::VertexId> qs =
      abcs::bench::SampleCoreVertices(ds, alpha, beta, 64, 4321);
  Workload w;
  if (qs.empty()) return w;
  w.requests.resize(count);
  w.online.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    w.requests[i] = abcs::QueryRequest{qs[i % qs.size()], alpha, beta};
    w.online[i] = (i % kOnlineStride) == 0;
  }
  return w;
}

/// Executes workload item `i` into worker-local scratch.
struct Workers {
  const abcs::QueryEngine* delta_engine;
  const abcs::QueryEngine* online_engine;
  const Workload* workload;

  struct State {
    abcs::QueryScratch scratch;
    abcs::Subgraph out;
  };
  std::vector<std::unique_ptr<State>> states;

  explicit Workers(unsigned n) : states(n) {
    for (auto& s : states) s = std::make_unique<State>();
  }

  void Run(unsigned t, std::size_t i) {
    State& s = *states[t];
    const abcs::QueryEngine* engine =
        (*workload).online[i] ? online_engine : delta_engine;
    engine->Query((*workload).requests[i], s.scratch, &s.out);
  }
};

/// Closed-loop capacity: every request queued upfront, `threads` workers
/// drain through the scheduler. Returns completed queries per second.
double MeasureCapacity(Workers& workers, unsigned threads, std::size_t n) {
  abcs::serve::TaskScheduler<uint32_t> sched(threads, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    sched.Push(static_cast<uint32_t>(i),
               static_cast<unsigned>(i % kStreams));
  }
  sched.Close();
  abcs::Timer timer;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint32_t i;
      while (sched.Pop(t, &i)) workers.Run(t, i);
    });
  }
  for (std::thread& th : pool) th.join();
  const double secs = timer.Seconds();
  return secs > 0 ? static_cast<double>(n) / secs : 0;
}

RunResult RunOpenLoop(Workers& workers, unsigned threads, double offered_qps,
                      double seconds) {
  const std::size_t n = std::max<std::size_t>(
      200, static_cast<std::size_t>(offered_qps * seconds));
  // Precomputed exponential arrivals: the offered process is fixed before
  // the run starts, so producer jitter cannot throttle it.
  std::mt19937_64 rng(2024);
  std::exponential_distribution<double> exp_dist(offered_qps);
  std::vector<double> arrival_s(n);
  double at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    at += exp_dist(rng);
    arrival_s[i] = at;
  }

  abcs::serve::TaskScheduler<uint32_t> sched(threads, n + 1);
  std::vector<double> latency_us(n, 0.0);
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint32_t i;
      while (sched.Pop(t, &i)) {
        workers.Run(t, i);
        const double done_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        latency_us[i] = (done_s - arrival_s[i]) * 1e6;
      }
    });
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival_s[i]));
    std::this_thread::sleep_until(deadline);
    sched.Push(static_cast<uint32_t>(i), static_cast<unsigned>(i % kStreams));
  }
  sched.Close();
  for (std::thread& th : pool) th.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  RunResult r;
  r.offered_qps = offered_qps;
  r.achieved_qps = wall_s > 0 ? static_cast<double>(n) / wall_s : 0;
  std::vector<double> sorted = latency_us;
  r.p50_us = Quantile(sorted, 0.50);
  r.p99_us = Quantile(sorted, 0.99);
  r.p999_us = Quantile(sorted, 0.999);
  return r;
}

struct Row {
  unsigned threads;
  RunResult run;
};

}  // namespace

int main(int argc, char** argv) {
  const char* dataset_env = std::getenv("ABCS_BENCH_DATASET");
  const std::string dataset = dataset_env ? dataset_env : "BS";
  const char* seconds_env = std::getenv("ABCS_BENCH_SERVE_SECONDS");
  const double seconds = seconds_env ? std::atof(seconds_env) : 2.0;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_serve.json";

  const abcs::DatasetSpec* spec = abcs::FindDataset(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return 2;
  }
  const abcs::bench::PreparedDataset ds = abcs::bench::Prepare(*spec);
  const abcs::DeltaIndex delta = abcs::DeltaIndex::Build(ds.graph, &ds.decomp);

  const uint32_t alpha = abcs::bench::ScaledParam(ds.delta(), 0.7);
  const uint32_t beta = alpha;
  const Workload workload = MakeWorkload(ds, alpha, beta, 1u << 20);
  if (workload.requests.empty()) {
    std::fprintf(stderr, "empty (%u,%u)-core on %s\n", alpha, beta,
                 dataset.c_str());
    return 2;
  }

  const abcs::QueryEngine delta_engine(ds.graph, abcs::QueryMethod::kDelta,
                                       &delta);
  const abcs::QueryEngine online_engine(ds.graph, abcs::QueryMethod::kOnline);

  std::printf("serve sustained-load on %s: |E|=%u δ=%u (α,β)=(%u,%u), "
              "%.1fs/config, 1/%zu online\n",
              dataset.c_str(), ds.graph.NumEdges(), ds.delta(), alpha, beta,
              seconds, kOnlineStride);
  std::printf("%-12s %8s %12s %12s %10s %10s %10s\n", "mode", "threads",
              "offered", "achieved", "p50(us)", "p99(us)", "p999(us)");

  std::vector<Row> rows;
  for (const unsigned threads : {1u, 2u, 4u}) {
    Workers workers(threads);
    workers.delta_engine = &delta_engine;
    workers.online_engine = &online_engine;
    workers.workload = &workload;

    const std::size_t warm = 2000;
    (void)MeasureCapacity(workers, threads, warm);  // warm caches
    const double capacity = MeasureCapacity(workers, threads, 4000);
    const double offered = 0.7 * capacity;

    std::vector<RunResult> runs;
    for (int r = 0; r < kRunsPerRow; ++r) {
      runs.push_back(RunOpenLoop(workers, threads, offered, seconds));
    }
    std::sort(runs.begin(), runs.end(),
              [](const RunResult& a, const RunResult& b) {
                return a.p99_us < b.p99_us;
              });
    const RunResult run = runs[runs.size() / 2];
    rows.push_back(Row{threads, run});
    std::printf("%-12s %8u %12.1f %12.1f %10.1f %10.1f %10.1f\n", "work_steal",
                threads, run.offered_qps, run.achieved_qps, run.p50_us,
                run.p99_us, run.p999_us);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"machine\": %s,\n  \"dataset\": \"%s\",\n"
               "  \"num_edges\": %u,\n  \"delta\": %u,\n  \"alpha\": %u,\n"
               "  \"beta\": %u,\n  \"seconds_per_config\": %.2f,\n"
               "  \"results\": [\n",
               abcs::bench::MachineJson().c_str(), dataset.c_str(),
               ds.graph.NumEdges(), ds.delta(), alpha, beta, seconds);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"work_steal\", \"threads\": %u, "
                 "\"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}%s\n",
                 row.threads, row.run.offered_qps, row.run.achieved_qps,
                 row.run.p50_us, row.run.p99_us, row.run.p999_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
