// Wire-level serving benchmark harness.
//
// `run` spawns the shipped `abcs serve` as a child process, drives it over
// loopback TCP through one workload's phases, checks every answer against
// an in-process oracle and prints the run's metrics as one JSON line. With
// --trace 1 it also replays the light phase in-process through the layers'
// public functions and reports per-layer metrics instead.
//
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//       --abcs PATH --data DIR --out DIR [--tiny] [--commit SHA]
//   perfbench_harness streams --workload W --seed N --count K --data DIR
//       --out FILE [--tiny]
//
// `streams` writes the first K requests of every phase stream (and of the
// writer's update stream) as wire bytes, for the determinism self-test.

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "abcore/offsets.h"
#include "common.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "daemon.h"
#include "exec.h"
#include "graph/graph_io.h"
#include "io/index_bundle.h"
#include "replay.h"
#include "serve/protocol.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using abcs::serve::MessageType;
using abcs::serve::UpdateOp;
using abcs::serve::WireResponse;
using abcs::serve::WireStatus;

/// Spawns per run; setup_s is their median.
constexpr int kSetupRuns = 11;
/// Daemon worker threads and the generator's connections, every workload.
constexpr unsigned kDaemonThreads = 2;
/// Kernel calls the traced run guarantees per retrieval method and per
/// SCS kernel, probing the ones the workload's own stream does not reach.
constexpr uint64_t kMinKernelCalls = 100;
/// Repetitions of each set-up layer timing in the traced run.
constexpr int kLayerReps = 3;
/// Rounds of (capacity, light, heavy) slices per run.
constexpr uint64_t kCycles = 4;
/// An open-loop phase whose generator sent half its requests or more over
/// this late fell behind its schedule: the phase is invalid. (Its p99 lag
/// is reported too, but a shared host that stalls every thread for a few
/// milliseconds moves the p99, not the median.)
constexpr double kMaxLateMs = 1.0;

struct Options {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string abcs_path;
  std::string data_dir;
  std::string out;
  std::string commit = "unknown";
  std::size_t count = 200;
  bool tiny = false;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o->trace = std::atoi(v);
    } else if (a == "--abcs") {
      o->abcs_path = v;
    } else if (a == "--data") {
      o->data_dir = v;
    } else if (a == "--out") {
      o->out = v;
    } else if (a == "--commit") {
      o->commit = v;
    } else if (a == "--count") {
      o->count = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return !o->workload.empty() && !o->data_dir.empty() && !o->out.empty() &&
         o->seconds > 0;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// The served dataset, loaded in-process exactly as the daemon loads it.
/// Immovable: the indexes point at the member graph.
struct Dataset {
  std::string text_path;    ///< edge list (every dataset has one)
  std::string raw_path;     ///< raw bundle
  std::string max_path;     ///< --compress=max bundle
  std::string served_path;  ///< what the daemon is given
  std::unique_ptr<abcs::IndexBundle> bundle;
  abcs::BipartiteGraph graph;
  abcs::DeltaIndex delta;
  abcs::BicoreIndex bicore;
  ServedState state;
  DatasetView view;

  Dataset() = default;
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
};

abcs::Status LoadDataset(const WorkloadSpec& spec, const Options& opt,
                         Dataset* ds) {
  const std::string base = opt.data_dir + "/" + Lower(spec.dataset);
  ds->text_path = base + ".txt";
  ds->raw_path = base + ".raw";
  ds->max_path = base + ".max";
  if (spec.serve_from == "text") {
    ds->served_path = ds->text_path;
    ABCS_RETURN_NOT_OK(abcs::LoadEdgeList(ds->text_path, &ds->graph,
                                          /*zero_based=*/true));
    ds->delta = abcs::DeltaIndex::Build(ds->graph);
    ds->bicore = abcs::BicoreIndex::Build(ds->graph, nullptr, 0);
    ds->state = {&ds->graph, &ds->delta, &ds->bicore, nullptr};
  } else {
    ds->served_path = spec.serve_from == "max" ? ds->max_path : ds->raw_path;
    ABCS_RETURN_NOT_OK(abcs::OpenIndexBundle(ds->served_path, &ds->bundle));
    ds->state = {&ds->bundle->graph(), &ds->bundle->delta_index(),
                 &ds->bundle->bicore_index(), &ds->bundle->decomposition()};
  }
  ds->view = {ds->state.graph, ds->state.bicore, ds->state.delta->delta()};
  return abcs::Status::OK();
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

struct QueryKey {
  uint64_t a;
  uint64_t b;
  bool operator==(const QueryKey&) const = default;
};
struct QueryKeyHash {
  std::size_t operator()(const QueryKey& k) const {
    return std::hash<uint64_t>()(k.a * 0x9e3779b97f4a7c15ull ^ k.b);
  }
};
QueryKey KeyOf(const WireRequest& r) {
  return {(static_cast<uint64_t>(r.alpha) << 32) | r.q,
          (static_cast<uint64_t>(r.beta) << 16) |
              (static_cast<uint64_t>(r.method) << 1) |
              static_cast<uint64_t>(r.lower_side)};
}

/// Answers every distinct query among `indices` in-process on `state`
/// (parallel, one pooled worker per thread) and flags each record whose
/// wire answer differs.
void CheckAnswers(const ServedState& state, const std::vector<Record>& recs,
                  const std::vector<std::size_t>& indices,
                  std::vector<uint8_t>* wrong) {
  std::unordered_map<QueryKey, std::size_t, QueryKeyHash> slot;
  std::vector<WireRequest> distinct;
  for (const std::size_t i : indices) {
    if (slot.emplace(KeyOf(recs[i].req), distinct.size()).second) {
      distinct.push_back(recs[i].req);
    }
  }
  const abcs::serve::Snapshot snap(1, *state.graph, state.delta,
                                   state.bicore);
  std::vector<WireResponse> expect(distinct.size());
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ExecWorker worker;
      for (std::size_t k = t; k < distinct.size(); k += threads) {
        ExecuteQuery(snap, distinct[k], &worker, &expect[k]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::size_t i : indices) {
    if (!SameAnswer(recs[i].resp, expect[slot.at(KeyOf(recs[i].req))])) {
      (*wrong)[i] = 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// Capacity is read off equal time windows of the capacity phase: the
/// upper quartile of per-window throughput. A shared host only ever takes
/// throughput away (a descheduled virtual CPU stalls every thread for
/// milliseconds), so the quickest quarter of the windows is the repeatable
/// estimate of what the code itself can serve.
constexpr std::size_t kCapacityWindows = 20;
constexpr double kQuietThroughput = 0.75;

/// Open-loop latency is read off equal time windows of the phase too. A
/// shared virtual machine has slow spells of seconds to tens of seconds
/// (steal time reached ~12% on the 4-vCPU VM the rates were set on), in
/// which one slice's median latency can double while the other slices of
/// the same run stay calm. The percentiles are therefore taken over the
/// calmest windows, ranked by their own median: the p50 over those
/// holding half the phase's samples, the p99 over those holding three
/// quarters (the most trimming that still leaves ≥10 samples beyond a
/// light-phase p99).
constexpr std::size_t kLatencyWindows = 16;
constexpr double kP50Keep = 0.5;
constexpr double kP99Keep = 0.75;

struct LatencySummary {
  std::size_t n = 0;      ///< answered reads of the phase
  std::size_t n_p50 = 0;  ///< samples the p50 is taken over
  std::size_t n_p99 = 0;  ///< samples the p99 is taken over
  double p50_ms = 0;
  double p99_ms = 0;
  bool tail_ok = false;  ///< `min_tail` samples or more lie beyond the p99
};

/// A phase runs as several time slices, one per cycle. Maps a timestamp
/// inside one of them to the phase's own clock (slices laid end to end);
/// -1 when it falls in none.
int64_t PhaseClock(const std::vector<PhaseStats>& slices, int64_t t) {
  int64_t before = 0;
  for (const PhaseStats& s : slices) {
    if (t >= s.start_ns && t < s.start_ns + s.duration_ns) {
      return before + (t - s.start_ns);
    }
    before += s.duration_ns;
  }
  return -1;
}

int64_t PhaseDuration(const std::vector<PhaseStats>& slices) {
  int64_t d = 0;
  for (const PhaseStats& s : slices) d += s.duration_ns;
  return d;
}

/// Open-loop latency of `phase`, each answered read timed from its
/// scheduled send time and placed in the window (of kLatencyWindows over
/// the phase's slices) it was due in; see kLatencyWindows for which
/// windows each percentile keeps.
LatencySummary Latencies(const std::vector<Record>& recs,
                         const std::vector<PhaseStats>& slices,
                         std::size_t min_tail) {
  const Phase phase = slices.front().phase;
  const int64_t total = std::max<int64_t>(1, PhaseDuration(slices));
  std::vector<std::vector<double>> windows(kLatencyWindows);
  LatencySummary s;
  for (const Record& r : recs) {
    if (r.phase != phase || r.req.type != MessageType::kQuery || !r.ok()) {
      continue;
    }
    ++s.n;
    const int64_t clock = PhaseClock(slices, r.due_ns);
    if (clock < 0) continue;
    windows[static_cast<std::size_t>(
                clock * static_cast<int64_t>(kLatencyWindows) / total)]
        .push_back(static_cast<double>(r.recv_ns - r.due_ns) * 1e-6);
  }
  std::vector<std::pair<double, std::size_t>> calm;
  std::size_t windowed = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].empty()) continue;
    windowed += windows[i].size();
    calm.emplace_back(Percentile(windows[i], 0.5), i);
  }
  if (calm.empty()) return s;
  std::sort(calm.begin(), calm.end());
  // The calmest windows that together hold `keep` of the samples.
  const auto pool = [&](double keep) {
    std::vector<double> ms;
    for (const auto& [median, i] : calm) {
      if (static_cast<double>(ms.size()) >=
          keep * static_cast<double>(windowed)) {
        break;
      }
      ms.insert(ms.end(), windows[i].begin(), windows[i].end());
    }
    return ms;
  };
  std::vector<double> p50_pool = pool(kP50Keep);
  std::vector<double> p99_pool = pool(kP99Keep);
  s.n_p50 = p50_pool.size();
  s.n_p99 = p99_pool.size();
  s.p50_ms = Percentile(p50_pool, 0.5);
  s.p99_ms = Percentile(p99_pool, 0.99);
  s.tail_ok = TailSamples(p99_pool.size(), 0.99) >= min_tail;
  return s;
}

/// Closed-loop throughput: the upper quartile over kCapacityWindows equal
/// windows (spread over the phase's slices) of the completions each saw.
double CapacityQps(const std::vector<Record>& recs,
                   const std::vector<PhaseStats>& slices) {
  const Phase phase = slices.front().phase;
  std::vector<double> done(kCapacityWindows, 0.0);
  const int64_t total = std::max<int64_t>(1, PhaseDuration(slices));
  for (const Record& r : recs) {
    if (r.phase != phase || r.req.type != MessageType::kQuery || !r.ok()) {
      continue;
    }
    const int64_t clock = PhaseClock(slices, r.recv_ns);
    if (clock < 0) continue;
    done[static_cast<std::size_t>(
        clock * static_cast<int64_t>(kCapacityWindows) / total)] += 1.0;
  }
  const double window_s =
      static_cast<double>(total) * 1e-9 / kCapacityWindows;
  return Percentile(done, kQuietThroughput) / window_s;
}

/// Durations of the spans named `name`, in µs, with their sum in seconds.
struct SpanAgg {
  std::vector<double> us;
  double busy_s = 0;
};

std::map<std::string, SpanAgg> AggregateSpans(const Tracer& tracer) {
  std::map<std::string, SpanAgg> agg;
  for (const Tracer::Span& s : tracer.spans()) {
    SpanAgg& a = agg[s.name];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    a.us.push_back(d * 1e-3);
    a.busy_s += d * 1e-9;
  }
  return agg;
}

template <typename F>
double MedianSeconds(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    f();
    v.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(v);
}

double OpenSeconds(const std::string& path, bool verify) {
  return MedianSeconds(kLayerReps, [&] {
    std::unique_ptr<abcs::IndexBundle> b;
    abcs::BundleOpenOptions o;
    o.verify_checksums = verify;
    if (!abcs::OpenIndexBundle(path, &b, o).ok()) std::abort();
  });
}

/// Set-up layers of the workload's dataset, each through its public
/// function: text load, decomposition, both index builds, bundle opens.
void SetupLayerMetrics(const WorkloadSpec& spec, const Dataset& ds,
                       MetricSet* m) {
  abcs::BipartiteGraph g;
  m->Add("graph.load_s", MedianSeconds(kLayerReps, [&] {
           if (!abcs::LoadEdgeList(ds.text_path, &g, true).ok()) std::abort();
         }), "s");
  abcs::BicoreDecomposition decomp;
  m->Add("abcore.decomp_s", MedianSeconds(kLayerReps, [&] {
           decomp = abcs::ComputeBicoreDecomposition(g);
         }), "s");
  m->Add("core.delta_build_s", MedianSeconds(kLayerReps, [&] {
           abcs::DeltaIndex d = abcs::DeltaIndex::Build(g, &decomp);
         }), "s");
  m->Add("core.bicore_build_s", MedianSeconds(kLayerReps, [&] {
           abcs::BicoreIndex b = abcs::BicoreIndex::Build(g, &decomp);
         }), "s");
  const double raw_open = OpenSeconds(ds.raw_path, false);
  m->Add("io.map_s", raw_open, "s");
  m->Add("io.checksum_s", OpenSeconds(ds.raw_path, true) - raw_open, "s");
  m->Add("io.decode_s", OpenSeconds(ds.max_path, false) - raw_open, "s");
  const std::string& bundle =
      spec.serve_from == "max" ? ds.max_path : ds.raw_path;
  m->Add("io.bundle_mb",
         static_cast<double>(std::filesystem::file_size(bundle)) /
             (1024.0 * 1024.0),
         "MB");
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

/// \brief One lowest-priority (SCHED_IDLE) spinning thread per CPU while
/// the daemon is measured. On a virtual machine an idle CPU halts, and
/// waking it for the next request costs a hypervisor round trip whose
/// length follows the host's load — milliseconds on a busy host, so
/// latencies at low rates swung twofold between runs. A spinning CPU never
/// halts; any runnable daemon or generator thread preempts the spinner at
/// once, and a SCHED_IDLE thread gets almost no CPU time against them.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

const WorkloadSpec* FindSpec(const std::vector<WorkloadSpec>& all,
                             const std::string& name) {
  for (const WorkloadSpec& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct ReplayOutcome {
  double wall_s = 0;
  uint64_t warm_requests = 0;  ///< leading requests that only warm the memo
  std::vector<double> overhead_us;  ///< per light read: wire − service
  bool updates_ok = true;
};

/// Replays the light phase (hot_repeat: warm-up first, so the memo holds
/// what the daemon's did) and, for live_churn, every writer op sent up to
/// its end — the earlier ones too, so each op meets the graph it met on
/// the wire — merged in send order.
ReplayOutcome ReplayStream(const std::vector<Record>& recs, Replay* replay) {
  std::vector<std::size_t> order;
  int64_t light_end = 0;
  for (const Record& r : recs) {
    if (r.phase == Phase::kLight && r.req.type == MessageType::kQuery) {
      light_end = std::max(light_end, r.sent_ns);
    }
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    const bool read = r.req.type == MessageType::kQuery;
    if (read ? r.phase == Phase::kLight || r.phase == Phase::kWarm
             : r.sent_ns <= light_end) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto key = [&](std::size_t i) {
                       return std::make_pair(recs[i].phase != Phase::kWarm,
                                             recs[i].sent_ns);
                     };
                     return key(a) < key(b);
                   });
  ReplayOutcome out;
  const int64_t t0 = NowNs();
  for (const std::size_t i : order) {
    const Record& r = recs[i];
    if (r.req.type == MessageType::kUpdate) {
      out.updates_ok &= replay->Update(r.req);
      continue;
    }
    WireResponse resp;
    const int64_t service = replay->Read(r.req, &resp);
    if (r.phase == Phase::kWarm) ++out.warm_requests;
    if (r.phase == Phase::kLight && r.ok()) {
      out.overhead_us.push_back(
          static_cast<double>((r.recv_ns - r.due_ns) - service) * 1e-3);
    }
  }
  out.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return out;
}

/// Per-layer metrics of the traced run. Returns false when an update the
/// wire accepted failed in the replay.
bool LayerMetrics(const WorkloadSpec& spec, const Dataset& ds,
                  const std::vector<Record>& recs, uint64_t seed,
                  const std::string& spans_path, MetricSet* m,
                  std::string* notes) {
  SetupLayerMetrics(spec, ds, m);

  // Spans off first, then on: the difference is the tracing overhead.
  Tracer off(false);
  ReplayOutcome untraced;
  {
    Replay replay(ds.state, &off);
    untraced = ReplayStream(recs, &replay);
  }
  Tracer tracer(true);
  Replay replay(ds.state, &tracer);
  ReplayOutcome traced = ReplayStream(recs, &replay);

  // Probes: kernels the stream never reached still get a per-layer row.
  const std::map<std::string, SpanAgg> before = AggregateSpans(tracer);
  const auto calls = [&](const char* name) -> uint64_t {
    const auto it = before.find(name);
    return it == before.end() ? 0 : it->second.us.size();
  };
  for (const WireMethod method :
       {WireMethod::kOnline, WireMethod::kBicore, WireMethod::kDelta,
        WireMethod::kScsPeel, WireMethod::kScsExpand, WireMethod::kScsBinary}) {
    const char* span =
        abcs::serve::IsScsMethod(method)
            ? ScsSpanName(method == WireMethod::kScsPeel
                              ? abcs::ScsAlgo::kPeel
                          : method == WireMethod::kScsExpand
                              ? abcs::ScsAlgo::kExpand
                              : abcs::ScsAlgo::kBinary)
            : RetrieveSpanName(method);
    const uint64_t have = calls(span);
    if (have >= kMinKernelCalls) continue;
    auto stream = MakeProbeStream(spec, ds.view, method, seed);
    WireRequest req;
    for (uint64_t k = have; k < kMinKernelCalls && stream->Next(&req); ++k) {
      replay.Probe(req);
    }
    *notes += std::string(" probe:") + span + "=" +
              std::to_string(kMinKernelCalls - have);
  }
  // Snapshot layer: a workload that published nothing during the replay
  // gets one weights-only and one topology batch on its warm memo.
  if (replay.publish_ms().empty()) {
    UpdateStream probe(*ds.state.graph, 24, seed);
    for (int batch = 0; batch < 2; ++batch) {
      while (!probe.BatchFull()) traced.updates_ok &= replay.Update(probe.NextOp());
      traced.updates_ok &= replay.Update(probe.Commit());
    }
    *notes += " probe:serve.snapshot=2";
  }
  const bool replay_ok = traced.updates_ok && untraced.updates_ok;
  if (!replay_ok) *notes += " replay_update_failed";

  std::map<std::string, SpanAgg> agg = AggregateSpans(tracer);
  const WorkCounters& w = replay.work();
  const char* methods[3] = {"online", "bicore", "delta"};
  for (int k = 0; k < 3; ++k) {
    const std::string name = std::string("core.retrieve.") + methods[k];
    SpanAgg& a = agg[name];
    m->Add(name + ".calls", static_cast<double>(a.us.size()), "count");
    m->Add(name + ".busy_s", a.busy_s, "s");
    m->Add(name + ".p50_us", a.us.empty() ? 0 : Percentile(a.us, 0.5), "us");
    m->Add(name + ".p99_us", a.us.empty() ? 0 : Percentile(a.us, 0.99), "us");
    m->Add(name + ".arcs_per_edge",
           w.community_edges[k] == 0
               ? 0
               : static_cast<double>(w.touched_arcs[k]) /
                     static_cast<double>(w.community_edges[k]),
           "ratio");
  }
  for (const char* kernel : {"peel", "expand", "binary"}) {
    const std::string name = std::string("core.scs.") + kernel;
    SpanAgg& a = agg[name];
    m->Add(name + ".calls", static_cast<double>(a.us.size()), "count");
    m->Add(name + ".busy_s", a.busy_s, "s");
    m->Add(name + ".p50_us", a.us.empty() ? 0 : Percentile(a.us, 0.5), "us");
    m->Add(name + ".p99_us", a.us.empty() ? 0 : Percentile(a.us, 0.99), "us");
  }
  const double scs_calls = static_cast<double>(std::max<uint64_t>(1, w.scs_calls));
  m->Add("core.scs.edges_per_edge",
         static_cast<double>(w.scs_edges_processed) /
             static_cast<double>(std::max<uint64_t>(1, w.scs_input_edges)),
         "ratio");
  m->Add("core.scs.validations",
         static_cast<double>(w.scs_validations) / scs_calls, "count/call");
  m->Add("core.scs.probes", static_cast<double>(w.scs_probes) / scs_calls,
         "count/call");

  const auto p50_ns = [&](const char* name) {
    SpanAgg& a = agg[name];
    return a.us.empty() ? 0.0 : Percentile(a.us, 0.5) * 1e3;
  };
  m->Add("serve.protocol.decode_ns", p50_ns("serve.protocol.decode"), "ns");
  m->Add("serve.protocol.encode_ns", p50_ns("serve.protocol.encode"), "ns");

  std::size_t reads = 0;
  std::size_t hits = 0;
  for (const Record& r : recs) {
    if (r.req.type != MessageType::kQuery || !r.ok()) continue;
    if (r.phase == Phase::kWarm || r.phase == Phase::kVerify) continue;
    ++reads;
    hits += r.resp.memo_hit ? 1 : 0;
  }
  m->Add("serve.memo.hit_ratio",
         reads == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(reads),
         "ratio");
  m->Add("serve.memo.lookup_ns", p50_ns("serve.memo.lookup"), "ns");
  m->Add("serve.memo.insert_ns", p50_ns("serve.memo.insert"), "ns");
  m->Add("serve.memo.kept_ratio",
         replay.tracked() == 0 ? 0
                               : static_cast<double>(replay.kept()) /
                                     static_cast<double>(replay.tracked()),
         "ratio");

  std::vector<double> overhead = traced.overhead_us;
  m->Add("serve.overhead.p50_us",
         overhead.empty() ? 0 : Percentile(overhead, 0.5), "us");
  m->Add("serve.overhead.p99_us",
         overhead.empty() ? 0 : Percentile(overhead, 0.99), "us");
  std::vector<double> apply = replay.apply_us();
  std::vector<double> publish = replay.publish_ms();
  m->Add("serve.snapshot.apply_us", apply.empty() ? 0 : Median(apply), "us");
  m->Add("serve.snapshot.publish_ms", publish.empty() ? 0 : Median(publish),
         "ms");

  // Share of the light phase's service time spent inside the core layer
  // (hot_repeat's memo warm-up requests excluded).
  double request_s = 0;
  double core_s = 0;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (const Tracer::Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.request < traced.warm_requests) continue;
    if (std::strcmp(s.name, "request") == 0) {
      request_s += d;
    } else if (s.parent >= 0 && std::strncmp(s.name, "core.", 5) == 0 &&
               std::strcmp(spans[static_cast<std::size_t>(s.parent)].name,
                           "request") == 0) {
      core_s += d;
    }
  }
  m->Add("replay.core_share", request_s == 0 ? 0 : core_s / request_s,
         "ratio");
  m->Add("replay.traced_s", traced.wall_s, "s");
  m->Add("replay.untraced_s", untraced.wall_s, "s");
  *notes += " tracing_overhead_s=" +
            FormatNumber(traced.wall_s - untraced.wall_s) +
            " spans=" + std::to_string(spans.size());
  if (!tracer.WriteJsonl(spans_path).ok()) *notes += " spans_not_written";
  return replay_ok;
}

/// `pools`: requests each timed phase's stream holds (0 = endless).
std::string MetaJson(const Options& opt, const WorkloadSpec& spec,
                     const Dataset& ds, unsigned connections,
                     const std::size_t (&pools)[3]) {
  std::string s = "{";
  const auto field = [&](const char* k, const std::string& v, bool quote) {
    if (s.size() > 1) s += ", ";
    s += JsonString(k) + ": " + (quote ? JsonString(v) : v);
  };
  field("workload", spec.name, true);
  field("seed", std::to_string(opt.seed), false);
  field("seconds", FormatNumber(opt.seconds), false);
  field("trace", std::to_string(opt.trace), false);
  field("nproc", std::to_string(std::thread::hardware_concurrency()), false);
  field("compiler", PERFBENCH_COMPILER, true);
  field("build_type", PERFBENCH_BUILD_TYPE, true);
  field("commit", opt.commit, true);
  field("dataset", spec.dataset, true);
  field("served_from", ds.served_path, true);
  field("edges", std::to_string(ds.state.graph->NumEdges()), false);
  field("delta", std::to_string(ds.view.delta), false);
  field("daemon_threads", std::to_string(kDaemonThreads), false);
  field("connections", std::to_string(connections), false);
  field("capacity_window", std::to_string(spec.window), false);
  field("light_qps", FormatNumber(spec.light_qps), false);
  field("heavy_qps", FormatNumber(spec.heavy_qps), false);
  field("write_ops_per_s", FormatNumber(spec.write_ops_per_s), false);
  field("commit_every", std::to_string(spec.commit_every), false);
  field("pool_capacity", std::to_string(pools[0]), false);
  field("pool_light", std::to_string(pools[1]), false);
  field("pool_heavy", std::to_string(pools[2]), false);
  return s + "}";
}

int Run(const Options& opt) {
  const std::vector<WorkloadSpec> all = AllWorkloads(opt.tiny);
  const WorkloadSpec* found = FindSpec(all, opt.workload);
  if (found == nullptr || opt.abcs_path.empty()) {
    std::fprintf(stderr, "unknown workload or missing --abcs\n");
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const bool live = spec.write_ops_per_s > 0;
  const std::size_t min_tail = opt.tiny ? 0 : 10;

  Dataset ds;
  abcs::Status st = LoadDataset(spec, opt, &ds);
  if (!st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 2;
  }
  const std::string tag = opt.out + "/" + spec.name + "-seed" +
                          std::to_string(opt.seed) + "-trace" +
                          std::to_string(opt.trace);

  // Set-up: spawn → first answered query, several times; the last daemon
  // stays up for the phases.
  std::vector<std::string> argv = {opt.abcs_path, "serve"};
  if (spec.serve_from == "text") {
    argv.push_back(ds.served_path);
  } else {
    argv.insert(argv.end(), {"--bundle", ds.served_path});
  }
  argv.insert(argv.end(), {"--threads", std::to_string(kDaemonThreads),
                           "--port", "0", "--port-file", tag + ".port"});
  if (live) argv.push_back("--enable-updates");
  WireRequest probe;
  probe.alpha = probe.beta = ds.view.delta;

  auto spinners =
      std::make_unique<IdleSpinners>(std::thread::hardware_concurrency());
  Daemon daemon;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (daemon.running()) daemon.Stop();
    double s = 0;
    st = daemon.Start(argv, tag + ".port", tag + ".daemon.log", probe, &s);
    if (!st.ok()) {
      std::fprintf(stderr, "daemon: %s\n", st.ToString().c_str());
      return 2;
    }
    setups.push_back(s);
  }

  const unsigned connections = live ? 3 : 2;
  WireDriver wire;
  st = wire.Connect(daemon.port(), connections);
  if (!st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
    return 2;
  }
  const std::vector<unsigned> readers = {0, 1};
  const int64_t total_ns = static_cast<int64_t>(opt.seconds * 1e9);
  const int64_t cap_ns = total_ns / 5;
  const int64_t light_ns = total_ns * 2 / 5;
  const int64_t heavy_ns = total_ns - cap_ns - light_ns;
  constexpr int64_t kUnbounded = 600'000'000'000;

  // The timed phases run as kCycles rounds of (capacity, light, heavy)
  // slices, so slow drifts of the host hit every phase alike.
  std::vector<PhaseStats> slices;
  if (spec.name == "hot_repeat") {
    auto warm = MakeReadStream(spec, ds.view, Phase::kWarm, opt.seed);
    slices.push_back(wire.RunClosed(Phase::kWarm, readers, spec.window,
                                    kUnbounded, warm.get()));
  }
  std::unique_ptr<UpdateStream> writer;
  if (live) {
    writer = std::make_unique<UpdateStream>(*ds.state.graph,
                                            spec.commit_every, opt.seed);
    wire.StartWriter(2, spec.write_ops_per_s, writer.get());
  }
  auto cap = MakeReadStream(spec, ds.view, Phase::kCapacity, opt.seed);
  auto light = MakeReadStream(spec, ds.view, Phase::kLight, opt.seed);
  auto heavy = MakeReadStream(spec, ds.view, Phase::kHeavy, opt.seed);
  const std::size_t pools[3] = {cap->Size(), light->Size(), heavy->Size()};
  for (uint64_t c = 0; c < kCycles; ++c) {
    slices.push_back(wire.RunClosed(Phase::kCapacity, readers, spec.window,
                                    cap_ns / kCycles, cap.get()));
    slices.push_back(wire.RunOpen(Phase::kLight, readers, spec.light_qps,
                                  light_ns / kCycles, light.get(),
                                  opt.seed * 31 + 2 * c));
    slices.push_back(wire.RunOpen(Phase::kHeavy, readers, spec.heavy_qps,
                                  heavy_ns / kCycles, heavy.get(),
                                  opt.seed * 31 + 2 * c + 1));
  }
  bool writer_ok = true;
  if (live) {
    writer_ok = wire.StopWriter(60'000'000'000);
    auto verify = MakeReadStream(spec, ds.view, Phase::kVerify, opt.seed);
    slices.push_back(wire.RunClosed(Phase::kVerify, {0}, spec.window,
                                    kUnbounded, verify.get()));
  }
  double rss_mb = 0;
  const bool rss_ok = daemon.PeakRssMb(&rss_mb).ok();
  wire.Close();
  const int daemon_exit = daemon.Stop();
  spinners.reset();
  const std::vector<Record>& recs = wire.records();

  // ---- Correctness: every answer against the in-process oracle.
  std::vector<uint8_t> wrong(recs.size(), 0);
  std::vector<uint8_t> stale(recs.size(), 0);
  uint64_t final_epoch = 0;
  std::vector<double> commit_ms;
  if (!live) {
    std::vector<std::size_t> answered;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].ok()) answered.push_back(i);
    }
    CheckAnswers(ds.state, recs, answered, &wrong);
  } else {
    // Reads pin the epoch at admission and each connection is answered
    // in order, so epochs never go backwards on one connection.
    uint64_t last_epoch[3] = {0, 0, 0};
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Record& r = recs[i];
      if (!r.ok()) continue;
      if (r.req.type == MessageType::kUpdate) {
        if (r.req.op == UpdateOp::kCommit) {
          commit_ms.push_back(static_cast<double>(r.recv_ns - r.sent_ns) *
                              1e-6);
          final_epoch = std::max(final_epoch, r.resp.epoch);
        }
        continue;
      }
      if (r.resp.epoch < last_epoch[r.conn]) stale[i] = 1;
      last_epoch[r.conn] = r.resp.epoch;
    }
    abcs::BipartiteGraph final_graph;
    st = writer->BuildGraph(&final_graph);
    if (!st.ok()) {
      std::fprintf(stderr, "rebuild: %s\n", st.ToString().c_str());
      return 2;
    }
    const abcs::DeltaIndex fdelta = abcs::DeltaIndex::Build(final_graph);
    const abcs::BicoreIndex fbicore =
        abcs::BicoreIndex::Build(final_graph, nullptr, 0);
    std::vector<std::size_t> verify;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].phase != Phase::kVerify || !recs[i].ok()) continue;
      verify.push_back(i);
      if (recs[i].resp.epoch != final_epoch) stale[i] = 1;
    }
    CheckAnswers({&final_graph, &fdelta, &fbicore, nullptr}, recs, verify,
                 &wrong);
  }

  // ---- Failures by cause.
  std::map<std::string, uint64_t> causes;
  uint64_t attempted = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    ++attempted;
    if (r.state == Record::State::kTransportError) {
      ++causes["transport"];
    } else if (r.state == Record::State::kPending) {
      ++causes["missing_response"];
    } else if (r.resp.status != WireStatus::kOk) {
      ++causes[abcs::serve::WireStatusName(r.resp.status)];
    } else if (wrong[i]) {
      ++causes["wrong_answer"];
    } else if (stale[i]) {
      ++causes["stale_epoch"];
    }
  }
  if (!writer_ok) ++causes["writer_unacked"];
  if (daemon_exit != 0) ++causes["daemon_exit"];
  uint64_t failed = 0;
  for (const auto& [cause, n] : causes) failed += n;

  // ---- Phase validity and end-to-end metrics.
  MetricSet e2e;
  std::string invalid;
  e2e.Add("setup_s", Median(setups), "s");
  for (const Phase phase : {Phase::kWarm, Phase::kCapacity, Phase::kLight,
                            Phase::kHeavy, Phase::kVerify}) {
    std::vector<PhaseStats> mine;
    std::size_t scheduled = 0;
    std::size_t peak = 0;
    bool drained = true;
    bool exhausted = false;
    for (const PhaseStats& p : slices) {
      if (p.phase != phase) continue;
      mine.push_back(p);
      scheduled += p.scheduled;
      peak = std::max(peak, p.peak_backlog);
      drained &= p.drained;
      exhausted |= p.exhausted;
    }
    if (mine.empty()) continue;
    const bool open = phase == Phase::kLight || phase == Phase::kHeavy;
    // Warm-up and verification walk finite key lists to their end; a timed
    // phase whose stream ran out measured a shorter slice than it divides by.
    const bool timed = open || phase == Phase::kCapacity;
    if (timed && exhausted) {
      invalid += std::string(" ") + PhaseName(phase) + ":stream_exhausted";
    }
    std::vector<double> late_ms;
    for (const Record& r : recs) {
      if (open && r.phase == phase && r.req.type == MessageType::kQuery) {
        late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
      }
    }
    const double late_p50 = late_ms.empty() ? 0 : Percentile(late_ms, 0.5);
    const double late_p99 = late_ms.empty() ? 0 : Percentile(late_ms, 0.99);
    std::printf("# phase %s: slices=%zu requests=%zu late_p50_ms=%.4f "
                "late_p99_ms=%.4f peak_backlog=%zu drained=%d exhausted=%d\n",
                PhaseName(phase), mine.size(), scheduled, late_p50, late_p99,
                peak, drained ? 1 : 0, exhausted ? 1 : 0);
    if (phase == Phase::kCapacity) {
      e2e.Add("capacity_qps", CapacityQps(recs, mine), "1/s");
    }
    if (!open) continue;
    const char* prefix = phase == Phase::kLight ? "light" : "heavy";
    const LatencySummary l = Latencies(recs, mine, min_tail);
    std::printf("# %s latency: n=%zu p50_ms=%.4f (over %zu) p99_ms=%.4f "
                "(over %zu)\n",
                prefix, l.n, l.p50_ms, l.n_p50, l.p99_ms, l.n_p99);
    if (late_p50 > kMaxLateMs || !drained) {
      invalid += std::string(" ") + prefix + ":generator_behind";
      continue;
    }
    e2e.Add(std::string(prefix) + ".p50_ms", l.p50_ms, "ms");
    if (l.tail_ok) {
      e2e.Add(std::string(prefix) + ".p99_ms", l.p99_ms, "ms");
    } else {
      invalid += std::string(" ") + prefix + ":p99_unsupported";
    }
  }
  if (rss_ok) {
    e2e.Add("rss_mb", rss_mb, "MB");
  } else {
    invalid += " rss:unreadable";
  }

  // ---- What each workload is meant to exercise.
  std::size_t reads = 0;
  std::size_t hits = 0;
  for (const Record& r : recs) {
    if (r.req.type != MessageType::kQuery || !r.ok()) continue;
    if (r.phase == Phase::kWarm || r.phase == Phase::kVerify) continue;
    ++reads;
    hits += r.resp.memo_hit ? 1 : 0;
  }
  const double hit_ratio =
      reads == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(reads);
  std::string checks;
  bool checks_ok = true;
  if (!opt.tiny && spec.name == "hot_repeat" && hit_ratio < 0.9) {
    checks_ok = false;
    checks += " hit_ratio<0.9";
  }
  if (!opt.tiny && (spec.name == "cold_mix" || spec.name == "cold_raw") &&
      hit_ratio > 0.05) {
    checks_ok = false;
    checks += " hit_ratio>0.05";
  }
  if (live && final_epoch < 1 + static_cast<uint64_t>(spec.min_epochs)) {
    checks_ok = false;
    checks += " epochs<" + std::to_string(spec.min_epochs);
  }

  std::printf("# fail_ratio=%s attempted=%llu failed=%llu",
              FormatNumber(attempted == 0
                               ? 0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted))
                  .c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const auto& [cause, n] : causes) {
    std::printf(" %s=%llu", cause.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf(" client_retries=0\n");
  std::printf("# memo_hit_ratio=%s", FormatNumber(hit_ratio).c_str());
  if (live) {
    std::printf(" epochs_published=%llu commit_p50_ms=%s (n=%zu)",
                static_cast<unsigned long long>(
                    final_epoch > 0 ? final_epoch - 1 : 0),
                commit_ms.empty() ? "none"
                                  : FormatNumber(Median(commit_ms)).c_str(),
                commit_ms.size());
  }
  std::printf(" checks=%s\n", checks_ok ? "ok" : checks.c_str());
  if (!invalid.empty()) std::printf("# invalid:%s\n", invalid.c_str());

  MetricSet out = e2e;
  bool replay_ok = true;
  if (opt.trace == 1) {
    out = MetricSet();
    std::string notes;
    replay_ok = LayerMetrics(spec, ds, recs, opt.seed, tag + ".spans.jsonl",
                             &out, &notes);
    std::printf("# trace:%s\n", notes.c_str());
  }

  const bool correct =
      failed == 0 && checks_ok && invalid.empty() && replay_ok;
  const std::string meta = MetaJson(opt, spec, ds, connections, pools);
  std::printf("# meta %s\n", meta.c_str());
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + out.Json() + "}";
  std::ofstream(tag + ".json", std::ios::trunc)
      << "{\"meta\": " << meta << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// streams
// ---------------------------------------------------------------------------

int Streams(const Options& opt) {
  const std::vector<WorkloadSpec> all = AllWorkloads(opt.tiny);
  const WorkloadSpec* spec = FindSpec(all, opt.workload);
  if (spec == nullptr) return 2;
  Dataset ds;
  const abcs::Status st = LoadDataset(*spec, opt, &ds);
  if (!st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 2;
  }
  std::vector<std::byte> bytes;
  for (const Phase phase : {Phase::kWarm, Phase::kCapacity, Phase::kLight,
                            Phase::kHeavy, Phase::kVerify}) {
    auto stream = MakeReadStream(*spec, ds.view, phase, opt.seed);
    WireRequest req;
    for (std::size_t k = 0; k < opt.count && stream->Next(&req); ++k) {
      abcs::serve::EncodeRequest(req, &bytes);
    }
  }
  if (spec->write_ops_per_s > 0) {
    UpdateStream writer(*ds.state.graph, spec->commit_every, opt.seed);
    for (std::size_t k = 0; k < opt.count; ++k) {
      abcs::serve::EncodeRequest(
          writer.BatchFull() ? writer.Commit() : writer.NextOp(), &bytes);
    }
  }
  std::ofstream out(opt.out, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out ? 0 : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Tight timer wake-ups for the open-loop schedule (default slack is 50 µs).
  prctl(PR_SET_TIMERSLACK, 1UL);
  perfbench::Options opt;
  if (!perfbench::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness run|streams --workload W --seed N "
                 "--seconds S --trace 0|1 --abcs PATH --data DIR --out DIR "
                 "[--tiny] [--commit SHA] [--count K]\n");
    return 2;
  }
  if (opt.mode == "run") return perfbench::Run(opt);
  if (opt.mode == "streams") return perfbench::Streams(opt);
  return 2;
}
