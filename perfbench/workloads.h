#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/bicore_index.h"
#include "graph/bipartite_graph.h"
#include "serve/protocol.h"

namespace perfbench {

using abcs::serve::WireMethod;
using abcs::serve::WireRequest;

/// The timed and untimed stretches of one run, in run order.
enum class Phase : uint8_t {
  kWarm = 0,      ///< hot_repeat only: every key once, untimed
  kCapacity = 1,  ///< closed loop, fixed window per connection
  kLight = 2,     ///< open loop at the workload's light rate
  kHeavy = 3,     ///< open loop at the workload's heavy rate
  kVerify = 4,    ///< live_churn only: reads after the final commit
};
inline constexpr int kNumPhases = 5;
const char* PhaseName(Phase phase);

/// Fixed parameters of one workload. The rates are absolute numbers (see
/// README.md for how they were chosen); they are never derived from the
/// run itself, so two builds are always measured at the same offered
/// load.
struct WorkloadSpec {
  std::string name;
  std::string dataset;     ///< registry dataset (BS under --tiny)
  std::string serve_from;  ///< "raw" or "max" bundle, or "text" edge list
  double light_qps = 0;
  double heavy_qps = 0;
  unsigned window = 0;     ///< capacity phase: requests in flight per conn
  double write_ops_per_s = 0;  ///< live_churn writer op rate (0 = none)
  unsigned commit_every = 0;   ///< live_churn: ops per committed batch
  uint32_t min_epochs = 0;     ///< live_churn: epochs a run must publish
};

/// The named workloads; `tiny` swaps in the BS dataset and quarter
/// rates for the self-test.
std::vector<WorkloadSpec> AllWorkloads(bool tiny);

/// What stream generation reads from the served dataset: the graph, δ and
/// the (α,β)-core membership the keys are drawn from.
struct DatasetView {
  const abcs::BipartiteGraph* graph = nullptr;
  const abcs::BicoreIndex* bicore = nullptr;
  uint32_t delta = 0;
};

/// A deterministic, possibly endless sequence of query requests. The same
/// seed yields byte-identical requests.
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  /// Fills `*out` and returns true, or returns false once exhausted.
  virtual bool Next(WireRequest* out) = 0;
  /// Requests a finite stream holds at the start (cold_*: its in-core
  /// share, rejects come on top); 0 for an endless stream.
  virtual std::size_t Size() const { return 0; }
};

/// Read stream of `spec` for `phase`. Each phase draws from its own RNG;
/// cold_mix's and cold_raw's phases also draw from disjoint (q, α, β)
/// pools.
std::unique_ptr<RequestStream> MakeReadStream(const WorkloadSpec& spec,
                                              const DatasetView& data,
                                              Phase phase, uint64_t seed);

/// The same requests as `MakeReadStream(spec, data, kLight, seed)` with
/// the method replaced by `method` — the per-layer probe for kernels a
/// workload's own stream never reaches.
std::unique_ptr<RequestStream> MakeProbeStream(const WorkloadSpec& spec,
                                               const DatasetView& data,
                                               WireMethod method,
                                               uint64_t seed);

/// \brief live_churn's writer: a deterministic sequence of valid update
/// ops over the graph's current edge set. Batches of `commit_every` ops
/// alternate between weights-only (reweights) and topology (one edge
/// removed, the edge the previous topology batch removed reinserted, the
/// rest reweights). Ops never conflict, so no update fails by
/// construction.
class UpdateStream {
 public:
  UpdateStream(const abcs::BipartiteGraph& g, unsigned commit_every,
               uint64_t seed);

  /// Next mutation (never a commit).
  WireRequest NextOp();
  /// True once the current batch holds `commit_every` ops.
  bool BatchFull() const { return ops_in_batch_ >= commit_every_; }
  /// True when ops were produced since the last commit.
  bool Uncommitted() const { return ops_in_batch_ > 0; }
  /// Closes the current batch.
  WireRequest Commit();

  /// Rebuilds, from scratch, the graph all ops so far produce.
  abcs::Status BuildGraph(abcs::BipartiteGraph* out) const;

 private:
  struct EdgeRec {
    uint32_t u;
    uint32_t v;  ///< lower layer-local
    double w;
  };
  static uint64_t Key(uint32_t u, uint32_t v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  void AddPresent(const EdgeRec& e);
  EdgeRec RemoveAt(std::size_t i);
  double NewWeight();

  uint32_t num_upper_;
  uint32_t num_lower_;
  unsigned commit_every_;
  abcs::Rng rng_;
  std::vector<EdgeRec> present_;
  std::unordered_map<uint64_t, std::size_t> index_;
  std::vector<EdgeRec> removed_prev_;  ///< reinserted by the next topology
                                       ///< batch
  std::vector<EdgeRec> removed_cur_;
  unsigned ops_in_batch_ = 0;
  uint64_t batch_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
