#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "abcore/offsets.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "exec.h"
#include "serve/frame.h"
#include "serve/memo.h"
#include "serve/snapshot.h"

namespace perfbench {

/// What the daemon serves at start. `decomp` is the bundle's stored
/// decomposition (null when serving from text, as the daemon does).
struct ServedState {
  const abcs::BipartiteGraph* graph = nullptr;
  const abcs::DeltaIndex* delta = nullptr;
  const abcs::BicoreIndex* bicore = nullptr;
  const abcs::BicoreDecomposition* decomp = nullptr;
};

/// \brief In-process replay of a request and update stream through the
/// layers' public functions, in the order a daemon worker calls them:
/// frame decode, epoch pin, memo lookup, retrieval + SCS kernels on a
/// miss, memo insert, response encode; updates go through a
/// SnapshotManager whose publish hook invalidates the memo exactly as
/// the daemon's does. Single-threaded, so every span is pure service time.
class Replay {
 public:
  Replay(const ServedState& state, Tracer* tracer);
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Serves one query; returns its service time (root span) in ns.
  int64_t Read(const abcs::serve::WireRequest& req,
               abcs::serve::WireResponse* resp);
  /// Runs one query straight through the core layer, outside any request
  /// (kernel probes for methods the stream never uses).
  void Probe(const abcs::serve::WireRequest& req);
  /// Applies one update (or commit) and waits for its completion.
  /// Returns false when it was not answered ok.
  bool Update(const abcs::serve::WireRequest& op);

  const WorkCounters& work() const { return work_; }
  const std::vector<double>& apply_us() const { return apply_us_; }
  const std::vector<double>& publish_ms() const { return publish_ms_; }
  /// Memo entries still answering right after a publish, over the
  /// entries inserted before it, summed over every publish.
  uint64_t kept() const { return kept_; }
  uint64_t tracked() const { return tracked_; }

 private:
  struct Key {
    abcs::serve::WireMethod method;
    uint32_t alpha;
    uint32_t beta;
    abcs::VertexId q;
  };

  Tracer* tracer_;
  abcs::serve::QueryMemo memo_;
  abcs::serve::SnapshotManager snapshots_;
  bool writer_started_ = false;
  ExecWorker worker_;
  abcs::serve::FrameReader reader_;
  std::vector<std::byte> frame_;
  std::vector<std::byte> payload_;
  uint64_t next_request_ = 0;
  WorkCounters work_;
  std::vector<Key> inserted_;  ///< memo keys inserted at the current epoch
  std::vector<double> apply_us_;
  std::vector<double> publish_ms_;
  uint64_t kept_ = 0;
  uint64_t tracked_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
