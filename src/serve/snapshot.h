#ifndef ABCS_SERVE_SNAPSHOT_H_
#define ABCS_SERVE_SNAPSHOT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "abcore/offsets.h"
#include "common/status.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/query_engine.h"
#include "graph/bipartite_graph.h"
#include "serve/protocol.h"

namespace abcs {

class IndexBundle;

/// \brief What one publish changed — the contract the serve memo's
/// selective invalidation relies on (src/serve/memo.h).
///
/// `touched` is exact and deduplicated: the endpoints of the batch's
/// applied inserts and removes, plus every vertex whose α or β offset
/// slice differs between the previous decomposition and the new one. Any
/// vertex absent from it kept all its offsets, hence its core membership,
/// for every (α,β).
struct UpdateSummary {
  bool topology_changed = false;  ///< any insert/remove applied
  bool delta_changed = false;     ///< δ differs (global effect)
  std::vector<VertexId> touched;
};

}  // namespace abcs

namespace abcs::serve {

/// \brief One immutable epoch of the served state: graph + decomposition +
/// both index layers + the three pre-wired query engines, all frozen at a
/// commit boundary.
///
/// Storage: four `shared_ptr<const T>`, one form for every epoch. Each
/// pointer either owns its part (an epoch the writer published), aliases
/// an owner that keeps it alive (the scrubber's recovered `IndexBundle`,
/// through the aliasing constructor) or borrows it with an empty owner
/// (the daemon's startup state, which outlives every pin).
///
/// Reclamation is refcount RCU: readers pin an epoch by copying the
/// manager's `shared_ptr<const Snapshot>` at admission and hold it for the
/// life of the request; the writer publishes a successor and drops its own
/// reference; the snapshot retires (frees) exactly when the last pinned
/// reader releases it — never while pinned, never needing a grace period.
///
/// Structural sharing: a weights-only batch publishes a snapshot that
/// reuses the predecessor's `BicoreDecomposition` (offsets are
/// topology-only), so the expensive part of the chain is copy-on-write at
/// commit granularity.
class Snapshot {
 public:
  /// `delta` and `bicore` were built against `*graph` (and from `*decomp`
  /// when it is non-null).
  Snapshot(uint64_t epoch, std::shared_ptr<const BipartiteGraph> graph,
           std::shared_ptr<const BicoreDecomposition> decomp,
           std::shared_ptr<const DeltaIndex> delta,
           std::shared_ptr<const BicoreIndex> bicore);

  /// Borrows `g` and the indexes, with no decomposition; the caller keeps
  /// them alive for every pin.
  Snapshot(uint64_t epoch, const BipartiteGraph& g, const DeltaIndex* delta,
           const BicoreIndex* bicore);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  uint64_t epoch() const { return epoch_; }
  const BipartiteGraph& graph() const { return *graph_; }
  const DeltaIndex* delta_index() const { return delta_.get(); }
  const BicoreIndex* bicore_index() const { return bicore_.get(); }
  /// Null only in a snapshot seeded without one.
  const BicoreDecomposition* decomposition() const { return decomp_.get(); }

  const QueryEngine& online_engine() const { return online_engine_; }
  const QueryEngine& bicore_engine() const { return bicore_engine_; }
  const QueryEngine& delta_engine() const { return delta_engine_; }
  /// The engine of one retrieval path.
  const QueryEngine& engine(QueryMethod method) const;

 private:
  uint64_t epoch_;
  std::shared_ptr<const BipartiteGraph> graph_;
  std::shared_ptr<const BicoreDecomposition> decomp_;
  std::shared_ptr<const DeltaIndex> delta_;
  std::shared_ptr<const BicoreIndex> bicore_;
  QueryEngine online_engine_;
  QueryEngine bicore_engine_;
  QueryEngine delta_engine_;
};

struct SnapshotManagerOptions {
  /// Bounded writer queue; a full queue answers kOverloaded (reads are
  /// never affected by writer backpressure).
  std::size_t update_queue = 1024;
  /// When nonempty, compaction rewrites a fresh bundle here (atomic
  /// temp+rename with `keep_previous` rotation).
  std::string compact_path;
  /// Compact after every N commits (0 = only at drain). Ignored without a
  /// compact_path.
  uint32_t compact_every = 0;
};

/// Monotonic writer-side counters.
struct UpdateStats {
  uint64_t applied = 0;      ///< successful insert/remove/reweight ops
  uint64_t conflicts = 0;    ///< duplicate insert / missing-edge remove
  uint64_t commits = 0;      ///< published epochs (explicit + drain)
  uint64_t compactions = 0;  ///< bundles rewritten
  uint64_t overflows = 0;    ///< ops rejected by the full queue
};

/// \brief The single-writer epoch chain: drains a bounded update queue
/// into the writer's edge set and publishes immutable snapshots.
///
/// Seeding: epoch 1 is a snapshot that borrows the caller's graph,
/// decomposition and indexes, and it is the manager's only record of
/// them. `Start` copies the writer's edge set from that snapshot and keeps
/// its decomposition as the one the first publish compares against.
///
/// Publishing: the writer holds edges only, no offsets. A topology batch
/// re-peels the whole exported graph once (serial
/// `ComputeBicoreDecomposition`); a weights-only batch shares the previous
/// decomposition. Either way both indexes are rebuilt over the new graph.
///
/// Threading contract:
///  - Any thread calls `Current()` (epoch pin) and `Enqueue()`.
///  - Exactly one internal writer thread applies ops, answers their
///    completion callbacks, and publishes; completion callbacks run on
///    the writer thread and must not block on it.
///  - `Drain()` stops admission, applies everything already queued,
///    publishes uncommitted work as a final epoch and compacts — the
///    SIGTERM guarantee: an admitted update is fully applied and
///    compacted; a late one is cleanly rejected.
class SnapshotManager {
 public:
  /// (status, epoch): for mutations the currently *visible* epoch (the op
  /// itself becomes visible at the next commit); for kCommit the newly
  /// published epoch.
  using DoneFn = std::function<void(WireStatus, uint64_t)>;
  /// Runs on the writer thread at every publish, BEFORE the new snapshot
  /// becomes Current: (new snapshot, drained summary, touched bitmap
  /// already one-hop-expanded in the new graph). The server's memo
  /// invalidation hook.
  using PublishHook = std::function<void(
      const Snapshot&, const UpdateSummary&, const std::vector<uint8_t>&)>;

  /// Seeds epoch 1 as a borrowed snapshot of `g`, `decomp` and both
  /// indexes (all must outlive the manager). `Start` seeds the writer from
  /// that snapshot; with `decomp` null it peels the offsets there.
  SnapshotManager(const BipartiteGraph& g, const DeltaIndex* delta,
                  const BicoreIndex* bicore, const BicoreDecomposition* decomp,
                  SnapshotManagerOptions options);
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  void set_publish_hook(PublishHook hook);  ///< before Start only

  /// Spawns the writer thread after copying the seed snapshot's edges
  /// into the writer state. It peels only when the seed carries no
  /// decomposition.
  Status Start();

  /// Graceful writer shutdown (idempotent): reject new ops, apply the
  /// backlog, publish uncommitted work, compact when configured, join.
  void Drain();

  /// Pins the current epoch: the returned snapshot stays valid (and its
  /// arenas mapped/allocated) until the caller drops the pointer.
  std::shared_ptr<const Snapshot> Current() const;

  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Admits one op; `done` fires on the writer thread after application
  /// (or immediately here with kShuttingDown/kOverloaded on rejection —
  /// the return value is false only for those rejections).
  bool Enqueue(UpdateOp op, uint32_t u_upper, uint32_t v_lower, double weight,
               DoneFn done);

  /// Publishes a snapshot whose four parts alias a recovered bundle (the
  /// bundle stays mapped until the last pin drops) and returns its epoch —
  /// the scrubber's quarantine path. Readers pinned on the corrupt epoch
  /// keep their (already-validated) mapping until they drain; new
  /// admissions pin the recovered state. Only valid while live updates are
  /// disabled (the writer thread was never started), so it never races
  /// `Publish()`.
  uint64_t PublishRecovery(std::shared_ptr<const IndexBundle> bundle);

  UpdateStats Stats() const;

 private:
  struct PendingOp {
    UpdateOp op;
    uint32_t u;  ///< upper layer-local
    uint32_t v;  ///< lower layer-local
    double weight;
    DoneFn done;
  };

  void WriterLoop();
  void Apply(PendingOp& op);
  /// The live edge id of (u, v) in unified ids, or kInvalidEdge.
  EdgeId FindEdge(VertexId u, VertexId v) const;
  /// Compacts the alive edges into an immutable graph (fresh edge ids,
  /// same vertex ids).
  BipartiteGraph ExportGraph() const;
  /// Builds + publishes a new snapshot from the writer state; returns its
  /// epoch.
  uint64_t Publish();
  void MaybeCompact();

  const SnapshotManagerOptions options_;
  PublishHook publish_hook_;

  // Writer state, touched by `Start` and then by the writer thread only.
  uint32_t num_upper_ = 0;
  std::vector<std::vector<Arc>> adj_;
  std::vector<Edge> edges_;  ///< one slot per edge id ever created
  std::vector<uint8_t> edge_alive_;
  /// Endpoints of the inserts and removes applied since the last publish.
  std::vector<VertexId> endpoints_;
  std::shared_ptr<const BicoreDecomposition> last_decomp_;
  uint64_t ops_since_publish_ = 0;
  uint64_t commits_since_compact_ = 0;
  bool dirty_since_compact_ = false;

  mutable std::mutex current_mu_;
  std::shared_ptr<const Snapshot> current_;  ///< guarded by current_mu_
  std::atomic<uint64_t> epoch_{1};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingOp> queue_;  ///< guarded by queue_mu_
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool joined_ = false;
  std::thread writer_;

  struct AtomicStats {
    std::atomic<uint64_t> applied{0};
    std::atomic<uint64_t> conflicts{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> compactions{0};
    std::atomic<uint64_t> overflows{0};
  } counters_;
};

}  // namespace abcs::serve

#endif  // ABCS_SERVE_SNAPSHOT_H_
