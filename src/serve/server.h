#ifndef ABCS_SERVE_SERVER_H_
#define ABCS_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/query_engine.h"
#include "graph/bipartite_graph.h"
#include "serve/frame.h"
#include "serve/memo.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/snapshot.h"

namespace abcs::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read the bound one back via `port()`.
  uint16_t port = 0;
  /// Worker threads; 0 = hardware concurrency.
  unsigned num_threads = 0;
  /// Connections beyond this are accepted and immediately closed.
  unsigned max_connections = 64;
  /// Admission-queue bound; a full queue answers kOverloaded.
  std::size_t max_queue = 4096;
  /// Applied when a request carries deadline_ms = 0. 0 = no deadline.
  uint32_t default_deadline_ms = 0;
  bool enable_memo = true;
  /// Accept kUpdate frames and publish new epochs (the live-update path).
  /// Off, every update answers kUpdatesDisabled and serving is static.
  bool enable_updates = false;
  /// Bounded update-writer queue; a full queue answers kOverloaded.
  std::size_t update_queue = 1024;
  /// When nonempty, compaction rewrites the serving bundle here (atomic
  /// temp+rename, previous bundle kept as `.prev`).
  std::string compact_path;
  /// Compact after every N published epochs (0 = only at drain).
  uint32_t compact_every = 0;
  /// Slow-client protection: a connection whose oldest buffered response
  /// byte stays unsent this long is shed (never blocks a worker).
  uint32_t write_deadline_ms = 5000;
  /// Per-connection cap on buffered unsent response bytes; exceeding it
  /// sheds the connection immediately.
  std::size_t max_output_buffer = 4u << 20;
  /// Watchdog sampling period for the health state (0 disables the
  /// thread; health probes then never report a stall).
  uint32_t watchdog_interval_ms = 500;
  /// When nonzero, shrink SO_SNDBUF on accepted connections (chaos
  /// tooling: a small kernel buffer makes slow-client back-pressure
  /// reach the flusher's deadline quickly).
  uint32_t so_sndbuf = 0;
  /// Fast drain: at shutdown, admitted-but-unstarted queries answer
  /// kDeadlineExceeded instead of executing. Off by default — the
  /// graceful-drain guarantee (every admitted request is fully executed)
  /// stays intact unless the operator opts into a bounded-latency exit.
  bool fast_drain = false;
  /// Path of the bundle this daemon serves from; enables the background
  /// scrubber together with scrub_interval_ms.
  std::string bundle_path;
  /// Cadence for re-verifying the serving bundle's section checksums on
  /// disk (0 disables the scrubber thread). Requires bundle_path and
  /// static serving (enable_updates off): on corruption the damaged file
  /// is quarantined and the rotated `.prev` epoch is re-opened and
  /// published, while readers pinned on the old epoch drain untouched.
  uint32_t scrub_interval_ms = 0;
};

/// Monotonic counters, snapshotted for the shutdown summary and tests.
struct ServeStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t requests = 0;          ///< decoded frames, pings included
  uint64_t responses_ok = 0;
  uint64_t responses_error = 0;   ///< any non-kOk status
  uint64_t memo_hits = 0;
  uint64_t deadline_expired = 0;
  uint64_t stuck_cancelled = 0;   ///< in-flight queries the watchdog killed
  uint64_t overloaded = 0;
  uint64_t protocol_errors = 0;   ///< bad frames or payloads
  uint64_t slow_client_dropped = 0;  ///< connections shed by the write
                                     ///< deadline or output-buffer cap
  uint64_t health_probes = 0;     ///< kHealth frames answered
  uint64_t drained_tasks = 0;     ///< queue depth when shutdown began
  uint64_t updates_applied = 0;   ///< successful insert/remove/reweight
  uint64_t update_conflicts = 0;  ///< dup insert / missing-edge remove
  uint64_t epochs_published = 0;  ///< commits that produced a snapshot
  uint64_t compactions = 0;       ///< bundles rewritten by the writer
  uint64_t update_overflows = 0;  ///< updates rejected by the full queue
  uint64_t scrub_passes = 0;       ///< completed bundle verification passes
  uint64_t scrub_corruptions = 0;  ///< passes that found the bundle corrupt
  uint64_t scrub_recoveries = 0;   ///< successful `.prev` recovery publishes
};

/// \brief The `abcs serve` resident daemon: accepts length-prefixed
/// query frames over TCP and serves them from snapshot-versioned graph +
/// decomposition + indexes through a shared work-stealing worker pool
/// with a warm (α,β) memo in front. The server is seeded with all four
/// parts, so every epoch serves every method.
///
/// Serving is epoch-based RCU even when updates are disabled: every
/// admitted query pins the current `Snapshot` (a shared_ptr copy) and
/// executes against that frozen state, so a concurrent publish can never
/// shear a reader — each response is computed entirely against the epoch
/// it reports in `WireResponse::epoch`. With `enable_updates` a
/// SnapshotManager writer thread applies kUpdate frames to its edge set
/// and publishes successor snapshots at commit boundaries; the memo is
/// invalidated selectively per publish.
///
/// Threading model: one accept thread, one reader thread per connection
/// (bounded by max_connections), `num_threads` query workers, one
/// flusher and one watchdog. Readers decode frames and push tasks onto
/// the TaskScheduler with connection affinity; workers own a QueryWorker
/// each and run `QueryEngine::Execute` with zero steady-state
/// allocations; responses flow back through a per-connection sequencer
/// so pipelined requests are answered strictly in order even when
/// stealing reorders their execution.
///
/// Slow-client protection: connection sockets are non-blocking; a
/// response the socket won't take immediately lands in a bounded
/// per-connection output buffer owned by the flusher thread, which
/// polls for writability and sheds any connection whose oldest unsent
/// byte outlives `write_deadline_ms` (or whose buffer exceeds
/// `max_output_buffer`) — so one stalled peer can never wedge a worker
/// or delay other connections. The watchdog samples progress each
/// interval and exports live/degraded/draining through kHealth probes.
///
/// Lifecycle: `Start` binds and spawns; `Shutdown` drains gracefully —
/// stop accepting, half-close every connection's read side, let workers
/// finish every admitted request and flush its response, then join and
/// close. `RequestShutdown` only sets an atomic flag (safe from a signal
/// handler); the owner observes it via `WaitForShutdownRequest` and
/// calls `Shutdown` from a normal thread.
class Server {
 public:
  /// Seeds epoch 1 of the snapshot chain with the served unit: `g`, its
  /// decomposition and the I_δ and I_v built from that decomposition. All
  /// four are borrowed and must outlive the server; with updates enabled
  /// the writer forks its maintained state from them without re-peeling.
  Server(const BipartiteGraph& g, const BicoreDecomposition& decomp,
         const DeltaIndex& delta, const BicoreIndex& bicore,
         const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept + worker threads.
  Status Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Flags the server for shutdown; async-signal-safe (one atomic store).
  void RequestShutdown() { shutdown_requested_.store(true); }
  bool ShutdownRequested() const { return shutdown_requested_.load(); }

  /// Polls the shutdown flag (signal handlers cannot notify a condvar).
  void WaitForShutdownRequest() {
    while (!shutdown_requested_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  /// Graceful drain; idempotent, callable from any non-worker thread.
  void Shutdown();

  ServeStats Stats() const;
  QueryMemo& memo() { return memo_; }
  /// The snapshot chain (always present; static serving is epoch 1).
  SnapshotManager& snapshots() { return *snapshots_; }

 private:
  struct Connection;
  struct Task {
    std::shared_ptr<Connection> conn;
    uint32_t seq = 0;
    WireRequest req;
    std::chrono::steady_clock::time_point arrival;
    /// The epoch pin: keeps the snapshot (graph, indexes, engines) alive
    /// until this task's response is computed.
    std::shared_ptr<const Snapshot> snap;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop(unsigned t);
  /// Polls pending output buffers and sheds connections that miss the
  /// write deadline or overflow the buffer cap.
  void FlusherLoop();
  /// Samples progress each interval; flags a stall (queued work but no
  /// completions) for the health state, and escalates per-worker: a
  /// worker whose armed token made zero kernel progress across a full
  /// interval gets its generation cancelled (`stuck_cancelled`).
  void WatchdogLoop();
  /// Re-verifies the serving bundle's section checksums each interval;
  /// quarantines a corrupt file and republishes from `.prev`.
  void ScrubberLoop();
  void ScrubPass();
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   std::span<const std::byte> payload);
  /// Encodes, frames and hands `resp` to the connection's sequencer.
  void Respond(const std::shared_ptr<Connection>& conn, uint32_t seq,
               const WireResponse& resp);
  /// Sequencer tail shared by responses and health frames: parks the
  /// framed bytes under `seq`, appends the in-order prefix to the output
  /// buffer, flushes what the socket accepts and hands the rest to the
  /// flusher thread.
  void SubmitFrame(const std::shared_ptr<Connection>& conn, uint32_t seq,
                   std::vector<std::byte> framed);
  /// Non-blocking drain of conn->outbuf (requires conn->write_mu).
  void FlushLocked(Connection* conn);
  /// Marks the connection dead and wakes its reader (ditto).
  void KillLocked(Connection* conn);
  WireHealth BuildHealth();
  /// Runs `req` through `snap`'s engine on worker `w` and maps the
  /// outcome onto `resp`.
  void Execute(const WireRequest& req, const Snapshot& snap, QueryWorker& w,
               WireResponse* resp);
  void ReapConnectionsLocked();

  ServerOptions options_;
  unsigned resolved_threads_ = 1;

  std::unique_ptr<SnapshotManager> snapshots_;

  QueryMemo memo_;
  TaskScheduler<Task> scheduler_;

  // Per-worker pooled query state, indexed by worker id (each slot is
  // touched by exactly one thread). A worker's token is armed around
  // every Execute (with the request's remaining budget, or deadline-free
  // so the watchdog can still cancel) and sampled by the watchdog for
  // stuck detection.
  std::vector<std::unique_ptr<QueryWorker>> worker_states_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 0;

  // Slow-client flusher: connections with unsent response bytes queue
  // here; the flusher polls them for writability and enforces the write
  // deadline. The pipe wakes its poll when a new connection arrives.
  std::thread flusher_;
  std::mutex flush_mu_;
  std::vector<std::shared_ptr<Connection>> flush_pending_;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> flusher_stop_{false};

  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;      ///< guarded by watchdog_mu_
  std::atomic<bool> stalled_{false};
  std::atomic<bool> stuck_{false};  ///< a worker is armed with no progress

  std::thread scrubber_;
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;  ///< guarded by scrub_mu_
  /// The file the scrubber verifies; starts at bundle_path, moves to the
  /// `.prev` epoch after a recovery. Scrubber thread only.
  std::string scrub_path_;
  std::atomic<bool> scrub_corrupt_{false};  ///< detected, not yet recovered

  std::atomic<bool> fast_drain_{false};

  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> active_conns_{0};

  std::atomic<bool> accepting_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  bool stopped_ = false;

  struct AtomicStats {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_rejected{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> responses_ok{0};
    std::atomic<uint64_t> responses_error{0};
    std::atomic<uint64_t> memo_hits{0};
    std::atomic<uint64_t> deadline_expired{0};
    std::atomic<uint64_t> stuck_cancelled{0};
    std::atomic<uint64_t> overloaded{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> slow_client_dropped{0};
    std::atomic<uint64_t> health_probes{0};
    std::atomic<uint64_t> drained_tasks{0};
    std::atomic<uint64_t> scrub_passes{0};
    std::atomic<uint64_t> scrub_corruptions{0};
    std::atomic<uint64_t> scrub_recoveries{0};
  } counters_;
};

}  // namespace abcs::serve

#endif  // ABCS_SERVE_SERVER_H_
