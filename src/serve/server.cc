#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "core/cancel.h"
#include "io/fault_inject.h"
#include "io/index_bundle.h"
#include "serve/net_ops.h"

namespace abcs::serve {

namespace {

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

/// Per-connection state. The reader thread is the only producer of
/// sequence numbers; responses may be completed by any worker, so the
/// write side is a sequencer: completions park in `out_of_order` until
/// every earlier sequence number has been written, which keeps pipelined
/// responses in request order no matter how stealing reorders execution.
struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::thread reader;
  std::atomic<bool> reader_done{false};
  uint32_t assigned_seq = 0;  ///< touched only by the reader thread

  std::mutex write_mu;
  uint32_t next_seq = 0;  ///< guarded by write_mu
  std::map<uint32_t, std::vector<std::byte>> out_of_order;  ///< ditto
  bool dead = false;  ///< shed or write-failed; drop later writes. ditto

  // Bounded output buffer for bytes the non-blocking socket would not
  // take immediately: [out_off, outbuf.size()) is unsent. All guarded by
  // write_mu; the flusher thread drains it and enforces the write
  // deadline, so a slow peer never blocks a worker.
  std::vector<std::byte> outbuf;
  std::size_t out_off = 0;
  /// When the current backlog began (outbuf went nonempty); the write
  /// deadline counts from here and resets only on a full drain.
  std::chrono::steady_clock::time_point out_since;
  bool in_flusher = false;  ///< queued for the flusher thread

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

Server::Server(const BipartiteGraph& g, const BicoreDecomposition& decomp,
               const DeltaIndex& delta, const BicoreIndex& bicore,
               const ServerOptions& options)
    : options_(options),
      resolved_threads_(options.num_threads
                            ? options.num_threads
                            : std::max(1u,
                                       std::thread::hardware_concurrency())),
      scheduler_(resolved_threads_, options.max_queue) {
  SnapshotManagerOptions smo;
  smo.update_queue = options.update_queue;
  smo.compact_path = options.compact_path;
  smo.compact_every = options.compact_every;
  snapshots_ =
      std::make_unique<SnapshotManager>(g, &delta, &bicore, &decomp, smo);
  worker_states_.reserve(resolved_threads_);
  for (unsigned t = 0; t < resolved_threads_; ++t) {
    worker_states_.push_back(std::make_unique<QueryWorker>());
  }
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOError(ErrnoMessage("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Status::IOError(ErrnoMessage("bind"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status st = Status::IOError(ErrnoMessage("listen"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    const Status st = Status::IOError(ErrnoMessage("getsockname"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);

  // Align the memo with the seed snapshot before any worker can probe it.
  memo_.SetEpoch(snapshots_->Epoch());
  if (options_.enable_updates) {
    snapshots_->set_publish_hook(
        [this](const Snapshot& snap, const UpdateSummary& summary,
               const std::vector<uint8_t>& touched) {
          // δ growth/shrink re-bins every offset row: nothing survives.
          memo_.AdvanceEpoch(snap.epoch(), summary.topology_changed,
                             /*flush_all=*/summary.delta_changed, touched);
        });
    const Status st = snapshots_->Start();
    if (!st.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
  }

  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    const Status st = Status::IOError(ErrnoMessage("pipe2"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  if (options_.scrub_interval_ms > 0) {
    // The scrubber republishes through PublishRecovery, which must never
    // race the update writer's own Publish.
    if (options_.bundle_path.empty()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument("scrubbing requires a bundle path");
    }
    if (options_.enable_updates) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument(
          "scrubbing requires static serving (updates disabled)");
    }
  }

  started_ = true;
  accepting_.store(true);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  workers_.reserve(resolved_threads_);
  for (unsigned t = 0; t < resolved_threads_; ++t) {
    workers_.emplace_back(&Server::WorkerLoop, this, t);
  }
  flusher_ = std::thread(&Server::FlusherLoop, this);
  if (options_.watchdog_interval_ms > 0) {
    watchdog_ = std::thread(&Server::WatchdogLoop, this);
  }
  if (options_.scrub_interval_ms > 0) {
    scrub_path_ = options_.bundle_path;
    scrubber_ = std::thread(&Server::ScrubberLoop, this);
  }
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // 1. Refuse new work: no new connections, readers answer kShuttingDown;
  //    with fast_drain, workers answer every admitted-but-unstarted query
  //    kDeadlineExceeded from here on.
  draining_.store(true);
  if (options_.fast_drain) fast_drain_.store(true);
  accepting_.store(false);
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Half-close every read side; blocked recv()s wake with EOF and the
  //    readers exit after flushing already-buffered frames.
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& c : conns_) ::shutdown(c->fd, SHUT_RD);
    for (const auto& c : conns_) {
      if (c->reader.joinable()) c->reader.join();
    }
  }
  // 3. Drain the update writer: every admitted update is applied, the
  //    uncommitted tail is published and compacted, and each completion
  //    flushes its response through the still-open connections. Readers
  //    are joined, so no op can slip in behind the drain.
  snapshots_->Drain();
  // 4. Drain the query pool: every admitted request still gets a response
  //    written before the workers exit (TaskScheduler::Close hands out
  //    queued tasks until empty) — computed, or with fast_drain (step 1)
  //    kDeadlineExceeded.
  counters_.drained_tasks.store(scheduler_.Pending());
  scheduler_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // 5. Final flush: no thread can submit frames anymore, so the flusher
  //    drains every pending output buffer (bounded — a peer that still
  //    won't read is shed by the write deadline) and exits.
  flusher_stop_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
  if (flusher_.joinable()) flusher_.join();
  {
    std::lock_guard lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  {
    std::lock_guard lock(scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.notify_all();
  if (scrubber_.joinable()) scrubber_.join();
  // 6. Tear down. Connection fds close when the last reference drops —
  //    all workers and the flusher have joined, so that is here.
  {
    std::lock_guard lock(conns_mu_);
    conns_.clear();
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServeStats Server::Stats() const {
  ServeStats s;
  s.connections_accepted = counters_.connections_accepted.load();
  s.connections_rejected = counters_.connections_rejected.load();
  s.requests = counters_.requests.load();
  s.responses_ok = counters_.responses_ok.load();
  s.responses_error = counters_.responses_error.load();
  s.memo_hits = counters_.memo_hits.load();
  s.deadline_expired = counters_.deadline_expired.load();
  s.stuck_cancelled = counters_.stuck_cancelled.load();
  s.overloaded = counters_.overloaded.load();
  s.protocol_errors = counters_.protocol_errors.load();
  s.slow_client_dropped = counters_.slow_client_dropped.load();
  s.health_probes = counters_.health_probes.load();
  s.drained_tasks = counters_.drained_tasks.load();
  s.scrub_passes = counters_.scrub_passes.load();
  s.scrub_corruptions = counters_.scrub_corruptions.load();
  s.scrub_recoveries = counters_.scrub_recoveries.load();
  const UpdateStats us = snapshots_->Stats();
  s.updates_applied = us.applied;
  s.update_conflicts = us.conflicts;
  s.epochs_published = us.commits;
  s.compactions = us.compactions;
  s.update_overflows = us.overflows;
  return s;
}

void Server::AcceptLoop() {
  while (accepting_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // A negative return here is EINTR or a transient kernel hiccup;
    // either way the right move is the same as a timeout: reap and
    // re-poll, never exit the accept loop.
    const int ready = NetPoll(&pfd, 1, /*timeout_ms=*/100, "net.accept_poll");
    {
      std::lock_guard lock(conns_mu_);
      ReapConnectionsLocked();
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    // Non-blocking from birth: responses go through the bounded output
    // buffer + flusher, and a ready-reported but already-lost connection
    // cannot hang the accept thread.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) continue;
    std::lock_guard lock(conns_mu_);
    if (draining_.load() || conns_.size() >= options_.max_connections) {
      counters_.connections_rejected.fetch_add(1);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf > 0) {
      const int sz = static_cast<int>(options_.so_sndbuf);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    counters_.connections_accepted.fetch_add(1);
    active_conns_.fetch_add(1);
    conn->reader = std::thread(&Server::ReaderLoop, this, conn);
    conns_.push_back(std::move(conn));
  }
}

void Server::ReapConnectionsLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->reader_done.load()) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      // In-flight tasks keep the Connection alive through their
      // shared_ptr; the fd closes when the last response is delivered.
      active_conns_.fetch_sub(1);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  FrameReader reader;
  std::byte buf[4096];
  for (;;) {
    // The socket is non-blocking, so pace reads with poll; the timeout
    // doubles as the exit check for shed connections (shutdown(2) on the
    // fd turns the next recv into EOF).
    pollfd pfd{conn->fd, POLLIN, 0};
    const int ready = NetPoll(&pfd, 1, /*timeout_ms=*/100,
                              "net.server_recv_poll");
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = NetRecv(conn->fd, buf, sizeof(buf), "net.server_recv");
    if (n == 0) break;
    if (n < 0) {
      // EINTR/EAGAIN are re-pollable, not connection death (the bug this
      // loop used to share with the response writer).
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    if (!reader.Append({buf, static_cast<std::size_t>(n)}).ok()) {
      counters_.protocol_errors.fetch_add(1);
      break;  // framing is unrecoverable: kill the connection
    }
    std::span<const std::byte> payload;
    while (reader.Next(&payload)) HandleFrame(conn, payload);
    if (reader.Poisoned()) {
      counters_.protocol_errors.fetch_add(1);
      break;
    }
  }
  if (reader.PendingBytes() > 0) {
    // EOF mid-frame: the peer truncated its last request.
    counters_.protocol_errors.fetch_add(1);
  }
  conn->reader_done.store(true);
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         std::span<const std::byte> payload) {
  const uint32_t seq = conn->assigned_seq++;
  counters_.requests.fetch_add(1);
  WireRequest req;
  WireResponse resp;
  const Status st = DecodeRequest(payload, &req);
  if (!st.ok()) {
    // The frame boundary held, so the stream stays usable; only this
    // request is rejected.
    counters_.protocol_errors.fetch_add(1);
    resp.status = WireStatus::kBadRequest;
    Respond(conn, seq, resp);
    return;
  }
  resp.type = req.type;
  if (req.type == MessageType::kPing) {
    resp.epoch = snapshots_->Epoch();
    Respond(conn, seq, resp);
    return;
  }
  if (req.type == MessageType::kHealth) {
    // Answered inline like ping, but with the watchdog's extended frame.
    counters_.health_probes.fetch_add(1);
    counters_.responses_ok.fetch_add(1);
    std::vector<std::byte> payload;
    EncodeHealthResponse(BuildHealth(), &payload);
    std::vector<std::byte> framed;
    AppendFrame(payload, &framed);
    SubmitFrame(conn, seq, std::move(framed));
    return;
  }
  if (req.type == MessageType::kUpdate) {
    resp.epoch = snapshots_->Epoch();
    if (!options_.enable_updates) {
      resp.status = WireStatus::kUpdatesDisabled;
      Respond(conn, seq, resp);
      return;
    }
    if (draining_.load()) {
      resp.status = WireStatus::kShuttingDown;
      Respond(conn, seq, resp);
      return;
    }
    // Vertex universes are fixed across epochs (updates rewire edges, not
    // vertex sets), so the current epoch's shape bounds every update.
    const std::shared_ptr<const Snapshot> snap = snapshots_->Current();
    if (req.op != UpdateOp::kCommit &&
        (req.u >= snap->graph().NumUpper() ||
         req.v >= snap->graph().NumLower())) {
      resp.status = WireStatus::kInvalidVertex;
      Respond(conn, seq, resp);
      return;
    }
    // The done callback fires exactly once: on the writer thread after
    // application, or synchronously on rejection (queue full / draining).
    const MessageType type = req.type;
    snapshots_->Enqueue(req.op, req.u, req.v, req.weight,
                        [this, conn, seq, type](WireStatus ws,
                                                uint64_t epoch) {
                          WireResponse r;
                          r.type = type;
                          r.status = ws;
                          r.epoch = epoch;
                          Respond(conn, seq, r);
                        });
    return;
  }
  Task task;
  task.conn = conn;
  task.seq = seq;
  task.req = req;
  task.arrival = std::chrono::steady_clock::now();
  // Pin the epoch at admission: the admission checks below and the whole
  // execution read this one frozen snapshot, even if the writer publishes
  // midway.
  task.snap = snapshots_->Current();
  const BipartiteGraph& g = task.snap->graph();
  if (req.q >= (req.lower_side ? g.NumLower() : g.NumUpper())) {
    resp.status = WireStatus::kInvalidVertex;
    Respond(conn, seq, resp);
    return;
  }
  if (draining_.load()) {
    resp.status = WireStatus::kShuttingDown;
    Respond(conn, seq, resp);
    return;
  }
  if (!scheduler_.Push(std::move(task), static_cast<unsigned>(conn->id))) {
    counters_.overloaded.fetch_add(1);
    resp.status = WireStatus::kOverloaded;
    Respond(conn, seq, resp);
  }
}

void Server::WorkerLoop(unsigned t) {
  Task task;
  QueryWorker& w = *worker_states_[t];
  while (scheduler_.Pop(t, &task)) {
    inflight_.fetch_add(1);
    const Snapshot& snap = *task.snap;
    WireResponse resp;
    resp.type = MessageType::kQuery;
    resp.epoch = snap.epoch();
    const uint32_t deadline_ms = task.req.deadline_ms
                                     ? task.req.deadline_ms
                                     : options_.default_deadline_ms;
    const auto waited = std::chrono::steady_clock::now() - task.arrival;
    const bool expired_in_queue =
        deadline_ms > 0 && waited > std::chrono::milliseconds(deadline_ms);
    if (expired_in_queue || fast_drain_.load(std::memory_order_acquire)) {
      counters_.deadline_expired.fetch_add(1);
      resp.status = WireStatus::kDeadlineExceeded;
      Respond(task.conn, task.seq, resp);
      inflight_.fetch_sub(1);
      continue;
    }
    const VertexId q = task.req.lower_side
                           ? snap.graph().NumUpper() + task.req.q
                           : task.req.q;
    MemoValue value;
    if (options_.enable_memo &&
        memo_.Lookup(task.req.method, task.req.alpha, task.req.beta, q,
                     &value, snap.epoch())) {
      counters_.memo_hits.fetch_add(1);
      resp.found = value.found;
      resp.num_edges = value.num_edges;
      resp.result_edges = value.result_edges;
      resp.kernel = value.kernel;
      resp.significance = value.significance;
      resp.memo_hit = true;
    } else {
      // Arm the worker's token around the execution: the queue wait
      // already consumed part of the budget, so the kernels get only the
      // remainder. Armed even without a deadline (remaining_ms = 0 means
      // deadline-free) so the watchdog can always cancel a stuck query.
      uint32_t remaining_ms = 0;
      if (deadline_ms > 0) {
        const auto left = std::chrono::milliseconds(deadline_ms) - waited;
        remaining_ms = static_cast<uint32_t>(std::max<int64_t>(
            1, std::chrono::duration_cast<std::chrono::milliseconds>(left)
                   .count()));
      }
      w.scratch.set_cancel_token(&w.token);
      w.token.Arm(remaining_ms);
      Execute(task.req, snap, w, &resp);
      const bool stopped = w.token.Stopped();
      const CancelToken::StopReason reason = w.token.reason();
      w.token.Finish();
      w.scratch.set_cancel_token(nullptr);
      if (stopped) {
        // The kernels unwound mid-query: the partial answer is meaningless
        // and must not poison the memo. Count by who pulled the trigger.
        if (reason == CancelToken::StopReason::kCancelled) {
          counters_.stuck_cancelled.fetch_add(1);
        } else {
          counters_.deadline_expired.fetch_add(1);
        }
        resp = WireResponse{};
        resp.type = MessageType::kQuery;
        resp.epoch = snap.epoch();
        resp.status = WireStatus::kDeadlineExceeded;
      } else if (options_.enable_memo) {
        value = MemoValue{resp.found, resp.num_edges, resp.result_edges,
                          resp.kernel, resp.significance};
        memo_.Insert(task.req.method, task.req.alpha, task.req.beta, q,
                     snap.graph(), w.community, value, snap.epoch());
      }
    }
    Respond(task.conn, task.seq, resp);
    inflight_.fetch_sub(1);
  }
}

void Server::Execute(const WireRequest& req, const Snapshot& snap,
                     QueryWorker& w, WireResponse* resp) {
  const VertexId q = req.lower_side ? snap.graph().NumUpper() + req.q : req.q;
  const WireKernels kernels = WireMethodKernels(req.method);
  const QueryOutcome o = snap.engine(kernels.retrieval)
                             .Execute({q, req.alpha, req.beta}, kernels.scs, w);
  resp->found = o.found;
  resp->num_edges = o.num_edges;
  resp->result_edges = o.result_edges;
  resp->significance = o.significance;
  resp->kernel = o.kernel ? static_cast<uint8_t>(*o.kernel) : kNoKernel;
}

void Server::Respond(const std::shared_ptr<Connection>& conn, uint32_t seq,
                     const WireResponse& resp) {
  if (resp.status == WireStatus::kOk) {
    counters_.responses_ok.fetch_add(1);
  } else {
    counters_.responses_error.fetch_add(1);
  }
  std::vector<std::byte> payload;
  EncodeResponse(resp, &payload);
  std::vector<std::byte> framed;
  AppendFrame(payload, &framed);
  SubmitFrame(conn, seq, std::move(framed));
}

void Server::SubmitFrame(const std::shared_ptr<Connection>& conn,
                         uint32_t seq, std::vector<std::byte> framed) {
  bool enqueue = false;
  {
    std::lock_guard lock(conn->write_mu);
    conn->out_of_order[seq] = std::move(framed);
    // Move the in-order prefix into the output buffer. Dead connections
    // still advance the sequencer (the map must drain); their bytes are
    // simply dropped.
    auto it = conn->out_of_order.begin();
    while (it != conn->out_of_order.end() && it->first == conn->next_seq) {
      if (!conn->dead) {
        if (conn->out_off == conn->outbuf.size()) {
          conn->outbuf.clear();
          conn->out_off = 0;
          conn->out_since = std::chrono::steady_clock::now();
        }
        conn->outbuf.insert(conn->outbuf.end(), it->second.begin(),
                            it->second.end());
      }
      it = conn->out_of_order.erase(it);
      ++conn->next_seq;
    }
    if (!conn->dead) FlushLocked(conn.get());
    enqueue = !conn->dead && conn->out_off < conn->outbuf.size() &&
              !conn->in_flusher;
    if (enqueue) conn->in_flusher = true;
  }
  if (enqueue) {
    {
      std::lock_guard lock(flush_mu_);
      flush_pending_.push_back(conn);
    }
    const char byte = 1;
    [[maybe_unused]] const ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::FlushLocked(Connection* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t n =
        NetSend(conn->fd, conn->outbuf.data() + conn->out_off,
                conn->outbuf.size() - conn->out_off, "net.server_send");
    if (n > 0) {
      conn->out_off += static_cast<std::size_t>(n);
      continue;
    }
    // EINTR used to mark the connection dead here, dropping every
    // remaining in-order response; it is just a retry.
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    KillLocked(conn);
    return;
  }
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
    return;
  }
  if (conn->outbuf.size() - conn->out_off > options_.max_output_buffer) {
    counters_.slow_client_dropped.fetch_add(1);
    KillLocked(conn);
  }
}

void Server::KillLocked(Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  conn->outbuf.clear();
  conn->out_off = 0;
  // Wakes the reader (its next recv sees EOF) and tells the peer.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::FlusherLoop() {
  std::vector<std::shared_ptr<Connection>> watched;
  std::vector<pollfd> fds;
  for (;;) {
    {
      std::lock_guard lock(flush_mu_);
      for (auto& c : flush_pending_) watched.push_back(std::move(c));
      flush_pending_.clear();
    }
    if (watched.empty() && flusher_stop_.load()) {
      // No submitter is alive once the stop flag is set, so an empty
      // watch set is final.
      std::lock_guard lock(flush_mu_);
      if (flush_pending_.empty()) break;
      continue;
    }
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& c : watched) fds.push_back({c->fd, POLLOUT, 0});
    // The 50ms cap bounds how late a write-deadline check can run.
    const int ready = NetPoll(fds.data(), static_cast<nfds_t>(fds.size()),
                              /*timeout_ms=*/50, "net.flush_poll");
    if (ready < 0) continue;  // EINTR: re-build and re-poll
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    const auto now = std::chrono::steady_clock::now();
    // write_deadline_ms = 0 disables shedding while serving, but the
    // final drain must stay bounded: a peer that won't read during
    // shutdown is shed after 1s so Shutdown() cannot hang.
    uint32_t deadline_ms = options_.write_deadline_ms;
    if (flusher_stop_.load() && deadline_ms == 0) deadline_ms = 1000;
    const auto deadline = std::chrono::milliseconds(deadline_ms);
    for (std::size_t i = 0; i < watched.size();) {
      Connection* conn = watched[i].get();
      bool done;
      {
        std::lock_guard lock(conn->write_mu);
        if (!conn->dead) FlushLocked(conn);
        if (!conn->dead && conn->out_off < conn->outbuf.size() &&
            deadline_ms > 0 && now - conn->out_since > deadline) {
          // The peer stopped reading: shed it rather than buffer forever.
          counters_.slow_client_dropped.fetch_add(1);
          KillLocked(conn);
        }
        done = conn->dead || conn->out_off >= conn->outbuf.size();
        if (done) conn->in_flusher = false;
      }
      if (done) {
        watched[i] = std::move(watched.back());
        watched.pop_back();
      } else {
        ++i;
      }
    }
  }
}

void Server::WatchdogLoop() {
  uint64_t last_completed = 0;
  // Per-worker progress samples: a worker whose token stays armed on the
  // same generation with a frozen work counter across one full interval
  // is executing a query that makes no kernel progress — cancel exactly
  // that generation (a finished-and-rearmed query has a new one, so the
  // race is benign) and degrade health until it unwinds.
  struct WorkerSample {
    uint64_t gen = 0;
    uint64_t work = 0;
    uint64_t cancelled_gen = 0;  ///< last generation we escalated
    bool armed = false;
  };
  std::vector<WorkerSample> last(worker_states_.size());
  std::unique_lock lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.watchdog_interval_ms));
    if (watchdog_stop_) break;
    const uint64_t completed =
        counters_.responses_ok.load() + counters_.responses_error.load();
    // Stall = admitted work exists but nothing completed all interval.
    stalled_.store(scheduler_.Pending() > 0 && completed == last_completed);
    last_completed = completed;
    bool any_stuck = false;
    for (std::size_t t = 0; t < worker_states_.size(); ++t) {
      CancelToken& token = worker_states_[t]->token;
      const bool armed = token.armed();
      const uint64_t gen = token.generation();
      const uint64_t work = token.work();
      WorkerSample& s = last[t];
      if (armed && s.armed && gen == s.gen && work == s.work) {
        any_stuck = true;
        if (s.cancelled_gen != gen) {
          // Counted at escalation, once per query; the worker's own
          // unwind path answers the client kDeadlineExceeded.
          token.CancelGeneration(gen);
          s.cancelled_gen = gen;
          counters_.stuck_cancelled.fetch_add(1);
        }
      }
      s.gen = gen;
      s.work = work;
      s.armed = armed;
    }
    stuck_.store(any_stuck);
  }
}

void Server::ScrubberLoop() {
  std::unique_lock lock(scrub_mu_);
  while (!scrub_stop_) {
    scrub_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.scrub_interval_ms));
    if (scrub_stop_) break;
    lock.unlock();
    ScrubPass();
    lock.lock();
  }
}

void Server::ScrubPass() {
  // Deterministic corruption seam for the chaos harness: the scrubber
  // damages its *own* file right before verifying it, so detection and
  // recovery run on a real on-disk fault with no timing dependence.
  const NetFaultInjector::Decision d = NetFaultPoint("scrub.before_pass");
  if (d.kind == NetFaultInjector::ActionKind::kFlipByte) {
    const int fd = ::open(scrub_path_.c_str(), O_RDWR);
    if (fd >= 0) {
      std::byte b{};
      if (::pread(fd, &b, 1, static_cast<off_t>(d.arg)) == 1) {
        b ^= std::byte{0xff};
        [[maybe_unused]] const ssize_t w =
            ::pwrite(fd, &b, 1, static_cast<off_t>(d.arg));
      }
      ::close(fd);
    }
  } else if (d.kind == NetFaultInjector::ActionKind::kTruncate) {
    [[maybe_unused]] const int rc =
        ::truncate(scrub_path_.c_str(), static_cast<off_t>(d.arg));
  }

  counters_.scrub_passes.fetch_add(1);
  // kRead, not kMmap: a concurrently truncated file then fails with a
  // clean Corruption/IOError instead of a SIGBUS on a vanished page.
  BundleOpenOptions verify_opts;
  verify_opts.mode = BundleOpenMode::kRead;
  verify_opts.verify_checksums = true;
  std::unique_ptr<IndexBundle> probe;
  const Status st = OpenIndexBundle(scrub_path_, &probe, verify_opts);
  if (st.ok()) {
    scrub_corrupt_.store(false);
    return;
  }
  counters_.scrub_corruptions.fetch_add(1);
  scrub_corrupt_.store(true);
  std::fprintf(stderr, "# scrub: %s failed verification: %s\n",
               scrub_path_.c_str(), st.ToString().c_str());

  // Quarantine the damaged file (the rename moves the name, not the
  // inode — readers pinned on the old epoch keep their mapping and drain
  // untouched), then recover the newest verifiable epoch via the same
  // `.prev` fallback the startup path uses.
  const std::string quarantine = scrub_path_ + ".quarantined";
  if (std::rename(scrub_path_.c_str(), quarantine.c_str()) != 0) {
    std::fprintf(stderr, "# scrub: quarantine rename failed: %s\n",
                 std::strerror(errno));
  }
  std::unique_ptr<IndexBundle> recovered;
  std::string diagnostic;
  const Status rst = OpenBundleWithFallback(options_.bundle_path, &recovered,
                                            BundleOpenOptions{}, &diagnostic);
  if (!rst.ok()) {
    // No verifiable epoch on disk: stay degraded, keep serving the pinned
    // in-memory state, retry next pass.
    std::fprintf(stderr, "# scrub: recovery failed: %s\n",
                 rst.ToString().c_str());
    return;
  }
  const uint64_t epoch = snapshots_->PublishRecovery(std::move(recovered));
  // The recovered epoch may be an older commit than the corrupted one:
  // nothing cached is trustworthy, flush everything and re-align.
  memo_.Invalidate();
  memo_.SetEpoch(epoch);
  scrub_path_ = options_.bundle_path + ".prev";
  counters_.scrub_recoveries.fetch_add(1);
  scrub_corrupt_.store(false);
  std::fprintf(stderr, "# scrub: recovered epoch %llu from %s (%s)\n",
               static_cast<unsigned long long>(epoch), scrub_path_.c_str(),
               diagnostic.c_str());
}

WireHealth Server::BuildHealth() {
  WireHealth h;
  const std::size_t depth = scheduler_.Pending();
  h.queue_depth = static_cast<uint32_t>(
      std::min<std::size_t>(depth, std::numeric_limits<uint32_t>::max()));
  h.inflight = static_cast<uint32_t>(inflight_.load());
  h.connections = static_cast<uint32_t>(active_conns_.load());
  h.slow_client_dropped =
      static_cast<uint32_t>(counters_.slow_client_dropped.load());
  h.epoch = snapshots_->Epoch();
  h.memo_hits = memo_.hits();
  h.requests = counters_.requests.load();
  if (draining_.load()) {
    h.state = HealthState::kDraining;
  } else if (stalled_.load() || stuck_.load() || scrub_corrupt_.load() ||
             depth > options_.max_queue / 2) {
    h.state = HealthState::kDegraded;
  } else {
    h.state = HealthState::kLive;
  }
  return h;
}

}  // namespace abcs::serve
