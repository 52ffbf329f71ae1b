#include "serve/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "graph/graph_builder.h"
#include "io/index_bundle.h"

namespace abcs::serve {

namespace {

/// A non-owning pointer: the empty owner never frees `p`.
template <typename T>
std::shared_ptr<const T> Borrow(const T* p) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), p);
}

/// A pointer to `part` that keeps all of `owner` alive.
template <typename T>
std::shared_ptr<const T> Alias(const std::shared_ptr<const IndexBundle>& owner,
                               const T& part) {
  return std::shared_ptr<const T>(owner, &part);
}

/// True iff `v` holds the same offset slice in both arenas.
bool SameSlice(const OffsetArena& a, const OffsetArena& b, VertexId v) {
  return std::equal(a.values.data() + a.start[v],
                    a.values.data() + a.start[v + 1],
                    b.values.data() + b.start[v],
                    b.values.data() + b.start[v + 1]);
}

}  // namespace

Snapshot::Snapshot(uint64_t epoch, std::shared_ptr<const BipartiteGraph> graph,
                   std::shared_ptr<const BicoreDecomposition> decomp,
                   std::shared_ptr<const DeltaIndex> delta,
                   std::shared_ptr<const BicoreIndex> bicore)
    : epoch_(epoch),
      graph_(std::move(graph)),
      decomp_(std::move(decomp)),
      delta_(std::move(delta)),
      bicore_(std::move(bicore)),
      online_engine_(*graph_, QueryMethod::kOnline),
      bicore_engine_(*graph_, QueryMethod::kBicore, nullptr, bicore_.get()),
      delta_engine_(*graph_, QueryMethod::kDelta, delta_.get()) {}

Snapshot::Snapshot(uint64_t epoch, const BipartiteGraph& g,
                   const DeltaIndex* delta, const BicoreIndex* bicore)
    : Snapshot(epoch, Borrow(&g), nullptr, Borrow(delta), Borrow(bicore)) {}

const QueryEngine& Snapshot::engine(QueryMethod method) const {
  switch (method) {
    case QueryMethod::kOnline:
      return online_engine_;
    case QueryMethod::kBicore:
      return bicore_engine_;
    case QueryMethod::kDelta:
      break;
  }
  return delta_engine_;
}

SnapshotManager::SnapshotManager(const BipartiteGraph& g,
                                 const DeltaIndex* delta,
                                 const BicoreIndex* bicore,
                                 const BicoreDecomposition* decomp,
                                 SnapshotManagerOptions options)
    : options_(std::move(options)),
      current_(std::make_shared<const Snapshot>(1, Borrow(&g), Borrow(decomp),
                                                Borrow(delta),
                                                Borrow(bicore))) {}

SnapshotManager::~SnapshotManager() { Drain(); }

void SnapshotManager::set_publish_hook(PublishHook hook) {
  publish_hook_ = std::move(hook);
}

Status SnapshotManager::Start() {
  if (started_) return Status::InvalidArgument("manager already started");
  // Nothing has been published yet, so Current() is the seed.
  const std::shared_ptr<const Snapshot> seed = Current();
  const BipartiteGraph& g = seed->graph();
  num_upper_ = g.NumUpper();
  adj_.resize(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    adj_[v].assign(g.Neighbors(v).begin(), g.Neighbors(v).end());
  }
  edges_.assign(g.Edges().begin(), g.Edges().end());
  edge_alive_.assign(edges_.size(), 1);
  if (seed->decomposition() != nullptr) {
    last_decomp_ = std::shared_ptr<const BicoreDecomposition>(
        seed, seed->decomposition());
  } else {
    last_decomp_ = std::make_shared<const BicoreDecomposition>(
        ComputeBicoreDecompositionParallel(g));
  }
  started_ = true;
  writer_ = std::thread(&SnapshotManager::WriterLoop, this);
  return Status::OK();
}

void SnapshotManager::Drain() {
  if (!started_ || joined_) return;
  draining_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  joined_ = true;
}

std::shared_ptr<const Snapshot> SnapshotManager::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

bool SnapshotManager::Enqueue(UpdateOp op, uint32_t u_upper, uint32_t v_lower,
                              double weight, DoneFn done) {
  WireStatus reject = WireStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_.load(std::memory_order_acquire) || !started_) {
      reject = WireStatus::kShuttingDown;
    } else if (queue_.size() >= options_.update_queue) {
      counters_.overflows.fetch_add(1, std::memory_order_relaxed);
      reject = WireStatus::kOverloaded;
    } else {
      queue_.push_back(
          PendingOp{op, u_upper, v_lower, weight, std::move(done)});
    }
  }
  if (reject != WireStatus::kOk) {
    if (done) done(reject, Epoch());
    return false;
  }
  queue_cv_.notify_one();
  return true;
}

uint64_t SnapshotManager::PublishRecovery(
    std::shared_ptr<const IndexBundle> bundle) {
  const uint64_t epoch = Epoch() + 1;
  auto snap = std::make_shared<const Snapshot>(
      epoch, Alias(bundle, bundle->graph()),
      Alias(bundle, bundle->decomposition()),
      Alias(bundle, bundle->delta_index()),
      Alias(bundle, bundle->bicore_index()));
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(snap);
  }
  epoch_.store(epoch, std::memory_order_release);
  return epoch;
}

UpdateStats SnapshotManager::Stats() const {
  UpdateStats s;
  s.applied = counters_.applied.load(std::memory_order_relaxed);
  s.conflicts = counters_.conflicts.load(std::memory_order_relaxed);
  s.commits = counters_.commits.load(std::memory_order_relaxed);
  s.compactions = counters_.compactions.load(std::memory_order_relaxed);
  s.overflows = counters_.overflows.load(std::memory_order_relaxed);
  return s;
}

void SnapshotManager::WriterLoop() {
  for (;;) {
    PendingOp op;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) break;  // draining and fully applied
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    Apply(op);
  }
  // SIGTERM guarantee: everything admitted above was applied; publish the
  // uncommitted tail so it is never silently lost, then persist.
  if (ops_since_publish_ > 0) Publish();
  MaybeCompact();
}

void SnapshotManager::Apply(PendingOp& op) {
  WireStatus ws = WireStatus::kOk;
  uint64_t epoch = Epoch();
  const uint32_t num_lower = static_cast<uint32_t>(adj_.size()) - num_upper_;
  const VertexId u = op.u;
  const VertexId v = num_upper_ + op.v;
  if (op.op != UpdateOp::kCommit &&
      (op.u >= num_upper_ || op.v >= num_lower)) {
    ws = WireStatus::kInvalidVertex;
  } else {
    const EdgeId eid =
        op.op == UpdateOp::kCommit ? kInvalidEdge : FindEdge(u, v);
    switch (op.op) {
      case UpdateOp::kInsertEdge: {
        if (eid != kInvalidEdge) {
          ws = WireStatus::kConflict;
          break;
        }
        const EdgeId added = static_cast<EdgeId>(edges_.size());
        edges_.push_back(Edge{u, v, op.weight});
        edge_alive_.push_back(1);
        adj_[u].push_back(Arc{v, added});
        adj_[v].push_back(Arc{u, added});
        endpoints_.insert(endpoints_.end(), {u, v});
        break;
      }
      case UpdateOp::kRemoveEdge: {
        if (eid == kInvalidEdge) {
          ws = WireStatus::kConflict;
          break;
        }
        const auto same_edge = [eid](const Arc& a) { return a.eid == eid; };
        std::erase_if(adj_[u], same_edge);
        std::erase_if(adj_[v], same_edge);
        edge_alive_[eid] = 0;
        endpoints_.insert(endpoints_.end(), {u, v});
        break;
      }
      case UpdateOp::kReweightEdge: {
        if (eid == kInvalidEdge) {
          ws = WireStatus::kConflict;
          break;
        }
        edges_[eid].w = op.weight;
        break;
      }
      case UpdateOp::kCommit: {
        if (ops_since_publish_ > 0) {
          epoch = Publish();
        }
        // An empty commit is a cheap no-op answering the current epoch.
        break;
      }
    }
    if (op.op != UpdateOp::kCommit) {
      if (ws == WireStatus::kOk) {
        ++ops_since_publish_;
        counters_.applied.fetch_add(1, std::memory_order_relaxed);
      } else if (ws == WireStatus::kConflict) {
        counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (op.done) op.done(ws, epoch);
}

EdgeId SnapshotManager::FindEdge(VertexId u, VertexId v) const {
  for (const Arc& a : adj_[u]) {
    if (a.to == v) return a.eid;
  }
  return kInvalidEdge;
}

BipartiteGraph SnapshotManager::ExportGraph() const {
  GraphBuilder builder;
  builder.Reserve(num_upper_, static_cast<uint32_t>(adj_.size()) - num_upper_,
                  static_cast<uint32_t>(edges_.size()));
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (!edge_alive_[e]) continue;
    builder.AddEdge(edges_[e].u, edges_[e].v - num_upper_, edges_[e].w);
  }
  BipartiteGraph out;
  Status st = builder.Build(&out);
  (void)st;
  return out;
}

uint64_t SnapshotManager::Publish() {
  auto graph = std::make_shared<const BipartiteGraph>(ExportGraph());
  const uint32_t n = graph->NumVertices();
  UpdateSummary summary;
  summary.topology_changed = !endpoints_.empty();
  std::vector<uint8_t> touched(n, 0);
  for (const VertexId x : endpoints_) touched[x] = 1;
  endpoints_.clear();
  // Structural sharing: offsets are topology-only, so a weights-only batch
  // republishes the previous decomposition untouched. A topology batch
  // re-peels once and touches every vertex whose offsets moved.
  std::shared_ptr<const BicoreDecomposition> decomp = last_decomp_;
  if (summary.topology_changed) {
    decomp = std::make_shared<const BicoreDecomposition>(
        ComputeBicoreDecomposition(*graph));
    summary.delta_changed = decomp->delta != last_decomp_->delta;
    for (VertexId v = 0; v < n; ++v) {
      if (!SameSlice(decomp->alpha, last_decomp_->alpha, v) ||
          !SameSlice(decomp->beta, last_decomp_->beta, v)) {
        touched[v] = 1;
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (touched[v]) summary.touched.push_back(v);
  }
  last_decomp_ = decomp;
  auto delta = std::make_shared<const DeltaIndex>(
      DeltaIndex::Build(*graph, decomp.get()));
  auto bicore = std::make_shared<const BicoreIndex>(
      BicoreIndex::Build(*graph, decomp.get()));

  const uint64_t epoch = Epoch() + 1;
  auto snap = std::make_shared<const Snapshot>(epoch, std::move(graph),
                                               std::move(decomp),
                                               std::move(delta),
                                               std::move(bicore));

  // One-hop expansion in the NEW graph: a vertex can join a community
  // whose members' own offsets never changed; the member it attaches to
  // is a neighbour of a touched vertex.
  const BipartiteGraph& g = snap->graph();
  for (const VertexId x : summary.touched) {
    for (const Arc& a : g.Neighbors(x)) touched[a.to] = 1;
  }

  // Memo invalidation runs before the swap; epoch-gated lookups make
  // either order safe, this one just minimises the stale-miss window.
  if (publish_hook_) publish_hook_(*snap, summary, touched);
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(snap);
  }
  epoch_.store(epoch, std::memory_order_release);
  counters_.commits.fetch_add(1, std::memory_order_relaxed);
  ops_since_publish_ = 0;
  dirty_since_compact_ = true;
  ++commits_since_compact_;
  if (options_.compact_every != 0 &&
      commits_since_compact_ >= options_.compact_every) {
    MaybeCompact();
  }
  return epoch;
}

void SnapshotManager::MaybeCompact() {
  if (options_.compact_path.empty() || !dirty_since_compact_) return;
  // Dirty implies a publish, and every published epoch carries a
  // decomposition.
  const std::shared_ptr<const Snapshot> snap = Current();
  SaveBundleOptions save_opts;
  save_opts.keep_previous = true;
  const Status st = SaveIndexBundle(snap->graph(), *snap->decomposition(),
                                    *snap->delta_index(),
                                    *snap->bicore_index(),
                                    options_.compact_path, save_opts);
  if (st.ok()) {
    counters_.compactions.fetch_add(1, std::memory_order_relaxed);
    dirty_since_compact_ = false;
    commits_since_compact_ = 0;
  } else {
    // Compaction is best-effort durability, never availability: log and
    // keep serving; the next commit retries.
    std::fprintf(stderr, "# compaction failed: %s\n", st.ToString().c_str());
  }
}

}  // namespace abcs::serve
