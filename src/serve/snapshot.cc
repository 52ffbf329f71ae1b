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
template <typename Owner, typename T>
std::shared_ptr<const T> Alias(const std::shared_ptr<const Owner>& owner,
                               const T* part) {
  return std::shared_ptr<const T>(owner, part);
}

/// The id of edge (u, v) in `g` (unified ids), or kInvalidEdge.
EdgeId FindEdge(const BipartiteGraph& g, VertexId u, VertexId v) {
  for (const Arc& a : g.Neighbors(u)) {
    if (a.to == v) return a.eid;
  }
  return kInvalidEdge;
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
  topology_ = Current();
  if (topology_->decomposition() == nullptr) {
    const std::shared_ptr<const Snapshot> seed = topology_;
    topology_ = std::make_shared<const Snapshot>(
        seed->epoch(), Alias(seed, &seed->graph()),
        std::make_shared<const BicoreDecomposition>(
            ComputeBicoreDecompositionParallel(seed->graph())),
        Alias(seed, seed->delta_index()), Alias(seed, seed->bicore_index()));
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
      epoch, Alias(bundle, &bundle->graph()),
      Alias(bundle, &bundle->decomposition()),
      Alias(bundle, &bundle->delta_index()),
      Alias(bundle, &bundle->bicore_index()));
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
  if (!pending_.empty()) Publish();
  MaybeCompact();
}

void SnapshotManager::Apply(PendingOp& op) {
  WireStatus ws = WireStatus::kOk;
  uint64_t epoch = Epoch();
  const BipartiteGraph& topo = topology_->graph();
  const VertexId u = op.u;
  const VertexId v = topo.LowerId(op.v);
  if (op.op == UpdateOp::kCommit) {
    // An empty commit is a cheap no-op answering the current epoch.
    if (!pending_.empty()) epoch = Publish();
  } else if (op.u >= topo.NumUpper() || op.v >= topo.NumLower()) {
    ws = WireStatus::kInvalidVertex;
  } else {
    const auto it = pending_.find({u, v});
    const bool alive = it != pending_.end()
                           ? it->second.alive
                           : FindEdge(topo, u, v) != kInvalidEdge;
    // An insert needs the pair absent; a remove or a reweight needs it live.
    const bool insert = op.op == UpdateOp::kInsertEdge;
    if (alive == insert) {
      ws = WireStatus::kConflict;
      counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
    } else {
      pending_[{u, v}] = PairState{op.op != UpdateOp::kRemoveEdge, op.weight};
      if (op.op != UpdateOp::kReweightEdge) {
        endpoints_.insert(endpoints_.end(), {u, v});
      }
      counters_.applied.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (op.done) op.done(ws, epoch);
}

uint64_t SnapshotManager::Publish() {
  // Held, not referenced: a topology publish replaces `topology_`.
  const std::shared_ptr<const Snapshot> current = Current();
  const std::shared_ptr<const Snapshot> topology = topology_;
  const BipartiteGraph& prev = current->graph();
  const BipartiteGraph& topo = topology->graph();
  const uint32_t n = topo.NumVertices();
  const uint64_t epoch = Epoch() + 1;
  UpdateSummary summary;
  summary.topology_changed = !endpoints_.empty();
  std::vector<uint8_t> touched(n, 0);
  for (const VertexId x : endpoints_) touched[x] = 1;
  endpoints_.clear();
  std::shared_ptr<const Snapshot> snap;
  if (!summary.topology_changed) {
    // Every pending pair is a reweight of a live edge, whose id the
    // topology epoch still holds. Offsets and both indexes read only
    // topology, so the new epoch shares them with the topology epoch.
    std::vector<Weight> weights(prev.NumEdges());
    for (EdgeId e = 0; e < prev.NumEdges(); ++e) {
      weights[e] = prev.GetWeight(e);
    }
    for (const auto& [uv, state] : pending_) {
      weights[FindEdge(topo, uv.first, uv.second)] = state.w;
    }
    snap = std::make_shared<const Snapshot>(
        epoch,
        std::make_shared<const BipartiteGraph>(prev.WithWeights(weights)),
        Alias(topology, topology->decomposition()),
        Alias(topology, topology->delta_index()),
        Alias(topology, topology->bicore_index()));
  } else {
    // The surviving edges keep their current weights; a pending pair
    // takes its batch state. Same vertex ids, fresh (u, v)-sorted edge ids.
    GraphBuilder builder;
    builder.Reserve(topo.NumUpper(), topo.NumLower(),
                    prev.NumEdges() + pending_.size());
    for (const Edge& e : prev.Edges()) {
      if (!pending_.contains({e.u, e.v})) {
        builder.AddEdge(e.u, e.v - topo.NumUpper(), e.w);
      }
    }
    for (const auto& [uv, state] : pending_) {
      if (state.alive) {
        builder.AddEdge(uv.first, uv.second - topo.NumUpper(), state.w);
      }
    }
    BipartiteGraph built;
    Status st = builder.Build(&built);
    (void)st;
    auto graph = std::make_shared<const BipartiteGraph>(std::move(built));
    // Re-peel once and touch every vertex whose offsets moved.
    auto decomp = std::make_shared<const BicoreDecomposition>(
        ComputeBicoreDecomposition(*graph));
    const BicoreDecomposition& old = *topology->decomposition();
    summary.delta_changed = decomp->delta != old.delta;
    for (VertexId v = 0; v < n; ++v) {
      if (!SameSlice(decomp->alpha, old.alpha, v) ||
          !SameSlice(decomp->beta, old.beta, v)) {
        touched[v] = 1;
      }
    }
    auto delta = std::make_shared<const DeltaIndex>(
        DeltaIndex::Build(*graph, decomp.get()));
    auto bicore = std::make_shared<const BicoreIndex>(
        BicoreIndex::Build(*graph, decomp.get()));
    snap = std::make_shared<const Snapshot>(epoch, std::move(graph),
                                            std::move(decomp),
                                            std::move(delta),
                                            std::move(bicore));
    topology_ = snap;
  }
  pending_.clear();
  for (VertexId v = 0; v < n; ++v) {
    if (touched[v]) summary.touched.push_back(v);
  }

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
