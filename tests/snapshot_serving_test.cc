// Snapshot-versioned live serving: RCU epoch pinning, the single-writer
// update queue, selective memo invalidation across publishes, and the
// mixed read/write stress where every reader response must be consistent
// with exactly the committed prefix its epoch names. The whole suite is
// tsan-able — readers, writer and publisher race by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "abcore/offsets.h"
#include "common/rng.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/online_query.h"
#include "io/index_bundle.h"
#include "serve/client.h"
#include "serve/memo.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace abcs::serve {
namespace {

using ::abcs::testing::IndexedGraph;
using ::abcs::testing::MakeGraph;
using ::abcs::testing::RandomWeightedGraph;

// K_{3,3} (upper 0-2 x lower 0-2) plus `spares` two-vertex components
// u_{3+k} — v_{3+k}. Inserting (u_{3+k}, v_0) merges spare k into the big
// component, growing C_{1,1}(u_0) by exactly 2 edges per merge — the
// arithmetic every stress reader checks against its response epoch.
BipartiteGraph StressGraph(uint32_t spares) {
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t u = 0; u < 3; ++u) {
    for (uint32_t v = 0; v < 3; ++v) triples.emplace_back(u, v, 1.0);
  }
  for (uint32_t k = 0; k < spares; ++k) {
    triples.emplace_back(3 + k, 3 + k, 1.0);
  }
  return MakeGraph(triples);
}

struct ManagerHarness : IndexedGraph {
  std::unique_ptr<SnapshotManager> manager;

  explicit ManagerHarness(const BipartiteGraph& g,
                          SnapshotManagerOptions options = {})
      : IndexedGraph(g) {
    manager = std::make_unique<SnapshotManager>(graph, &delta, &bicore,
                                                &decomp, options);
  }

  // Blocking op: returns the wire status the writer answered.
  WireStatus Apply(UpdateOp op, uint32_t u, uint32_t v, double w,
                   uint64_t* epoch = nullptr) {
    std::promise<std::pair<WireStatus, uint64_t>> done;
    auto fut = done.get_future();
    manager->Enqueue(op, u, v, w, [&done](WireStatus ws, uint64_t e) {
      done.set_value({ws, e});
    });
    const auto [ws, e] = fut.get();
    if (epoch != nullptr) *epoch = e;
    return ws;
  }
};

TEST(SnapshotManagerTest, CommitPublishesAndPinsRetireSafely) {
  ManagerHarness h(StressGraph(4));
  ASSERT_TRUE(h.manager->Start().ok());
  ASSERT_EQ(h.manager->Epoch(), 1u);

  // Pin epoch 1 before any update exists.
  std::shared_ptr<const Snapshot> pinned = h.manager->Current();
  ASSERT_EQ(pinned->epoch(), 1u);
  const uint32_t before = pinned->graph().NumEdges();

  EXPECT_EQ(h.Apply(UpdateOp::kInsertEdge, 3, 0, 1.0), WireStatus::kOk);
  uint64_t epoch = 0;
  EXPECT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0, &epoch), WireStatus::kOk);
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(h.manager->Epoch(), 2u);

  // The published snapshot sees the new edge; the pinned one never does —
  // and stays fully usable after further publishes retire its successors.
  std::shared_ptr<const Snapshot> fresh = h.manager->Current();
  EXPECT_EQ(fresh->graph().NumEdges(), before + 1);
  for (uint32_t k = 1; k < 4; ++k) {
    ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3 + k, 0, 1.0), WireStatus::kOk);
    ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  }
  // ASan proves the pinned arenas were not freed under us.
  EXPECT_EQ(pinned->graph().NumEdges(), before);
  QueryScratch scratch;
  Subgraph community;
  pinned->delta_engine().Query(QueryRequest{0, 1, 1}, scratch, &community);
  EXPECT_EQ(community.edges.size(), 9u);
  fresh = h.manager->Current();
  fresh->delta_engine().Query(QueryRequest{0, 1, 1}, scratch, &community);
  EXPECT_EQ(community.edges.size(), 9u + 2 * 4);
}

TEST(SnapshotManagerTest, ConflictsAndEmptyCommitsAreCheap) {
  ManagerHarness h(StressGraph(2));
  ASSERT_TRUE(h.manager->Start().ok());

  // Duplicate insert and missing-edge remove answer kConflict and do not
  // dirty the batch: the following commit is an empty no-op.
  EXPECT_EQ(h.Apply(UpdateOp::kInsertEdge, 0, 0, 1.0), WireStatus::kConflict);
  EXPECT_EQ(h.Apply(UpdateOp::kRemoveEdge, 3, 0, 0.0), WireStatus::kConflict);
  EXPECT_EQ(h.Apply(UpdateOp::kReweightEdge, 3, 0, 9.0),
            WireStatus::kConflict);
  uint64_t epoch = 0;
  EXPECT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0, &epoch), WireStatus::kOk);
  EXPECT_EQ(epoch, 1u) << "empty commit must not publish";

  const UpdateStats stats = h.manager->Stats();
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.conflicts, 3u);
  EXPECT_EQ(stats.commits, 0u);
}

TEST(SnapshotManagerTest, WeightsOnlyPublishSharesDecomposition) {
  ManagerHarness h(StressGraph(2));
  ASSERT_TRUE(h.manager->Start().ok());

  // First publish is topological by construction (no prior export).
  ASSERT_EQ(h.Apply(UpdateOp::kReweightEdge, 0, 0, 7.5), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap2 = h.manager->Current();
  ASSERT_NE(snap2->decomposition(), nullptr);

  // A weights-only batch must reuse the predecessor's decomposition
  // object — structural sharing, not a rebuild.
  ASSERT_EQ(h.Apply(UpdateOp::kReweightEdge, 0, 1, 3.25), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap3 = h.manager->Current();
  EXPECT_EQ(snap3->decomposition(), snap2->decomposition());

  // A topological batch gets a fresh one, equal to a from-scratch peel.
  ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3, 0, 1.0), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap4 = h.manager->Current();
  EXPECT_NE(snap4->decomposition(), snap3->decomposition());
  EXPECT_EQ(*snap4->decomposition(),
            ComputeBicoreDecomposition(snap4->graph()));
}

// Every epoch of a seeded stream of reweight, insert and remove batches
// serves what a fresh build over its graph serves: its decomposition
// equals a from-scratch peel, and the three engines answer a (q, α, β)
// grid exactly as fresh I_δ, I_v and online retrieval do on that graph.
TEST(SnapshotManagerTest, EveryPublishMatchesAFreshBuild) {
  ManagerHarness h(RandomWeightedGraph(14, 14, 70, 31));
  ASSERT_TRUE(h.manager->Start().ok());
  const auto check = [&](const std::string& at) {
    const std::shared_ptr<const Snapshot> snap = h.manager->Current();
    const BipartiteGraph& g = snap->graph();
    ASSERT_NE(snap->decomposition(), nullptr) << at;
    ASSERT_EQ(*snap->decomposition(), ComputeBicoreDecomposition(g)) << at;
    const DeltaIndex delta = DeltaIndex::Build(g);
    const BicoreIndex bicore = BicoreIndex::Build(g);
    QueryScratch scratch;
    Subgraph got;
    for (VertexId q = 0; q < g.NumVertices(); q += 3) {
      for (uint32_t a = 1; a <= 3; ++a) {
        for (uint32_t b = 1; b <= 3; ++b) {
          const std::string where = at + " q=" + std::to_string(q) +
                                    " a=" + std::to_string(a) +
                                    " b=" + std::to_string(b);
          snap->delta_engine().Query({q, a, b}, scratch, &got);
          EXPECT_EQ(got.edges, delta.QueryCommunity(q, a, b).edges) << where;
          snap->bicore_engine().Query({q, a, b}, scratch, &got);
          EXPECT_EQ(got.edges, bicore.QueryCommunity(q, a, b).edges)
              << where;
          snap->online_engine().Query({q, a, b}, scratch, &got);
          EXPECT_EQ(got.edges, QueryCommunityOnline(g, q, a, b).edges)
              << where;
        }
      }
    }
  };
  check("epoch 1");

  Rng rng(2718);
  uint32_t weights_only = 0;
  uint32_t topology = 0;
  for (int batch = 0; batch < 24; ++batch) {
    const std::shared_ptr<const Snapshot> before = h.manager->Current();
    const BipartiteGraph& g = before->graph();
    const uint64_t kind = rng.NextBounded(3);  // reweight, insert, remove
    const int ops = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < ops; ++i) {
      uint32_t u = 0;
      uint32_t v = 0;
      if (kind == 1) {
        u = static_cast<uint32_t>(rng.NextBounded(g.NumUpper()));
        v = static_cast<uint32_t>(rng.NextBounded(g.NumLower()));
      } else {
        const Edge& e = g.GetEdge(
            static_cast<EdgeId>(rng.NextBounded(g.NumEdges())));
        u = e.u;
        v = e.v - g.NumUpper();
      }
      const UpdateOp op = kind == 0   ? UpdateOp::kReweightEdge
                          : kind == 1 ? UpdateOp::kInsertEdge
                                      : UpdateOp::kRemoveEdge;
      const double w = 1.0 + static_cast<double>(rng.NextBounded(9));
      // Duplicate inserts and repeated removes within a batch conflict.
      const WireStatus ws = h.Apply(op, u, v, w);
      ASSERT_TRUE(ws == WireStatus::kOk || ws == WireStatus::kConflict);
    }
    uint64_t epoch = 0;
    ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0, &epoch), WireStatus::kOk);
    if (epoch == before->epoch()) continue;  // every op conflicted
    const std::shared_ptr<const Snapshot> after = h.manager->Current();
    if (after->decomposition() == before->decomposition()) {
      ++weights_only;
    } else {
      ++topology;
    }
    check("batch " + std::to_string(batch) + " epoch " +
          std::to_string(epoch));
  }
  EXPECT_GT(weights_only, 0u);
  EXPECT_GT(topology, 0u);
}

// The publish hook's contract on a seeded reweight/insert/remove stream:
// `touched` holds the batch's applied insert/remove endpoints and every
// vertex whose offsets moved, `delta_changed` says exactly whether δ
// moved, and a memo warmed on a (q, α, β) grid before each commit and
// advanced by the hook keeps only retrieval entries that still equal a
// fresh answer of the new epoch. A reweight lands in the published graph.
TEST(SnapshotManagerTest, PublishTouchesEveryMovedVertex) {
  ManagerHarness h(RandomWeightedGraph(16, 16, 48, 53));
  const uint32_t n = h.graph.NumVertices();
  const auto for_grid = [&](auto&& visit) {
    for (VertexId q = 0; q < n; ++q) {
      for (uint32_t a = 1; a <= 3; ++a) {
        for (uint32_t b = 1; b <= 3; ++b) visit(q, a, b);
      }
    }
  };
  QueryMemo memo;
  memo.SetEpoch(1);
  // Set by the test thread before each commit is enqueued; the queue's
  // lock orders these writes before the hook's reads.
  std::shared_ptr<const Snapshot> before;
  std::vector<VertexId> endpoints;
  uint64_t kept = 0;
  h.manager->set_publish_hook([&](const Snapshot& snap,
                                  const UpdateSummary& summary,
                                  const std::vector<uint8_t>& touched) {
    const BicoreDecomposition& old_d = *before->decomposition();
    const BicoreDecomposition& new_d = *snap.decomposition();
    EXPECT_EQ(summary.delta_changed, old_d.delta != new_d.delta);
    EXPECT_EQ(summary.topology_changed, !endpoints.empty());
    std::vector<uint8_t> in_summary(n, 0);
    for (const VertexId x : summary.touched) {
      in_summary[x] = 1;
      EXPECT_TRUE(touched[x]) << "bitmap misses summary vertex " << x;
    }
    for (const VertexId x : endpoints) {
      EXPECT_TRUE(in_summary[x]) << "endpoint " << x << " not touched";
    }
    const uint32_t levels = std::max(old_d.delta, new_d.delta);
    for (VertexId v = 0; v < n; ++v) {
      for (uint32_t tau = 1; tau <= levels; ++tau) {
        if (old_d.sa(tau, v) != new_d.sa(tau, v) ||
            old_d.sb(tau, v) != new_d.sb(tau, v)) {
          EXPECT_TRUE(in_summary[v]) << "offsets of " << v << " moved";
          break;
        }
      }
    }
    memo.AdvanceEpoch(snap.epoch(), summary.topology_changed,
                      summary.delta_changed, touched);
    for_grid([&](VertexId q, uint32_t a, uint32_t b) {
      MemoValue value;
      if (!memo.Lookup(WireMethod::kDelta, a, b, q, &value, snap.epoch())) {
        return;
      }
      ++kept;
      const Subgraph fresh = QueryCommunityOnline(snap.graph(), q, a, b);
      EXPECT_EQ(value.found, !fresh.Empty()) << q << " " << a << " " << b;
      EXPECT_EQ(value.num_edges, fresh.edges.size())
          << q << " " << a << " " << b;
    });
  });
  ASSERT_TRUE(h.manager->Start().ok());

  Rng rng(4242);
  uint32_t topology = 0;
  for (int batch = 0; batch < 24; ++batch) {
    before = h.manager->Current();
    const BipartiteGraph& g = before->graph();
    for_grid([&](VertexId q, uint32_t a, uint32_t b) {
      MemoValue value;
      if (memo.Lookup(WireMethod::kDelta, a, b, q, &value, before->epoch())) {
        return;
      }
      const Subgraph c = QueryCommunityOnline(g, q, a, b);
      value.found = !c.Empty();
      value.num_edges = static_cast<uint32_t>(c.edges.size());
      memo.Insert(WireMethod::kDelta, a, b, q, g, c, value, before->epoch());
    });

    endpoints.clear();
    std::vector<std::pair<uint32_t, uint32_t>> reweighted;
    const uint64_t kind = rng.NextBounded(3);  // reweight, insert, remove
    const int ops = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < ops; ++i) {
      uint32_t u = 0;
      uint32_t v = 0;
      if (kind == 1) {
        u = static_cast<uint32_t>(rng.NextBounded(g.NumUpper()));
        v = static_cast<uint32_t>(rng.NextBounded(g.NumLower()));
      } else {
        const Edge& e = g.GetEdge(
            static_cast<EdgeId>(rng.NextBounded(g.NumEdges())));
        u = e.u;
        v = e.v - g.NumUpper();
      }
      const UpdateOp op = kind == 0   ? UpdateOp::kReweightEdge
                          : kind == 1 ? UpdateOp::kInsertEdge
                                      : UpdateOp::kRemoveEdge;
      // 7.5 lies outside the fixture's 1..5 weights.
      const WireStatus ws = h.Apply(op, u, v, 7.5);
      ASSERT_TRUE(ws == WireStatus::kOk || ws == WireStatus::kConflict);
      if (ws != WireStatus::kOk) continue;
      if (kind == 0) {
        reweighted.emplace_back(u, v);
      } else {
        endpoints.push_back(u);
        endpoints.push_back(g.NumUpper() + v);
      }
    }
    uint64_t epoch = 0;
    ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0, &epoch), WireStatus::kOk);
    if (epoch != before->epoch() && kind != 0) ++topology;
    const std::shared_ptr<const Snapshot> after = h.manager->Current();
    for (const auto& [u, v] : reweighted) {
      uint32_t found = 0;
      for (const Arc& a : after->graph().Neighbors(u)) {
        if (a.to != after->graph().LowerId(v)) continue;
        ++found;
        EXPECT_EQ(after->graph().GetWeight(a.eid), 7.5);
      }
      EXPECT_EQ(found, 1u) << "reweighted edge " << u << "-" << v;
    }
  }
  h.manager->Drain();
  EXPECT_GT(topology, 0u);
  EXPECT_GT(kept, 0u);
}

TEST(SnapshotManagerTest, DrainPublishesUncommittedTail) {
  ManagerHarness h(StressGraph(3));
  ASSERT_TRUE(h.manager->Start().ok());
  for (uint32_t k = 0; k < 3; ++k) {
    ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3 + k, 0, 1.0), WireStatus::kOk);
  }
  // No commit — SIGTERM semantics: Drain applies and publishes the tail.
  h.manager->Drain();
  const std::shared_ptr<const Snapshot> snap = h.manager->Current();
  EXPECT_EQ(snap->epoch(), 2u);
  EXPECT_EQ(snap->graph().NumEdges(), h.graph.NumEdges() + 3);
  // Late ops are cleanly rejected, never silently dropped.
  std::atomic<int> status{-1};
  EXPECT_FALSE(h.manager->Enqueue(
      UpdateOp::kInsertEdge, 0, 0, 1.0,
      [&](WireStatus ws, uint64_t) { status = static_cast<int>(ws); }));
  EXPECT_EQ(status.load(), static_cast<int>(WireStatus::kShuttingDown));
}

TEST(SnapshotManagerTest, FullQueueAnswersOverloaded) {
  SnapshotManagerOptions options;
  options.update_queue = 2;
  ManagerHarness h(StressGraph(2), options);
  ASSERT_TRUE(h.manager->Start().ok());

  // Park the writer inside the first op's completion callback so the
  // queue depth is under test control.
  std::promise<void> writer_busy;
  std::promise<void> release_writer;
  std::shared_future<void> release = release_writer.get_future().share();
  ASSERT_TRUE(h.manager->Enqueue(UpdateOp::kReweightEdge, 0, 0, 2.0,
                                 [&, release](WireStatus, uint64_t) {
                                   writer_busy.set_value();
                                   release.wait();
                                 }));
  writer_busy.get_future().wait();

  // Queue capacity 2 while the writer is parked: two admits, then reject.
  ASSERT_TRUE(
      h.manager->Enqueue(UpdateOp::kReweightEdge, 0, 1, 2.0, nullptr));
  ASSERT_TRUE(
      h.manager->Enqueue(UpdateOp::kReweightEdge, 0, 2, 2.0, nullptr));
  std::atomic<int> status{-1};
  EXPECT_FALSE(h.manager->Enqueue(
      UpdateOp::kReweightEdge, 1, 0, 2.0,
      [&](WireStatus ws, uint64_t) { status = static_cast<int>(ws); }));
  EXPECT_EQ(status.load(), static_cast<int>(WireStatus::kOverloaded));

  release_writer.set_value();
  h.manager->Drain();
  EXPECT_EQ(h.manager->Stats().overflows, 1u);
  EXPECT_EQ(h.manager->Stats().applied, 3u);
}

TEST(SnapshotManagerTest, CompactionWritesVerifiableBundle) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "abcs_snapshot_compact_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bundle_path = (dir / "serve.abcs").string();

  SnapshotManagerOptions options;
  options.compact_path = bundle_path;
  options.compact_every = 1;  // compact at every publish
  ManagerHarness h(StressGraph(2), options);
  ASSERT_TRUE(h.manager->Start().ok());
  ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3, 0, 1.0), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  h.manager->Drain();
  EXPECT_GE(h.manager->Stats().compactions, 1u);

  // The bundle on disk opens, verifies and matches the served graph.
  std::unique_ptr<IndexBundle> bundle;
  ASSERT_TRUE(OpenIndexBundle(bundle_path, &bundle).ok());
  const std::shared_ptr<const Snapshot> snap = h.manager->Current();
  ASSERT_TRUE(VerifyBundleMatchesGraph(*bundle, snap->graph()).ok());
  EXPECT_EQ(bundle->graph().NumEdges(), snap->graph().NumEdges());
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- server level --

struct ServeHarness : IndexedGraph {
  std::unique_ptr<Server> server;

  explicit ServeHarness(const BipartiteGraph& g, ServerOptions options = {})
      : IndexedGraph(g) {
    options.enable_updates = true;
    server =
        std::make_unique<Server>(graph, decomp, delta, bicore, options);
    const Status st = server->Start();
    if (!st.ok()) ADD_FAILURE() << "server start failed: " << st.ToString();
  }

  ~ServeHarness() {
    if (server != nullptr) server->Shutdown();
  }

  Client Connect() {
    Client client;
    const Status st = client.Connect("127.0.0.1", server->port());
    if (!st.ok()) ADD_FAILURE() << "connect failed: " << st.ToString();
    return client;
  }
};

WireRequest Query(uint32_t q, uint32_t alpha, uint32_t beta,
                  WireMethod method = WireMethod::kDelta) {
  WireRequest req;
  req.method = method;
  req.q = q;
  req.alpha = alpha;
  req.beta = beta;
  return req;
}

TEST(SnapshotServingTest, UpdatesDisabledServerRejectsButStillServes) {
  const IndexedGraph s(StressGraph(1));
  Server server(s.graph, s.decomp, s.delta, s.bicore,
                ServerOptions{});  // updates off
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  WireResponse resp;
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 3, 0, 1.0, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kUpdatesDisabled);
  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_EQ(resp.num_edges, 9u);
  server.Shutdown();
}

TEST(SnapshotServingTest, CommittedUpdatesChangeAnswersAndEpochs) {
  ServeHarness h(StressGraph(2));
  Client client = h.Connect();

  WireResponse resp;
  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_EQ(resp.num_edges, 9u);

  // Insert + commit through the wire; the publish is visible by the time
  // the commit response lands (the writer publishes before answering).
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 3, 0, 1.0, &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 1u) << "mutation answers the visible epoch";
  uint64_t epoch = 0;
  ASSERT_TRUE(client.Commit(&epoch).ok());
  EXPECT_EQ(epoch, 2u);

  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 2u);
  EXPECT_EQ(resp.num_edges, 11u);  // merged the spare component

  // Bad updates answer per-op statuses without killing the stream.
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 3, 0, 1.0, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kConflict);
  ASSERT_TRUE(
      client.Update(UpdateOp::kRemoveEdge, 99, 0, 0.0, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kInvalidVertex);
  ASSERT_TRUE(client.Ping(&epoch).ok());
  EXPECT_EQ(epoch, 2u);
}

// The satellite regression: a publish that touches one component leaves
// the other component's memo entries warm — observable as memo_hit=true
// across the epoch boundary.
TEST(SnapshotServingTest, PublishKeepsUntouchedComponentMemoWarm) {
  // Components A = u{0,1} x v{0,1}, B = u{2,3} x v{2,3}, spare u4—v4.
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t u : {0u, 1u}) {
    for (uint32_t v : {0u, 1u}) triples.emplace_back(u, v, 1.0);
  }
  for (uint32_t u : {2u, 3u}) {
    for (uint32_t v : {2u, 3u}) triples.emplace_back(u, v, 1.0);
  }
  triples.emplace_back(4, 4, 1.0);
  ServerOptions options;
  options.num_threads = 1;  // deterministic memo fill
  ServeHarness h(MakeGraph(triples), options);
  Client client = h.Connect();

  // Warm both components.
  WireResponse resp;
  for (const uint32_t q : {0u, 2u}) {
    ASSERT_TRUE(client.Call(Query(q, 2, 2), &resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk);
    EXPECT_FALSE(resp.memo_hit);
    EXPECT_EQ(resp.num_edges, 4u);
    ASSERT_TRUE(client.Call(Query(q, 2, 2), &resp).ok());
    EXPECT_TRUE(resp.memo_hit) << "q=" << q;
  }

  // Touch component A only: u4—v0 attaches near A, then commit.
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 4, 0, 1.0, &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  ASSERT_TRUE(client.Commit(nullptr).ok());

  // B stays warm across the publish; A was dropped and recomputes.
  ASSERT_TRUE(client.Call(Query(2, 2, 2), &resp).ok());
  EXPECT_TRUE(resp.memo_hit) << "untouched component must survive publish";
  EXPECT_EQ(resp.epoch, 2u);
  ASSERT_TRUE(client.Call(Query(0, 2, 2), &resp).ok());
  EXPECT_FALSE(resp.memo_hit) << "touched component must be invalidated";
  EXPECT_EQ(resp.num_edges, 4u);  // u4/v4 still fail the (2,2) degree bar
}

// Mixed read/write stress: concurrent readers + one committing writer.
// Every response pins an epoch, and |C_{1,1}(u0)| at epoch e is exactly
// 9 + 2(e-1) — any torn or cross-epoch read breaks the equation.
TEST(SnapshotServingTest, StressReadersObservePrefixConsistentEpochs) {
  constexpr uint32_t kSpares = 24;
  ServerOptions options;
  options.num_threads = 4;
  ServeHarness h(StressGraph(kSpares), options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", h.server->port()).ok()) {
        ADD_FAILURE() << "reader connect failed";
        return;
      }
      WireResponse resp;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.Call(Query(0, 1, 1), &resp).ok()) {
          ADD_FAILURE() << "reader transport error";
          return;
        }
        if (resp.status != WireStatus::kOk) continue;  // shutdown race
        ASSERT_GE(resp.epoch, 1u);
        ASSERT_LE(resp.epoch, 1u + kSpares);
        ASSERT_EQ(resp.num_edges, 9u + 2 * (resp.epoch - 1))
            << "epoch " << resp.epoch << " answered a torn state";
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Client updater = h.Connect();
  for (uint32_t k = 0; k < kSpares; ++k) {
    WireResponse resp;
    ASSERT_TRUE(
        updater.Update(UpdateOp::kInsertEdge, 3 + k, 0, 1.0, &resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk) << "insert " << k;
    uint64_t epoch = 0;
    ASSERT_TRUE(updater.Commit(&epoch).ok());
    ASSERT_EQ(epoch, 2u + k);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // Final state sanity through a fresh connection.
  Client client = h.Connect();
  WireResponse resp;
  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  EXPECT_EQ(resp.epoch, 1u + kSpares);
  EXPECT_EQ(resp.num_edges, 9u + 2 * kSpares);
  const ServeStats stats = h.server->Stats();
  EXPECT_EQ(stats.updates_applied, kSpares);
  EXPECT_EQ(stats.epochs_published, kSpares);
  EXPECT_EQ(stats.update_conflicts, 0u);
}

}  // namespace
}  // namespace abcs::serve
