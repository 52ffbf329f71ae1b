// Tests for the zero-allocation query engine: the QueryScratch arena (epoch
// stamping, wraparound, capacity reuse) and the batched multithreaded
// QueryEngine driver over the three retrieval paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "common/rng.h"
#include "core/bicore_index.h"
#include "core/cancel.h"
#include "core/delta_index.h"
#include "core/online_query.h"
#include "core/query_engine.h"
#include "core/query_scratch.h"
#include "core/scs_auto.h"
#include "core/subgraph.h"
#include "test_util.h"

// --------------------------------------------------- counting allocator --
// Global operator new/delete with an allocation counter, so the
// zero-allocation guarantee is asserted directly rather than inferred from
// capacity snapshots alone.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace abcs {
namespace {

using ::abcs::testing::RandomWeightedGraph;

// Mixed query load: random vertices, α/β spanning below, at and above the
// graph's interesting range (empty and non-empty communities both occur).
std::vector<QueryRequest> MixedRequests(const BipartiteGraph& g,
                                        std::size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(QueryRequest{
        static_cast<VertexId>(rng.NextBounded(g.NumVertices())),
        1 + static_cast<uint32_t>(rng.NextBounded(9)),
        1 + static_cast<uint32_t>(rng.NextBounded(9))});
  }
  return requests;
}

// (a) Reusing one scratch across 1000 mixed queries — interleaved over all
// three paths so stale state from one path would poison the next — is
// bit-identical to the fresh-allocation API.
TEST(QueryEngineTest, ScratchReuseBitIdenticalToFreshAllocation) {
  const BipartiteGraph g = RandomWeightedGraph(50, 50, 500, 11);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const BicoreIndex bicore = BicoreIndex::Build(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 1000, 42);

  QueryScratch scratch;
  Subgraph out;
  for (const QueryRequest& r : requests) {
    delta.QueryCommunity(r.q, r.alpha, r.beta, scratch, &out);
    ASSERT_EQ(out.edges, delta.QueryCommunity(r.q, r.alpha, r.beta).edges);
    bicore.QueryCommunity(r.q, r.alpha, r.beta, scratch, &out);
    ASSERT_EQ(out.edges, bicore.QueryCommunity(r.q, r.alpha, r.beta).edges);
    QueryCommunityOnline(g, r.q, r.alpha, r.beta, scratch, &out);
    ASSERT_EQ(out.edges,
              QueryCommunityOnline(g, r.q, r.alpha, r.beta).edges);
  }
}

// (b) Epoch wraparound: stamps survive the uint32 epoch boundary.
TEST(QueryScratchTest, EpochWraparoundResetsStamps) {
  QueryScratch s;
  s.BeginQuery(8);
  s.EnsureInCore(8);
  EXPECT_TRUE(s.TryVisit(2));
  EXPECT_FALSE(s.TryVisit(2));
  s.MarkInCore(5);
  EXPECT_TRUE(s.InCore(5));

  s.SetEpochForTest(std::numeric_limits<uint32_t>::max());
  s.BeginQuery(8);
  s.EnsureInCore(8);
  EXPECT_EQ(s.epoch(), 1u);  // wrapped and restarted
  EXPECT_FALSE(s.Visited(2));
  EXPECT_FALSE(s.InCore(5));
  EXPECT_TRUE(s.TryVisit(2));
}

TEST(QueryScratchTest, QueriesAcrossWraparoundMatchFresh) {
  const BipartiteGraph g = RandomWeightedGraph(40, 40, 350, 13);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 16, 7);

  QueryScratch scratch;
  Subgraph out;
  // Dirty the stamps, then jump the epoch next to the boundary so the
  // request stream straddles the wraparound reset.
  delta.QueryCommunity(requests[0].q, 2, 2, scratch, &out);
  scratch.SetEpochForTest(std::numeric_limits<uint32_t>::max() - 4);
  for (const QueryRequest& r : requests) {
    delta.QueryCommunity(r.q, r.alpha, r.beta, scratch, &out);
    ASSERT_EQ(out.edges, delta.QueryCommunity(r.q, r.alpha, r.beta).edges);
  }
  EXPECT_LT(scratch.epoch(), 32u);  // the wrap happened
}

// (c) Batched multithreaded results equal serial results, per method.
TEST(QueryEngineTest, MultithreadedBatchEqualsSerial) {
  const BipartiteGraph g = RandomWeightedGraph(80, 80, 900, 17);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const BicoreIndex bicore = BicoreIndex::Build(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 300, 99);

  for (const QueryMethod method :
       {QueryMethod::kDelta, QueryMethod::kBicore, QueryMethod::kOnline}) {
    const QueryEngine engine(g, method, &delta, &bicore);
    BatchOptions serial;
    serial.num_threads = 1;
    serial.keep_communities = true;
    BatchOptions parallel = serial;
    parallel.num_threads = 4;
    const BatchResult r1 = engine.RunBatch(requests, serial);
    const BatchResult r4 = engine.RunBatch(requests, parallel);
    ASSERT_EQ(r1.outcomes.size(), r4.outcomes.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(r1.outcomes[i].num_edges, r4.outcomes[i].num_edges)
          << QueryMethodName(method) << " i=" << i;
      ASSERT_EQ(r1.outcomes[i].touched_arcs, r4.outcomes[i].touched_arcs)
          << QueryMethodName(method) << " i=" << i;
      ASSERT_EQ(r1.communities[i].edges, r4.communities[i].edges)
          << QueryMethodName(method) << " i=" << i;
    }
    EXPECT_EQ(r1.stats.touched_arcs, r4.stats.touched_arcs);
    EXPECT_EQ(r1.stats.total_edges, r4.stats.total_edges);
  }
}

// The acceptance criterion: after warm-up, steady-state queries through a
// scratch perform zero heap allocations on every path — asserted with the
// counting global allocator AND a scratch-capacity snapshot.
TEST(QueryEngineTest, ZeroAllocationsSteadyState) {
  const BipartiteGraph g = RandomWeightedGraph(60, 60, 600, 21);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const BicoreIndex bicore = BicoreIndex::Build(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 200, 5);

  for (const QueryMethod method :
       {QueryMethod::kDelta, QueryMethod::kBicore, QueryMethod::kOnline}) {
    const QueryEngine engine(g, method, &delta, &bicore);
    QueryScratch scratch;
    Subgraph out;
    for (const QueryRequest& r : requests) {  // warm-up pass
      engine.Query(r, scratch, &out);
    }
    const std::size_t capacity = scratch.CapacityBytes();
    const std::size_t out_capacity = out.edges.capacity();
    const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed);
    for (const QueryRequest& r : requests) {  // steady state
      engine.Query(r, scratch, &out);
    }
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), allocs)
        << "method=" << QueryMethodName(method);
    EXPECT_EQ(scratch.CapacityBytes(), capacity)
        << "method=" << QueryMethodName(method);
    EXPECT_EQ(out.edges.capacity(), out_capacity)
        << "method=" << QueryMethodName(method);
  }
}

// Satellite: a bicore query rejected because q is outside the core returns
// before materialising any core state (no arcs touched), and still agrees
// with the fresh API on emptiness.
TEST(QueryEngineTest, BicoreRejectionIsEarlyOut) {
  const BipartiteGraph g = testing::PaperFigure2Graph();
  const BicoreIndex bicore = BicoreIndex::Build(g);
  QueryScratch scratch;
  Subgraph out;
  QueryStats stats;
  // Chain vertices are not in any (2,2)-core.
  bicore.QueryCommunity(10, 2, 2, scratch, &out, &stats);
  EXPECT_TRUE(out.edges.empty());
  EXPECT_EQ(stats.touched_arcs, 0u);
  // Accepted queries still count their work.
  bicore.QueryCommunity(2, 2, 2, scratch, &out, &stats);
  EXPECT_FALSE(out.edges.empty());
  EXPECT_GT(stats.touched_arcs, 0u);
}

// Work-stealing dispatch must be invisible in the results: for every
// method and thread count, outcomes (including per-query work counters
// and retained communities) are bit-identical to the serial run — slot i
// is written by whichever worker executes i, exactly once, regardless of
// who stole what.
TEST(QueryEngineTest, WorkStealingBatchBitIdenticalToSerial) {
  const BipartiteGraph g = RandomWeightedGraph(80, 80, 900, 23);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const BicoreIndex bicore = BicoreIndex::Build(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 257, 71);

  for (const QueryMethod method :
       {QueryMethod::kDelta, QueryMethod::kBicore, QueryMethod::kOnline}) {
    const QueryEngine engine(g, method, &delta, &bicore);
    BatchOptions serial;
    serial.num_threads = 1;
    serial.keep_communities = true;
    const BatchResult a = engine.RunBatch(requests, serial);
    for (const unsigned threads : {2u, 3u, 4u, 8u}) {
      BatchOptions ws = serial;
      ws.num_threads = threads;
      const BatchResult b = engine.RunBatch(requests, ws);
      ASSERT_EQ(b.num_threads_used, threads);
      ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_EQ(a.outcomes[i].num_edges, b.outcomes[i].num_edges)
            << QueryMethodName(method) << " t=" << threads << " i=" << i;
        ASSERT_EQ(a.outcomes[i].touched_arcs, b.outcomes[i].touched_arcs)
            << QueryMethodName(method) << " t=" << threads << " i=" << i;
        ASSERT_EQ(a.communities[i].edges, b.communities[i].edges)
            << QueryMethodName(method) << " t=" << threads << " i=" << i;
      }
      EXPECT_EQ(a.stats.touched_arcs, b.stats.touched_arcs);
      EXPECT_EQ(a.stats.total_edges, b.stats.total_edges);
    }
  }
}

TEST(QueryEngineTest, WorkStealingScsBatchBitIdenticalToSerial) {
  const BipartiteGraph g = RandomWeightedGraph(60, 60, 700, 29);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 101, 77);

  const QueryEngine engine(g, QueryMethod::kDelta, &delta);
  BatchOptions serial;
  serial.num_threads = 1;
  serial.scs = ScsAlgo::kAuto;
  serial.keep_communities = true;
  const BatchResult a = engine.RunBatch(requests, serial);
  for (const unsigned threads : {2u, 4u}) {
    BatchOptions ws = serial;
    ws.num_threads = threads;
    const BatchResult b = engine.RunBatch(requests, ws);
    ASSERT_EQ(b.num_threads_used, threads);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(a.outcomes[i].found, b.outcomes[i].found) << i;
      ASSERT_EQ(a.outcomes[i].num_edges, b.outcomes[i].num_edges) << i;
      ASSERT_EQ(a.outcomes[i].result_edges, b.outcomes[i].result_edges) << i;
      ASSERT_EQ(a.outcomes[i].significance, b.outcomes[i].significance) << i;
      ASSERT_EQ(a.outcomes[i].kernel, b.outcomes[i].kernel) << i;
      ASSERT_EQ(a.communities[i].edges, b.communities[i].edges) << i;
    }
    EXPECT_EQ(a.stats.num_found, b.stats.num_found);
    EXPECT_EQ(a.stats.total_result_edges, b.stats.total_result_edges);
  }
}

// ---------------------------------------------------------- cancellation --

// Picks the request whose fresh-API execution touches the most arcs — a
// pre-cancelled token is only guaranteed to fire once the kernel crosses
// CancelToken::kCheckInterval ops, so the test needs a genuinely big query.
QueryRequest HeaviestRequest(const QueryEngine& engine,
                             const std::vector<QueryRequest>& requests,
                             uint64_t min_arcs) {
  QueryScratch scratch;
  Subgraph out;
  QueryRequest best = requests.front();
  uint64_t best_arcs = 0;
  for (const QueryRequest& r : requests) {
    QueryStats stats;
    engine.Query(r, scratch, &out, &stats);
    if (stats.touched_arcs > best_arcs) {
      best_arcs = stats.touched_arcs;
      best = r;
    }
  }
  EXPECT_GE(best_arcs, min_arcs)
      << "test graph too small to cross the cancel check interval";
  return best;
}

// A query cancelled mid-kernel answers empty, and the same scratch then
// serves the rerun bit-identically to a fresh scratch — cancellation
// leaves no residue (the incomplete-undo failure mode).
TEST(QueryEngineTest, CancelledQueryAnswersEmptyAndScratchStaysReusable) {
  const BipartiteGraph g = RandomWeightedGraph(80, 80, 900, 17);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const BicoreIndex bicore = BicoreIndex::Build(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 64, 3);

  for (const QueryMethod method :
       {QueryMethod::kDelta, QueryMethod::kBicore, QueryMethod::kOnline}) {
    const QueryEngine engine(g, method, &delta, &bicore);
    const QueryRequest heavy =
        HeaviestRequest(engine, requests, 2 * CancelToken::kCheckInterval);
    // Expected through the SAME path: edge order is traversal-dependent,
    // so cross-method comparison would only be set-equal, not bit-equal.
    Subgraph expect;
    {
      QueryScratch fresh;
      engine.Query(heavy, fresh, &expect);
    }

    QueryScratch scratch;
    Subgraph out;
    CancelToken token;
    scratch.set_cancel_token(&token);
    const uint64_t gen = token.Arm(/*deadline_ms=*/0);  // cancel-only
    token.CancelGeneration(gen);
    engine.Query(heavy, scratch, &out);
    EXPECT_TRUE(token.Stopped()) << QueryMethodName(method);
    EXPECT_EQ(token.reason(), CancelToken::StopReason::kCancelled);
    EXPECT_TRUE(out.edges.empty())
        << QueryMethodName(method) << ": cancelled query leaked a partial";
    token.Finish();
    scratch.set_cancel_token(nullptr);

    // Same scratch, rerun without cancellation: bit-identical to fresh.
    engine.Query(heavy, scratch, &out);
    EXPECT_EQ(out.edges, expect.edges) << QueryMethodName(method);

    // A stale cancel of a *finished* generation is a benign no-op.
    scratch.set_cancel_token(&token);
    token.Arm(0);
    token.CancelGeneration(gen);  // names the old generation
    engine.Query(heavy, scratch, &out);
    EXPECT_FALSE(token.Stopped());
    EXPECT_EQ(out.edges, expect.edges) << QueryMethodName(method);
    token.Finish();
    scratch.set_cancel_token(nullptr);
  }
}

// SCS cancel-mid-probe: abandoning a peel/expand/binary probe halfway
// must leave the pooled workspace reusable — the rerun through the same
// workspace equals a fresh-workspace run bit-for-bit.
TEST(QueryEngineTest, ScsCancelMidProbeLeavesWorkspaceReusable) {
  const BipartiteGraph g = RandomWeightedGraph(100, 100, 1600, 29);
  const DeltaIndex delta = DeltaIndex::Build(g);

  // A pre-cancelled run is only *observably* abandoned when the kernel's
  // termination path did not fire inside the same cascade that crossed
  // the check interval (cascades run to completion by design). Scan for a
  // query that demonstrably aborted — fresh run finds a community, the
  // cancelled run through the same kernel does not — and prove the torn
  // workspace then serves a bit-identical rerun.
  for (const ScsAlgo algo :
       {ScsAlgo::kPeel, ScsAlgo::kExpand, ScsAlgo::kBinary, ScsAlgo::kAuto}) {
    QueryScratch scratch;
    ScsWorkspace workspace;
    ScsResult out;
    CancelToken token;
    bool exercised = false;
    for (uint32_t ab = 1; ab <= 3 && !exercised; ++ab) {
      for (VertexId q = 0; q < g.NumVertices() && !exercised; ++q) {
        const Subgraph community = delta.QueryCommunity(q, ab, ab);
        if (community.edges.size() < CancelToken::kCheckInterval) continue;
        const ScsResult fresh = ScsQuery(g, community, q, ab, ab, algo);
        if (!fresh.found) continue;

        scratch.set_cancel_token(&token);
        const uint64_t gen = token.Arm(/*deadline_ms=*/0);
        token.CancelGeneration(gen);
        ScsQueryInto(g, community, q, ab, ab, algo, {}, &out, nullptr,
                     &scratch, &workspace);
        token.Finish();
        scratch.set_cancel_token(nullptr);
        if (out.found) continue;  // completed before observing the cancel
        exercised = true;

        // Rerun through the torn workspace: bit-identical to fresh.
        ScsQueryInto(g, community, q, ab, ab, algo, {}, &out, nullptr,
                     &scratch, &workspace);
        EXPECT_EQ(out.found, fresh.found) << static_cast<int>(algo);
        EXPECT_EQ(out.community.edges, fresh.community.edges)
            << static_cast<int>(algo);
        EXPECT_EQ(out.significance, fresh.significance)
            << static_cast<int>(algo);
      }
    }
    EXPECT_TRUE(exercised)
        << "no query abandoned mid-probe for algo " << static_cast<int>(algo);
  }
}

}  // namespace
}  // namespace abcs
