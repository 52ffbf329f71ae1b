// Concurrency stress for the serve daemon — the primary ThreadSanitizer
// target: many client threads hammering one server with mixed methods
// and pipelining while the memo is concurrently invalidated, then a
// shutdown racing live traffic. Assertions are about correctness
// (responses match fresh queries, nothing lost), TSan covers the rest.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "io/fault_inject.h"
#include "serve/client.h"
#include "serve/server.h"
#include "test_util.h"

namespace abcs::serve {
namespace {

using ::abcs::testing::IndexedGraph;
using ::abcs::testing::RandomWeightedGraph;

TEST(ServeStressTest, ConcurrentMixedTrafficIsCorrectAndClean) {
  const IndexedGraph served(RandomWeightedGraph(60, 60, 700, 4242));
  ServerOptions options;
  options.num_threads = 4;
  Server server(served.graph, served.decomp, served.delta, served.bicore,
                options);
  ASSERT_TRUE(server.Start().ok());

  constexpr unsigned kClients = 8;
  constexpr int kCallsPerClient = 150;
  constexpr WireMethod kMethods[] = {
      WireMethod::kOnline, WireMethod::kBicore, WireMethod::kDelta,
      WireMethod::kScsAuto, WireMethod::kScsPeel};

  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      Rng rng(1000 + c);
      for (int i = 0; i < kCallsPerClient; ++i) {
        const VertexId q = static_cast<VertexId>(
            rng.NextBounded(served.graph.NumVertices()));
        const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(4));
        const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(4));
        WireRequest req;
        req.method = kMethods[rng.NextBounded(5)];
        req.lower_side = !served.graph.IsUpper(q);
        req.q = req.lower_side ? q - served.graph.NumUpper() : q;
        req.alpha = alpha;
        req.beta = beta;
        WireResponse resp;
        if (!client.Call(req, &resp).ok() ||
            resp.status != WireStatus::kOk) {
          errors.fetch_add(1);
          continue;
        }
        // |C| is method-independent and memo-independent: check it
        // against a fresh unshared query.
        const Subgraph expect = served.delta.QueryCommunity(q, alpha, beta);
        if (resp.num_edges != expect.edges.size()) mismatches.fetch_add(1);
      }
    });
  }
  // Concurrent epoch invalidations while traffic is in flight.
  std::thread invalidator([&] {
    for (int i = 0; i < 20; ++i) {
      server.memo().Invalidate();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : clients) t.join();
  invalidator.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.responses_ok, kClients * kCallsPerClient);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.Shutdown();
}

// Shutdown racing live pipelined traffic: every admitted request is
// answered, late requests get a clean kShuttingDown, nothing hangs.
TEST(ServeStressTest, ShutdownRacesLiveTraffic) {
  const IndexedGraph served(RandomWeightedGraph(60, 60, 700, 5353));
  ServerOptions options;
  options.num_threads = 2;
  Server server(served.graph, served.decomp, served.delta, served.bicore,
                options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hard_failures{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      Rng rng(7000 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        WireRequest req;
        req.q =
            static_cast<uint32_t>(rng.NextBounded(served.graph.NumUpper()));
        req.alpha = 1 + static_cast<uint32_t>(rng.NextBounded(3));
        req.beta = 1 + static_cast<uint32_t>(rng.NextBounded(3));
        WireResponse resp;
        const Status st = client.Call(req, &resp);
        if (!st.ok()) break;  // connection torn down mid-drain: expected
        if (resp.status != WireStatus::kOk &&
            resp.status != WireStatus::kShuttingDown) {
          hard_failures.fetch_add(1);
        }
        if (resp.status == WireStatus::kShuttingDown) break;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();  // races in-flight Calls
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(hard_failures.load(), 0u);
}

// --------------------------------------------------------------- chaos --
// Socket-fault injection via the net.* seam (see io/fault_inject.h).
// The injector is process-global, so every chaos test disarms on exit.

struct NetFaultGuard {
  ~NetFaultGuard() { NetFaultInjector::Instance().Disarm(); }
};

// A hostile network — truncated server sends (split frames), EINTR
// storms on both recv paths, connection resets mid-stream in both
// directions — must stay invisible to a retrying client: every answer
// still matches a fresh direct query and no call errors out.
TEST(ServeChaosTest, InjectedSocketFaultsAreInvisibleToRetryingClient) {
  NetFaultGuard guard;
  const IndexedGraph served(RandomWeightedGraph(60, 60, 700, 6464));
  ServerOptions options;
  options.num_threads = 2;
  Server server(served.graph, served.decomp, served.delta, served.bicore,
                options);
  ASSERT_TRUE(server.Start().ok());

  NetFaultInjector& inj = NetFaultInjector::Instance();
  ASSERT_TRUE(inj.ArmSpec("net.server_send=short:5@7").ok());
  ASSERT_TRUE(inj.ArmSpec("net.server_send=reset@23").ok());
  ASSERT_TRUE(inj.ArmSpec("net.server_recv=eintr:3@11").ok());
  ASSERT_TRUE(inj.ArmSpec("net.client_recv=eintr:2@9").ok());
  ASSERT_TRUE(inj.ArmSpec("net.client_send=reset@31").ok());

  ClientOptions copts;
  copts.max_attempts = 6;
  copts.backoff_base_ms = 1;
  copts.backoff_max_ms = 5;
  Client client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Rng rng(99);
  for (int i = 0; i < 150; ++i) {
    const VertexId q =
        static_cast<VertexId>(rng.NextBounded(served.graph.NumUpper()));
    const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    WireRequest req;
    req.q = q;
    req.alpha = alpha;
    req.beta = beta;
    WireResponse resp;
    const Status st = client.Call(req, &resp);
    ASSERT_TRUE(st.ok()) << "call " << i << ": " << st.ToString();
    ASSERT_EQ(resp.status, WireStatus::kOk) << i;
    const Subgraph expect = served.delta.QueryCommunity(q, alpha, beta);
    ASSERT_EQ(resp.num_edges, expect.edges.size()) << i;
    ASSERT_EQ(resp.found, !expect.edges.empty()) << i;
  }
  // The injected resets really fired and the client really recovered.
  EXPECT_GT(inj.fired("net.server_send"), 0u);
  EXPECT_GT(client.stats().retries, 0u);
  EXPECT_GT(client.stats().reconnects, 0u);
  inj.Disarm();
  server.Shutdown();
}

// A server whose response writer is delayed past the client's I/O
// deadline yields a typed timeout (no hang, no torn frame) — and once
// the fault clears, the same client object recovers on the next call.
TEST(ServeChaosTest, DelayPastClientDeadlineIsTypedThenRecovers) {
  NetFaultGuard guard;
  const IndexedGraph served(RandomWeightedGraph(40, 40, 400, 7575));
  ServerOptions options;
  // The injected delay sleeps inside the syscall wrapper, pinning one
  // worker mid-send; a second worker keeps the recovery call servable
  // even on a single-core machine.
  options.num_threads = 2;
  Server server(served.graph, served.decomp, served.delta, served.bicore,
                options);
  ASSERT_TRUE(server.Start().ok());

  NetFaultInjector& inj = NetFaultInjector::Instance();
  ASSERT_TRUE(inj.ArmSpec("net.server_send=delay:400").ok());

  ClientOptions copts;
  copts.io_timeout_ms = 100;
  copts.max_attempts = 1;  // surface the timeout instead of retrying
  Client client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  WireRequest req;
  req.q = 0;
  req.alpha = 1;
  req.beta = 1;
  WireResponse resp;
  const Status st = client.Call(req, &resp);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("timed out"), std::string::npos)
      << st.ToString();
  EXPECT_GE(client.stats().timeouts, 1u);

  inj.Disarm();
  // Same client object: reconnects and completes normally.
  const Status recovered = client.Call(req, &resp);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.num_edges,
            served.delta.QueryCommunity(0, 1, 1).edges.size());
  server.Shutdown();
}

// A peer that floods requests and never reads must be shed (bounded
// output buffer + write deadline) without wedging a worker: a paired
// well-behaved client keeps completing calls throughout, and the slow
// connection's teardown is a typed error, not a hang.
TEST(ServeChaosTest, SlowClientIsShedWhileFastClientProgresses) {
  const IndexedGraph served(RandomWeightedGraph(60, 60, 700, 8686));
  ServerOptions options;
  options.num_threads = 2;
  options.write_deadline_ms = 150;
  options.max_output_buffer = 32u << 10;
  options.so_sndbuf = 8u << 10;  // small kernel buffer: back-pressure fast
  options.max_queue = 16384;     // flood must hit the outbuf, not admission
  Server server(served.graph, served.decomp, served.delta, served.bicore,
                options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions slow_opts;
  slow_opts.so_rcvbuf = 4096;  // tiny receive window
  Client slow(slow_opts);
  ASSERT_TRUE(slow.Connect("127.0.0.1", server.port()).ok());
  // ~5000 responses (36 framed bytes each) dwarf the kernel windows plus
  // the 32 KiB buffer cap; the flusher must shed this connection.
  WireRequest req;
  req.q = 0;
  req.alpha = 1;
  req.beta = 1;
  const std::vector<WireRequest> flood(5000, req);
  ASSERT_TRUE(slow.SendAll(flood).ok());
  // Deliberately not reading.

  // A fast client makes steady progress while the slow peer is wedged.
  Client fast;
  ASSERT_TRUE(fast.Connect("127.0.0.1", server.port()).ok());
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    WireRequest r;
    r.q = static_cast<uint32_t>(rng.NextBounded(served.graph.NumUpper()));
    r.alpha = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    r.beta = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    WireResponse resp;
    ASSERT_TRUE(fast.Call(r, &resp).ok()) << i;
    ASSERT_EQ(resp.status, WireStatus::kOk) << i;
  }

  // The shed is asynchronous (write deadline / buffer cap in the
  // flusher); wait bounded, not forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.Stats().slow_client_dropped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.Stats().slow_client_dropped, 1u);

  // The slow client's connection was torn down: draining now fails with
  // a typed error once the buffered prefix runs out — it cannot hang.
  std::vector<WireResponse> responses;
  EXPECT_FALSE(slow.ReceiveAll(flood.size(), &responses).ok());

  // The fast connection is still healthy.
  ASSERT_TRUE(fast.Ping().ok());
  server.Shutdown();
}

}  // namespace
}  // namespace abcs::serve
