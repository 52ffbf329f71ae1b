// End-to-end tests for the `abcs serve` daemon over real loopback
// sockets: correctness vs the direct engines, pipelined response
// ordering, the warm memo, deadlines, overload admission control,
// connection limits, protocol-error handling and graceful drain.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abcore/offsets.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/query_engine.h"
#include "io/index_bundle.h"
#include "serve/client.h"
#include "serve/server.h"
#include "test_util.h"

namespace abcs::serve {
namespace {

using ::abcs::testing::IndexedGraph;
using ::abcs::testing::RandomWeightedGraph;

WireRequest ToWire(const BipartiteGraph& graph, const QueryRequest& r,
                   WireMethod method) {
  WireRequest req;
  req.method = method;
  req.lower_side = !graph.IsUpper(r.q);
  req.q = req.lower_side ? r.q - graph.NumUpper() : r.q;
  req.alpha = r.alpha;
  req.beta = r.beta;
  return req;
}

/// Wire parity for all seven methods: asks the daemon every request under
/// each method and checks the answer against the offline `RunBatch` with
/// the same wire-method → kernel mapping (found, |C|, |R|, the bits of
/// f(R) and the resolved kernel), its |C| against the direct I_δ
/// retrieval and its epoch against `epoch`.
void ExpectEveryMethodMatchesRunBatch(Client& client,
                                      const BipartiteGraph& graph,
                                      const DeltaIndex& delta,
                                      const BicoreIndex& bicore,
                                      const std::vector<QueryRequest>& requests,
                                      uint64_t epoch) {
  for (uint8_t m = 0; m < kNumWireMethods; ++m) {
    const WireMethod method = static_cast<WireMethod>(m);
    const WireKernels kernels = WireMethodKernels(method);
    const QueryEngine engine(graph, kernels.retrieval, &delta, &bicore);
    BatchOptions options;
    options.scs = kernels.scs;
    const BatchResult offline = engine.RunBatch(requests, options);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const QueryRequest& r = requests[i];
      const QueryOutcome& o = offline.outcomes[i];
      WireResponse resp;
      ASSERT_TRUE(client.Call(ToWire(graph, r, method), &resp).ok());
      ASSERT_EQ(resp.status, WireStatus::kOk);
      const std::string at = std::string("method=") + WireMethodName(method) +
                             " q=" + std::to_string(r.q) +
                             " ab=" + std::to_string(r.alpha);
      ASSERT_EQ(resp.num_edges,
                delta.QueryCommunity(r.q, r.alpha, r.beta).edges.size())
          << at;
      EXPECT_EQ(resp.epoch, epoch) << at;
      EXPECT_EQ(resp.found, o.found) << at;
      EXPECT_EQ(resp.num_edges, o.num_edges) << at;
      EXPECT_EQ(resp.result_edges, o.result_edges) << at;
      EXPECT_EQ(std::bit_cast<uint64_t>(resp.significance),
                std::bit_cast<uint64_t>(o.significance))
          << at;
      EXPECT_EQ(resp.kernel,
                o.kernel ? static_cast<uint8_t>(*o.kernel) : kNoKernel)
          << at;
      EXPECT_EQ(o.kernel.has_value(), IsScsMethod(method)) << at;
    }
  }
}

/// One graph + indexes + running server per fixture instantiation.
struct Harness : IndexedGraph {
  std::unique_ptr<Server> server;

  explicit Harness(ServerOptions options = {}, uint32_t nu = 60,
                   uint32_t nl = 60, uint32_t m = 700)
      : IndexedGraph(RandomWeightedGraph(nu, nl, m, 1729)) {
    server =
        std::make_unique<Server>(graph, decomp, delta, bicore, options);
    const Status st = server->Start();
    if (!st.ok()) {
      ADD_FAILURE() << "server start failed: " << st.ToString();
    }
  }

  ~Harness() {
    if (server != nullptr) server->Shutdown();
  }

  Client Connect() {
    Client client;
    const Status st = client.Connect("127.0.0.1", server->port());
    if (!st.ok()) ADD_FAILURE() << "connect failed: " << st.ToString();
    return client;
  }

  WireRequest Request(VertexId unified_q, uint32_t alpha, uint32_t beta,
                      WireMethod method = WireMethod::kDelta) const {
    return ToWire(graph, {unified_q, alpha, beta}, method);
  }
};

TEST(ServeServerTest, AnswersMatchDirectQueriesForEveryMethod) {
  Harness h;
  Client client = h.Connect();
  std::vector<QueryRequest> requests;
  for (VertexId q = 0; q < h.graph.NumVertices(); q += 7) {
    for (uint32_t ab = 1; ab <= 3; ++ab) requests.push_back({q, ab, ab});
  }
  ExpectEveryMethodMatchesRunBatch(client, h.graph, h.delta, h.bicore,
                                   requests, /*epoch=*/1);
}

TEST(ServeServerTest, PipelinedResponsesArriveInRequestOrder) {
  ServerOptions options;
  options.num_threads = 4;  // plenty of reordering opportunity
  options.enable_memo = false;
  Harness h(options);
  Client client = h.Connect();

  std::vector<WireRequest> requests;
  std::vector<uint32_t> expect_edges;
  for (VertexId q = 0; q < h.graph.NumVertices(); ++q) {
    const uint32_t ab = 1 + (q % 3);
    requests.push_back(h.Request(q, ab, ab));
    expect_edges.push_back(static_cast<uint32_t>(
        h.delta.QueryCommunity(q, ab, ab).edges.size()));
  }
  ASSERT_TRUE(client.SendAll(requests).ok());
  std::vector<WireResponse> responses;
  ASSERT_TRUE(client.ReceiveAll(requests.size(), &responses).ok());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(responses[i].status, WireStatus::kOk) << i;
    // Distinct expected sizes across neighbours make a reordering visible.
    ASSERT_EQ(responses[i].num_edges, expect_edges[i]) << "response " << i;
  }
}

TEST(ServeServerTest, MemoHitsAreBitIdenticalAndInvalidate) {
  Harness h;
  Client client = h.Connect();
  // Find a vertex with a nonempty community.
  WireRequest req;
  WireResponse first;
  bool found = false;
  for (VertexId q = 0; q < h.graph.NumVertices() && !found; ++q) {
    req = h.Request(q, 2, 2);
    ASSERT_TRUE(client.Call(req, &first).ok());
    found = first.found;
  }
  ASSERT_TRUE(found) << "no nonempty (2,2)-community in the test graph";
  EXPECT_FALSE(first.memo_hit);

  WireResponse second;
  ASSERT_TRUE(client.Call(req, &second).ok());
  EXPECT_TRUE(second.memo_hit);
  EXPECT_EQ(second.num_edges, first.num_edges);
  EXPECT_EQ(second.found, first.found);

  h.server->memo().Invalidate();
  WireResponse third;
  ASSERT_TRUE(client.Call(req, &third).ok());
  EXPECT_FALSE(third.memo_hit);
  EXPECT_EQ(third.num_edges, first.num_edges);
}

TEST(ServeServerTest, ScsMethodsServeAndMemoExactRepeats) {
  Harness h;
  Client client = h.Connect();
  for (VertexId q = 0; q < h.graph.NumVertices(); ++q) {
    WireRequest req = h.Request(q, 2, 2, WireMethod::kScsAuto);
    WireResponse resp;
    ASSERT_TRUE(client.Call(req, &resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk);
    if (!resp.found) continue;
    EXPECT_GT(resp.result_edges, 0u);
    EXPECT_GT(resp.significance, 0.0);
    EXPECT_LE(resp.result_edges, resp.num_edges);
    WireResponse repeat;
    ASSERT_TRUE(client.Call(req, &repeat).ok());
    EXPECT_TRUE(repeat.memo_hit);
    EXPECT_EQ(repeat.significance, resp.significance);  // exact bits
    EXPECT_EQ(repeat.result_edges, resp.result_edges);
    EXPECT_EQ(repeat.kernel, resp.kernel);
    return;
  }
  GTEST_SKIP() << "no significant (2,2)-community in the test graph";
}

TEST(ServeServerTest, InvalidVertexAndBadPayloadAreRecoverable) {
  Harness h;
  Client client = h.Connect();
  // Out-of-range vertex: clean error, connection stays usable.
  WireRequest req = h.Request(0, 1, 1);
  req.q = h.graph.NumUpper() + 12345;
  WireResponse resp;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kInvalidVertex);
  ASSERT_TRUE(client.Ping().ok());
}

TEST(ServeServerTest, QueueDeadlineExpiresUnderBacklog) {
  ServerOptions options;
  options.num_threads = 1;  // one worker: backlog forms deterministically
  options.enable_memo = false;
  Harness h(options, 120, 120, 2500);
  Client client = h.Connect();

  // Pipeline a pile of online queries (the slow method), then one request
  // whose queue deadline is 1 ms — it cannot reach the single worker in
  // time and must be answered kDeadlineExceeded without being executed.
  std::vector<WireRequest> requests;
  for (int i = 0; i < 2000; ++i) {
    requests.push_back(h.Request(static_cast<VertexId>(
                                     i % h.graph.NumVertices()),
                                 1, 1, WireMethod::kOnline));
  }
  WireRequest hurried = h.Request(0, 1, 1);
  hurried.deadline_ms = 1;
  requests.push_back(hurried);

  ASSERT_TRUE(client.SendAll(requests).ok());
  std::vector<WireResponse> responses;
  ASSERT_TRUE(client.ReceiveAll(requests.size(), &responses).ok());
  for (std::size_t i = 0; i + 1 < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, WireStatus::kOk) << i;
  }
  EXPECT_EQ(responses.back().status, WireStatus::kDeadlineExceeded);
  EXPECT_GE(h.server->Stats().deadline_expired, 1u);
}

TEST(ServeServerTest, TinyQueueAnswersOverloadedNotSilence) {
  ServerOptions options;
  options.num_threads = 1;
  options.max_queue = 1;  // admission control tripwire
  options.enable_memo = false;
  Harness h(options, 120, 120, 2500);
  Client client = h.Connect();

  std::vector<WireRequest> requests;
  for (int i = 0; i < 500; ++i) {
    requests.push_back(h.Request(static_cast<VertexId>(
                                     i % h.graph.NumVertices()),
                                 1, 1, WireMethod::kOnline));
  }
  ASSERT_TRUE(client.SendAll(requests).ok());
  std::vector<WireResponse> responses;
  // Every request gets exactly one response, ok or overloaded — overload
  // sheds load, it never drops a request on the floor.
  ASSERT_TRUE(client.ReceiveAll(requests.size(), &responses).ok());
  uint64_t ok = 0, overloaded = 0;
  for (const WireResponse& resp : responses) {
    ASSERT_TRUE(resp.status == WireStatus::kOk ||
                resp.status == WireStatus::kOverloaded);
    ++(resp.status == WireStatus::kOk ? ok : overloaded);
  }
  EXPECT_GT(ok, 0u);
  // The reader outruns a single worker on slow queries through a
  // one-slot queue; shedding is all but guaranteed.
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(h.server->Stats().overloaded, overloaded);
}

TEST(ServeServerTest, ConnectionLimitRejectsExtraClients) {
  ServerOptions options;
  options.max_connections = 1;
  Harness h(options);
  Client first = h.Connect();
  ASSERT_TRUE(first.Ping().ok());

  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", h.server->port()).ok());
  // The server accepts then immediately closes over-limit connections;
  // the ping fails with EOF (or a send error, depending on timing).
  EXPECT_FALSE(second.Ping().ok());
  EXPECT_GE(h.server->Stats().connections_rejected, 1u);
  // The first connection is unaffected.
  ASSERT_TRUE(first.Ping().ok());
}

TEST(ServeServerTest, PoisonedFramingKillsOnlyThatConnection) {
  Harness h;
  Client healthy = h.Connect();

  // Raw socket: a length prefix beyond kMaxFramePayload.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const uint32_t evil = 0x7fffffffu;
  ASSERT_EQ(::send(fd, &evil, sizeof(evil), 0),
            static_cast<ssize_t>(sizeof(evil)));
  // The server kills the connection: recv sees EOF.
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);

  // Other connections are untouched.
  ASSERT_TRUE(healthy.Ping().ok());
}

TEST(ServeServerTest, GracefulShutdownDrainsAdmittedRequests) {
  ServerOptions options;
  options.num_threads = 2;
  options.enable_memo = false;
  Harness h(options, 120, 120, 2500);
  Client client = h.Connect();

  std::vector<WireRequest> requests;
  for (int i = 0; i < 300; ++i) {
    requests.push_back(h.Request(static_cast<VertexId>(
                                     i % h.graph.NumVertices()),
                                 1, 1, WireMethod::kOnline));
  }
  ASSERT_TRUE(client.SendAll(requests).ok());
  // Wait until every request is admitted (decoded and counted), so the
  // drain guarantee — not the reader — is what is under test.
  while (h.server->Stats().requests < requests.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.server->Shutdown();

  std::vector<WireResponse> responses;
  ASSERT_TRUE(client.ReceiveAll(requests.size(), &responses).ok());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, WireStatus::kOk) << i;
  }
  const ServeStats stats = h.server->Stats();
  EXPECT_EQ(stats.responses_ok, requests.size());
}

TEST(ServeServerTest, HealthProbeReportsLiveStateAndCounters) {
  Harness h;
  Client client = h.Connect();
  // Some traffic first so the counters have moved.
  WireResponse resp;
  ASSERT_TRUE(client.Call(h.Request(0, 1, 1), &resp).ok());

  WireHealth health;
  ASSERT_TRUE(client.Health(&health).ok());
  EXPECT_EQ(health.state, HealthState::kLive);
  EXPECT_EQ(health.connections, 1u);
  EXPECT_GE(health.requests, 1u);
  EXPECT_EQ(health.epoch, 1u);  // static serving publishes epoch 1
  EXPECT_EQ(health.slow_client_dropped, 0u);
  EXPECT_GE(h.server->Stats().health_probes, 1u);

  // Health interleaves with pipelined queries through the sequencer, and
  // the regular query stream keeps decoding around the bigger frame.
  ASSERT_TRUE(client.Call(h.Request(0, 1, 1), &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk);
  ASSERT_TRUE(client.Health(&health).ok());
  EXPECT_EQ(health.state, HealthState::kLive);
}

TEST(ServeServerTest, ConnectRefusedAndConnectTimeoutAreTyped) {
  // Refused: nothing listens on the reserved port 1 on loopback.
  ClientOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.max_attempts = 1;
  Client client(copts);
  const Status st = client.Connect("127.0.0.1", 1);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(client.connected());
}

TEST(ServeServerTest, InFlightDeadlineBudgetAnswersEverythingAndWorkerLives) {
  ServerOptions options;
  options.num_threads = 1;  // one worker: the budget is what frees it
  options.enable_memo = false;
  Harness h(options, 120, 120, 2500);
  Client client = h.Connect();

  // Every request carries a 1 ms end-to-end budget over the slow method.
  // The head of the line blows it inside the kernel, the tail expires in
  // the queue — either way each request is answered, nothing hangs.
  std::vector<WireRequest> requests;
  for (int i = 0; i < 64; ++i) {
    WireRequest req = h.Request(
        static_cast<VertexId>(i % h.graph.NumVertices()), 1, 1,
        WireMethod::kOnline);
    req.deadline_ms = 1;
    requests.push_back(req);
  }
  ASSERT_TRUE(client.SendAll(requests).ok());
  std::vector<WireResponse> responses;
  ASSERT_TRUE(client.ReceiveAll(requests.size(), &responses).ok());
  uint64_t exceeded = 0;
  for (const WireResponse& resp : responses) {
    ASSERT_TRUE(resp.status == WireStatus::kOk ||
                resp.status == WireStatus::kDeadlineExceeded);
    if (resp.status == WireStatus::kDeadlineExceeded) {
      ++exceeded;
      EXPECT_EQ(resp.num_edges, 0u);  // budget-blown queries answer empty
      EXPECT_FALSE(resp.found);
    }
  }
  EXPECT_GE(exceeded, 1u);
  EXPECT_EQ(h.server->Stats().deadline_expired, exceeded);

  // The worker survived the unwinds: an undeadlined query on the same
  // connection answers bit-identically to the direct engine.
  const VertexId probe = 5;
  const Subgraph expect = h.delta.QueryCommunity(probe, 2, 2);
  WireResponse resp;
  ASSERT_TRUE(client.Call(h.Request(probe, 2, 2), &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.num_edges, expect.edges.size());
  EXPECT_EQ(h.server->Stats().stuck_cancelled, 0u);
}

TEST(ServeServerTest, FastDrainAnswersBacklogWithDeadlineExceeded) {
  ServerOptions options;
  options.num_threads = 1;
  options.enable_memo = false;
  options.fast_drain = true;
  // Big enough that 2000 online queries are several hundred ms of compute
  // for the single worker: the backlog cannot clear inside Shutdown's
  // pre-drain steps, so queued tasks remain when the fast-drain flag
  // flips.
  Harness h(options, 200, 200, 8000);
  Client client = h.Connect();
  std::vector<WireRequest> requests;
  for (int i = 0; i < 2000; ++i) {
    requests.push_back(h.Request(static_cast<VertexId>(
                                     i % h.graph.NumVertices()),
                                 1, 1, WireMethod::kOnline));
  }
  ASSERT_TRUE(client.SendAll(requests).ok());
  // Wait for full admission so the drain path — not the reader — decides
  // every fate.
  while (h.server->Stats().requests < requests.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.server->Shutdown();

  // Fast drain keeps the every-admitted-request-gets-a-response
  // guarantee; the backlog is answered kDeadlineExceeded instead of
  // computed, so the drain completes in bounded time.
  std::vector<WireResponse> responses;
  ASSERT_TRUE(client.ReceiveAll(requests.size(), &responses).ok());
  uint64_t ok = 0, exceeded = 0;
  for (const WireResponse& resp : responses) {
    ASSERT_TRUE(resp.status == WireStatus::kOk ||
                resp.status == WireStatus::kDeadlineExceeded);
    ++(resp.status == WireStatus::kOk ? ok : exceeded);
  }
  EXPECT_EQ(ok + exceeded, requests.size());
  // A single worker cannot outrun the reader on 300 slow queries; the
  // bulk of the backlog must have been fast-drained.
  EXPECT_GE(exceeded, 1u);
  EXPECT_GE(h.server->Stats().deadline_expired, exceeded);
}

TEST(ServeServerTest, ScrubberQuarantinesCorruptBundleAndRecoversFromPrev) {
  const BipartiteGraph graph = RandomWeightedGraph(60, 60, 700, 1729);
  const BicoreDecomposition decomp = ComputeBicoreDecomposition(graph);
  const DeltaIndex delta = DeltaIndex::Build(graph, &decomp);
  const BicoreIndex bicore = BicoreIndex::Build(graph, &decomp);

  const std::string path = ::testing::TempDir() + "abcs_scrub_test.bundle";
  ::unlink(path.c_str());
  ::unlink((path + ".prev").c_str());
  ::unlink((path + ".quarantined").c_str());
  SaveBundleOptions save;
  ASSERT_TRUE(SaveIndexBundle(graph, decomp, delta, bicore, path, save).ok());
  save.keep_previous = true;  // second save rotates the first to .prev
  ASSERT_TRUE(SaveIndexBundle(graph, decomp, delta, bicore, path, save).ok());

  ServerOptions options;
  options.enable_memo = false;
  options.bundle_path = path;
  options.scrub_interval_ms = 10;
  Server server(graph, decomp, delta, bicore, options);
  ASSERT_TRUE(server.Start().ok());

  // At least one clean pass first: scrubbing a healthy bundle is silent.
  const auto wait_until = [&](auto pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  };
  ASSERT_TRUE(wait_until([&] { return server.Stats().scrub_passes >= 1; }));
  EXPECT_EQ(server.Stats().scrub_corruptions, 0u);

  // Flip one payload byte in the primary. The next pass must detect the
  // checksum mismatch, quarantine the file and re-open from .prev while
  // the pinned in-memory snapshot keeps serving.
  {
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const off_t target = st.st_size / 2;
    char byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, target), 1);
    byte = static_cast<char>(byte ^ 0xff);
    ASSERT_EQ(::pwrite(fd, &byte, 1, target), 1);
    ::close(fd);
  }
  ASSERT_TRUE(wait_until([&] { return server.Stats().scrub_recoveries >= 1; }));
  const ServeStats stats = server.Stats();
  EXPECT_GE(stats.scrub_corruptions, 1u);
  EXPECT_EQ(server.snapshots().Epoch(), 2u);  // recovery published epoch 2
  // The recovered epoch carries the bundle's decomposition too.
  const BicoreDecomposition* recovered =
      server.snapshots().Current()->decomposition();
  ASSERT_NE(recovered, nullptr);
  EXPECT_NE(recovered, &decomp);
  EXPECT_EQ(*recovered, decomp);
  struct stat st{};
  EXPECT_EQ(::stat((path + ".quarantined").c_str(), &st), 0)
      << "corrupt bundle was not quarantined";

  // Every method on the recovered snapshot answers as the offline batch
  // over the in-memory build does, so the bundle-aliased epoch is read
  // through I_δ, I_v and the SCS weights; the probe then reports live
  // again (the corruption flag cleared on recovery).
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<QueryRequest> requests;
  for (VertexId q = 0; q < graph.NumVertices(); q += 11) {
    for (uint32_t ab = 1; ab <= 3; ++ab) requests.push_back({q, ab, ab});
  }
  ExpectEveryMethodMatchesRunBatch(client, graph, delta, bicore, requests,
                                   /*epoch=*/2);
  WireHealth health;
  ASSERT_TRUE(client.Health(&health).ok());
  EXPECT_EQ(health.state, HealthState::kLive);

  server.Shutdown();
  ::unlink(path.c_str());
  ::unlink((path + ".prev").c_str());
  ::unlink((path + ".quarantined").c_str());
}

TEST(ServeServerTest, ScrubberConfigIsValidatedAtStart) {
  const IndexedGraph s(RandomWeightedGraph(20, 20, 80, 7));
  ServerOptions options;
  options.scrub_interval_ms = 10;  // no bundle_path: nothing to scrub
  Server server(s.graph, s.decomp, s.delta, s.bicore, options);
  const Status st = server.Start();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
}

TEST(ServeServerTest, RequestShutdownFlagIsObservable) {
  Harness h;
  EXPECT_FALSE(h.server->ShutdownRequested());
  h.server->RequestShutdown();  // what the SIGTERM handler does
  EXPECT_TRUE(h.server->ShutdownRequested());
  h.server->WaitForShutdownRequest();  // returns immediately
  h.server->Shutdown();
}

}  // namespace
}  // namespace abcs::serve
