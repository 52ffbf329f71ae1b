// Tests for the serve wire layer that needs no sockets: frame
// encode/decode under arbitrary chunking, strict request/response
// parsing, the warm (α,β) memo's sharing semantics, the lock-free
// work-stealing range partition, and the daemon task scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "core/delta_index.h"
#include "core/work_steal.h"
#include "serve/frame.h"
#include "serve/memo.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "test_util.h"

namespace abcs::serve {
namespace {

using ::abcs::testing::RandomWeightedGraph;

std::vector<std::byte> Frame(std::span<const std::byte> payload) {
  std::vector<std::byte> out;
  AppendFrame(payload, &out);
  return out;
}

std::vector<std::byte> Bytes(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

// ------------------------------------------------------------- framing --

TEST(FrameTest, RoundTripSingleFrame) {
  const std::vector<std::byte> payload = Bytes({1, 2, 3, 4, 5});
  const std::vector<std::byte> framed = Frame(payload);
  ASSERT_EQ(framed.size(), payload.size() + 4);

  FrameReader reader;
  ASSERT_TRUE(reader.Append(framed).ok());
  std::span<const std::byte> got;
  ASSERT_TRUE(reader.Next(&got));
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin(),
                         payload.end()));
  EXPECT_FALSE(reader.Next(&got));
  EXPECT_EQ(reader.PendingBytes(), 0u);
}

// A frame split at every possible byte boundary still reassembles.
TEST(FrameTest, ByteByByteDelivery) {
  const std::vector<std::byte> payload = Bytes({9, 8, 7, 6, 5, 4, 3});
  const std::vector<std::byte> framed = Frame(payload);
  FrameReader reader;
  std::span<const std::byte> got;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    ASSERT_TRUE(reader.Append({&framed[i], 1}).ok());
    if (i + 1 < framed.size()) {
      ASSERT_FALSE(reader.Next(&got)) << "frame complete too early at " << i;
    }
  }
  ASSERT_TRUE(reader.Next(&got));
  EXPECT_EQ(got.size(), payload.size());
}

// Many frames in one chunk, then one frame spread across chunks.
TEST(FrameTest, MultipleFramesAndSplits) {
  std::vector<std::byte> stream;
  for (int k = 0; k < 5; ++k) {
    const std::vector<std::byte> payload =
        Bytes({k, k + 1, k + 2, k + 3});
    AppendFrame(payload, &stream);
  }
  FrameReader reader;
  // Feed in uneven chunks of 7.
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    const std::size_t len = std::min<std::size_t>(7, stream.size() - off);
    ASSERT_TRUE(reader.Append({&stream[off], len}).ok());
  }
  std::span<const std::byte> got;
  int frames = 0;
  while (reader.Next(&got)) {
    EXPECT_EQ(got.size(), 4u);
    EXPECT_EQ(static_cast<int>(got[0]), frames);
    ++frames;
  }
  EXPECT_EQ(frames, 5);
  EXPECT_EQ(reader.PendingBytes(), 0u);
}

TEST(FrameTest, EmptyPayloadFrameIsValid) {
  FrameReader reader;
  ASSERT_TRUE(reader.Append(Frame({})).ok());
  std::span<const std::byte> got;
  ASSERT_TRUE(reader.Next(&got));
  EXPECT_EQ(got.size(), 0u);
}

TEST(FrameTest, OversizedLengthPrefixPoisons) {
  // Length prefix just above the cap, delivered up front.
  std::vector<std::byte> evil;
  const uint32_t len = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    evil.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xff));
  }
  FrameReader reader;
  EXPECT_FALSE(reader.Append(evil).ok());
  EXPECT_TRUE(reader.Poisoned());
  // Sticky: later appends keep failing, Next never yields.
  EXPECT_FALSE(reader.Append(Frame(Bytes({1}))).ok());
  std::span<const std::byte> got;
  EXPECT_FALSE(reader.Next(&got));
}

TEST(FrameTest, InteriorOversizedPrefixPoisons) {
  // A valid frame followed by a hostile prefix: the first frame drains,
  // then the stream dies.
  std::vector<std::byte> stream = Frame(Bytes({42}));
  const uint32_t len = 0xffffffffu;
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xff));
  }
  FrameReader reader;
  (void)reader.Append(stream);
  std::span<const std::byte> got;
  int drained = 0;
  while (reader.Next(&got)) ++drained;
  EXPECT_EQ(drained, 1);
  EXPECT_TRUE(reader.Poisoned());
}

TEST(FrameTest, TruncatedFinalFrameLeavesPendingBytes) {
  const std::vector<std::byte> framed = Frame(Bytes({1, 2, 3, 4}));
  FrameReader reader;
  ASSERT_TRUE(
      reader.Append({framed.data(), framed.size() - 2}).ok());
  std::span<const std::byte> got;
  EXPECT_FALSE(reader.Next(&got));
  EXPECT_GT(reader.PendingBytes(), 0u);  // what EOF detection keys on
}

// ------------------------------------------------------------ protocol --

WireRequest SampleRequest() {
  WireRequest req;
  req.type = MessageType::kQuery;
  req.method = WireMethod::kScsExpand;
  req.lower_side = true;
  req.q = 12345;
  req.alpha = 3;
  req.beta = 7;
  req.deadline_ms = 250;
  return req;
}

TEST(ProtocolTest, RequestRoundTrip) {
  const WireRequest req = SampleRequest();
  std::vector<std::byte> payload;
  EncodeRequest(req, &payload);
  ASSERT_EQ(payload.size(), kRequestWireBytes);
  WireRequest got;
  ASSERT_TRUE(DecodeRequest(payload, &got).ok());
  EXPECT_EQ(got.type, req.type);
  EXPECT_EQ(got.method, req.method);
  EXPECT_EQ(got.lower_side, req.lower_side);
  EXPECT_EQ(got.q, req.q);
  EXPECT_EQ(got.alpha, req.alpha);
  EXPECT_EQ(got.beta, req.beta);
  EXPECT_EQ(got.deadline_ms, req.deadline_ms);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  WireResponse resp;
  resp.status = WireStatus::kOk;
  resp.type = MessageType::kQuery;
  resp.kernel = 2;
  resp.found = true;
  resp.memo_hit = true;
  resp.num_edges = 777;
  resp.result_edges = 42;
  resp.significance = 96.0625;
  resp.epoch = 0x0102030405060708ull;
  std::vector<std::byte> payload;
  EncodeResponse(resp, &payload);
  ASSERT_EQ(payload.size(), kResponseWireBytes);
  WireResponse got;
  ASSERT_TRUE(DecodeResponse(payload, &got).ok());
  EXPECT_EQ(got.status, resp.status);
  EXPECT_EQ(got.kernel, resp.kernel);
  EXPECT_TRUE(got.found);
  EXPECT_TRUE(got.memo_hit);
  EXPECT_EQ(got.num_edges, resp.num_edges);
  EXPECT_EQ(got.result_edges, resp.result_edges);
  EXPECT_EQ(got.significance, resp.significance);  // exact IEEE bits
  EXPECT_EQ(got.epoch, resp.epoch);
}

TEST(ProtocolTest, RejectsEveryMalformedRequest) {
  std::vector<std::byte> good;
  EncodeRequest(SampleRequest(), &good);
  WireRequest out;

  // Wrong sizes.
  EXPECT_FALSE(DecodeRequest({good.data(), 0}, &out).ok());
  EXPECT_FALSE(DecodeRequest({good.data(), good.size() - 1}, &out).ok());
  std::vector<std::byte> big = good;
  big.push_back(std::byte{0});
  EXPECT_FALSE(DecodeRequest(big, &out).ok());

  // Single-field corruptions.
  auto corrupt = [&](std::size_t off, uint8_t value) {
    std::vector<std::byte> bad = good;
    bad[off] = static_cast<std::byte>(value);
    return DecodeRequest(bad, &out);
  };
  EXPECT_FALSE(corrupt(0, 0x00).ok());                 // magic lo
  EXPECT_FALSE(corrupt(1, 0x00).ok());                 // magic hi
  EXPECT_FALSE(corrupt(2, kWireVersion + 1).ok());     // version
  EXPECT_FALSE(corrupt(3, 0).ok());                    // type 0
  EXPECT_FALSE(corrupt(3, 99).ok());                   // type garbage
  EXPECT_FALSE(corrupt(4, kNumWireMethods).ok());      // method range
  EXPECT_FALSE(corrupt(5, 2).ok());                    // side byte
  EXPECT_FALSE(corrupt(6, 1).ok());                    // reserved
  EXPECT_FALSE(corrupt(7, 0x80).ok());                 // reserved

  // alpha = 0 and beta = 0 are invalid for queries...
  WireRequest zero = SampleRequest();
  zero.alpha = 0;
  std::vector<std::byte> payload;
  EncodeRequest(zero, &payload);
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());
  zero = SampleRequest();
  zero.beta = 0;
  payload.clear();
  EncodeRequest(zero, &payload);
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());
  // ...but fine for pings, which carry no parameters.
  WireRequest ping;
  ping.type = MessageType::kPing;
  ping.alpha = 0;
  ping.beta = 0;
  payload.clear();
  EncodeRequest(ping, &payload);
  EXPECT_TRUE(DecodeRequest(payload, &out).ok());
  EXPECT_EQ(out.type, MessageType::kPing);
}

TEST(ProtocolTest, RejectsMalformedResponse) {
  WireResponse resp;
  resp.found = true;
  std::vector<std::byte> good;
  EncodeResponse(resp, &good);
  WireResponse out;
  ASSERT_TRUE(DecodeResponse(good, &out).ok());

  EXPECT_FALSE(DecodeResponse({good.data(), good.size() - 1}, &out).ok());
  auto corrupt = [&](std::size_t off, uint8_t value) {
    std::vector<std::byte> bad = good;
    bad[off] = static_cast<std::byte>(value);
    return DecodeResponse(bad, &out);
  };
  EXPECT_FALSE(corrupt(0, 0x42).ok());   // magic
  EXPECT_FALSE(corrupt(2, 9).ok());      // version
  EXPECT_FALSE(corrupt(3, 200).ok());    // status range
  EXPECT_FALSE(corrupt(4, 0).ok());      // type
  EXPECT_FALSE(corrupt(5, 4).ok());      // kernel: ScsAlgo or kNoKernel
  EXPECT_FALSE(corrupt(5, 0xfe).ok());
  EXPECT_TRUE(corrupt(5, 3).ok());
  EXPECT_EQ(out.kernel, 3u);
  EXPECT_FALSE(corrupt(6, 2).ok());  // found flag
  EXPECT_FALSE(corrupt(7, 7).ok());  // memo flag
  // Bytes 24-31 carry the epoch now: any value decodes.
  EXPECT_TRUE(corrupt(24, 1).ok());
  EXPECT_EQ(out.epoch, 1u);
  EXPECT_TRUE(corrupt(31, 0xff).ok());
  EXPECT_EQ(out.epoch, 0xff00000000000000ull);
}

// -------------------------------------------------------------- health --

WireHealth SampleHealth() {
  WireHealth h;
  h.state = HealthState::kDegraded;
  h.queue_depth = 1234;
  h.inflight = 7;
  h.connections = 12;
  h.slow_client_dropped = 3;
  h.epoch = 0x1112131415161718ull;
  h.memo_hits = 99999;
  h.requests = 0xfedcba9876543210ull;
  return h;
}

TEST(ProtocolTest, HealthRequestIsValidWithoutParameters) {
  // Like kPing, a kHealth request carries no query parameters.
  WireRequest req;
  req.type = MessageType::kHealth;
  req.alpha = 0;
  req.beta = 0;
  std::vector<std::byte> payload;
  EncodeRequest(req, &payload);
  WireRequest out;
  ASSERT_TRUE(DecodeRequest(payload, &out).ok());
  EXPECT_EQ(out.type, MessageType::kHealth);
}

TEST(ProtocolTest, HealthResponseRoundTrip) {
  const WireHealth h = SampleHealth();
  std::vector<std::byte> payload;
  EncodeHealthResponse(h, &payload);
  ASSERT_EQ(payload.size(), kHealthWireBytes);
  WireHealth got;
  ASSERT_TRUE(DecodeHealthResponse(payload, &got).ok());
  EXPECT_EQ(got.state, h.state);
  EXPECT_EQ(got.queue_depth, h.queue_depth);
  EXPECT_EQ(got.inflight, h.inflight);
  EXPECT_EQ(got.connections, h.connections);
  EXPECT_EQ(got.slow_client_dropped, h.slow_client_dropped);
  EXPECT_EQ(got.epoch, h.epoch);
  EXPECT_EQ(got.memo_hits, h.memo_hits);
  EXPECT_EQ(got.requests, h.requests);

  // Every state name resolves (the CLI prints them).
  EXPECT_STREQ(HealthStateName(HealthState::kLive), "live");
  EXPECT_STREQ(HealthStateName(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(HealthStateName(HealthState::kDraining), "draining");
}

TEST(ProtocolTest, RejectsMalformedHealthResponse) {
  std::vector<std::byte> good;
  EncodeHealthResponse(SampleHealth(), &good);
  WireHealth out;
  ASSERT_TRUE(DecodeHealthResponse(good, &out).ok());

  // Wrong sizes — notably the 32-byte regular-response size, so a query
  // response can never be mistaken for a health frame.
  EXPECT_FALSE(DecodeHealthResponse({good.data(), 0}, &out).ok());
  EXPECT_FALSE(
      DecodeHealthResponse({good.data(), kResponseWireBytes}, &out).ok());
  EXPECT_FALSE(
      DecodeHealthResponse({good.data(), good.size() - 1}, &out).ok());
  std::vector<std::byte> big = good;
  big.push_back(std::byte{0});
  EXPECT_FALSE(DecodeHealthResponse(big, &out).ok());

  auto corrupt = [&](std::size_t off, uint8_t value) {
    std::vector<std::byte> bad = good;
    bad[off] = static_cast<std::byte>(value);
    return DecodeHealthResponse(bad, &out);
  };
  EXPECT_FALSE(corrupt(0, 0x42).ok());              // magic
  EXPECT_FALSE(corrupt(2, kWireVersion + 1).ok());  // version
  EXPECT_FALSE(corrupt(3, 1).ok());                 // status must be kOk
  EXPECT_FALSE(corrupt(4, 1).ok());                 // type must be kHealth
  EXPECT_FALSE(corrupt(5, 3).ok());                 // state range
  EXPECT_FALSE(corrupt(6, 1).ok());                 // reserved
  EXPECT_FALSE(corrupt(7, 0x80).ok());              // reserved
  // Counter bytes are unconstrained: any value decodes.
  EXPECT_TRUE(corrupt(8, 0xff).ok());
  EXPECT_TRUE(corrupt(47, 0xff).ok());
}

// A query/ping response decoder must not accept health frames and vice
// versa — the type byte and the size both disagree.
TEST(ProtocolTest, HealthAndResponseFramesDoNotCrossDecode) {
  std::vector<std::byte> health;
  EncodeHealthResponse(SampleHealth(), &health);
  WireResponse resp_out;
  EXPECT_FALSE(DecodeResponse(health, &resp_out).ok());

  WireResponse resp;
  std::vector<std::byte> regular;
  EncodeResponse(resp, &regular);
  WireHealth health_out;
  EXPECT_FALSE(DecodeHealthResponse(regular, &health_out).ok());
}

// ------------------------------------------------------------- updates --

WireRequest SampleUpdate(UpdateOp op) {
  WireRequest req;
  req.type = MessageType::kUpdate;
  req.op = op;
  if (op != UpdateOp::kCommit) {
    req.u = 17;
    req.v = 23;
  }
  if (op == UpdateOp::kInsertEdge || op == UpdateOp::kReweightEdge) {
    req.weight = 2.5;
  }
  return req;
}

TEST(ProtocolTest, UpdateRequestRoundTripEveryOp) {
  for (uint8_t o = 0; o < kNumUpdateOps; ++o) {
    const UpdateOp op = static_cast<UpdateOp>(o);
    const WireRequest req = SampleUpdate(op);
    std::vector<std::byte> payload;
    EncodeRequest(req, &payload);
    ASSERT_EQ(payload.size(), kRequestWireBytes);
    WireRequest got;
    ASSERT_TRUE(DecodeRequest(payload, &got).ok()) << UpdateOpName(op);
    EXPECT_EQ(got.type, MessageType::kUpdate);
    EXPECT_EQ(got.op, op);
    EXPECT_EQ(got.u, req.u);
    EXPECT_EQ(got.v, req.v);
    EXPECT_EQ(got.weight, req.weight);  // exact IEEE bits
  }
}

TEST(ProtocolTest, RejectsEveryMalformedUpdate) {
  std::vector<std::byte> good;
  EncodeRequest(SampleUpdate(UpdateOp::kInsertEdge), &good);
  WireRequest out;
  ASSERT_TRUE(DecodeRequest(good, &out).ok());
  auto corrupt = [&](std::size_t off, uint8_t value) {
    std::vector<std::byte> bad = good;
    bad[off] = static_cast<std::byte>(value);
    return DecodeRequest(bad, &out);
  };
  EXPECT_FALSE(corrupt(4, kNumUpdateOps).ok());  // op range
  EXPECT_FALSE(corrupt(4, 0xff).ok());
  EXPECT_FALSE(corrupt(5, 1).ok());  // reserved byte
  EXPECT_FALSE(corrupt(6, 1).ok());  // reserved u16
  EXPECT_FALSE(corrupt(7, 0x80).ok());

  // Non-finite weights never reach the writer.
  WireRequest nan = SampleUpdate(UpdateOp::kInsertEdge);
  nan.weight = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::byte> payload;
  EncodeRequest(nan, &payload);
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());
  nan.weight = std::numeric_limits<double>::infinity();
  payload.clear();
  EncodeRequest(nan, &payload);
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());

  // Remove/commit must encode weight bits as zero.
  WireRequest bad_remove = SampleUpdate(UpdateOp::kRemoveEdge);
  bad_remove.weight = 1.0;
  payload.clear();
  EncodeRequest(bad_remove, &payload);
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());

  // Commit carries no vertices.
  WireRequest bad_commit = SampleUpdate(UpdateOp::kCommit);
  bad_commit.u = 1;
  payload.clear();
  EncodeRequest(bad_commit, &payload);
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());

  // A well-formed commit decodes.
  payload.clear();
  EncodeRequest(SampleUpdate(UpdateOp::kCommit), &payload);
  EXPECT_TRUE(DecodeRequest(payload, &out).ok());
  EXPECT_EQ(out.op, UpdateOp::kCommit);
}

TEST(ProtocolTest, MethodNamesRoundTrip) {
  for (uint8_t m = 0; m < kNumWireMethods; ++m) {
    const WireMethod method = static_cast<WireMethod>(m);
    WireMethod parsed;
    ASSERT_TRUE(ParseWireMethod(WireMethodName(method), &parsed));
    EXPECT_EQ(parsed, method);
  }
  WireMethod parsed;
  EXPECT_FALSE(ParseWireMethod("scs", &parsed));
  EXPECT_FALSE(ParseWireMethod("", &parsed));
}

// ---------------------------------------------------------------- memo --

TEST(MemoTest, CrossVertexSharingMatchesFreshQueries) {
  const BipartiteGraph g = RandomWeightedGraph(40, 40, 400, 31);
  const DeltaIndex delta = DeltaIndex::Build(g);
  QueryMemo memo;

  // Seed the memo with one representative query per (α,β).
  for (uint32_t ab = 1; ab <= 3; ++ab) {
    for (VertexId q = 0; q < g.NumVertices(); ++q) {
      MemoValue value;
      if (memo.Lookup(WireMethod::kDelta, ab, ab, q, &value)) {
        // A hit must agree exactly with a fresh query.
        const Subgraph fresh = delta.QueryCommunity(q, ab, ab);
        ASSERT_EQ(value.num_edges, fresh.edges.size()) << "q=" << q;
        ASSERT_EQ(value.found, !fresh.edges.empty());
        continue;
      }
      const Subgraph c = delta.QueryCommunity(q, ab, ab);
      MemoValue fresh_value;
      fresh_value.found = !c.edges.empty();
      fresh_value.num_edges = static_cast<uint32_t>(c.edges.size());
      memo.Insert(WireMethod::kDelta, ab, ab, q, g, c, fresh_value);
    }
  }
  // With whole-component registration, a second sweep over every vertex
  // must be all hits.
  uint64_t misses_before = memo.misses();
  for (uint32_t ab = 1; ab <= 3; ++ab) {
    for (VertexId q = 0; q < g.NumVertices(); ++q) {
      MemoValue value;
      if (!memo.Lookup(WireMethod::kDelta, ab, ab, q, &value)) {
        // Only vertices with empty communities may miss sharing — they
        // were registered individually, so even those hit.
        ADD_FAILURE() << "unexpected miss at q=" << q << " ab=" << ab;
      }
    }
  }
  EXPECT_EQ(memo.misses(), misses_before);
}

TEST(MemoTest, ScsEntriesAreExactKeyOnly) {
  const BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 33);
  const DeltaIndex delta = DeltaIndex::Build(g);
  QueryMemo memo;
  // Find a nonempty community to exercise the sharing path.
  for (VertexId q = 0; q < g.NumVertices(); ++q) {
    const Subgraph c = delta.QueryCommunity(q, 2, 2);
    if (c.edges.empty()) continue;
    MemoValue value;
    value.found = true;
    value.num_edges = static_cast<uint32_t>(c.edges.size());
    memo.Insert(WireMethod::kScsAuto, 2, 2, q, g, c, value);
    MemoValue out;
    // Exact repeat hits.
    EXPECT_TRUE(memo.Lookup(WireMethod::kScsAuto, 2, 2, q, &out));
    // Another vertex of the same community must NOT hit: R depends on q.
    for (const EdgeId e : c.edges) {
      const Edge& ed = g.GetEdge(e);
      const VertexId other = ed.u != q ? ed.u : ed.v;
      if (other == q) continue;
      EXPECT_FALSE(memo.Lookup(WireMethod::kScsAuto, 2, 2, other, &out));
      break;
    }
    // And the retrieval method namespace is untouched.
    EXPECT_FALSE(memo.Lookup(WireMethod::kDelta, 2, 2, q, &out));
    return;
  }
  GTEST_SKIP() << "no nonempty (2,2)-community in the sample graph";
}

TEST(MemoTest, InvalidateDropsEverythingAndBumpsEpoch) {
  const BipartiteGraph g = RandomWeightedGraph(10, 10, 60, 35);
  QueryMemo memo;
  Subgraph empty;
  MemoValue value;
  value.found = false;
  memo.Insert(WireMethod::kDelta, 1, 1, 3, g, empty, value);
  MemoValue out;
  ASSERT_TRUE(memo.Lookup(WireMethod::kDelta, 1, 1, 3, &out));
  const uint64_t epoch = memo.epoch();
  memo.Invalidate();
  EXPECT_EQ(memo.epoch(), epoch + 1);
  EXPECT_FALSE(memo.Lookup(WireMethod::kDelta, 1, 1, 3, &out));
}

TEST(MemoTest, FlushOnPressureKeepsWorking) {
  const BipartiteGraph g = RandomWeightedGraph(10, 10, 60, 37);
  QueryMemo memo(/*max_entries=*/4);
  Subgraph empty;
  MemoValue value;
  for (uint32_t i = 0; i < 64; ++i) {
    memo.Insert(WireMethod::kDelta, i + 1, 1, 0, g, empty, value);
  }
  // The last insert always lands (flush happens before inserting).
  MemoValue out;
  EXPECT_TRUE(memo.Lookup(WireMethod::kDelta, 64, 1, 0, &out));
}

// Epoch alignment: a lookup or insert carrying a stale pinned epoch is
// ignored — the retired-worker poisoning guard.
TEST(MemoTest, EpochGatingBlocksStaleReadersAndWriters) {
  const BipartiteGraph g = RandomWeightedGraph(10, 10, 60, 39);
  QueryMemo memo;
  memo.SetEpoch(5);
  Subgraph empty;
  MemoValue value;
  value.found = false;
  MemoValue out;

  memo.Insert(WireMethod::kDelta, 1, 1, 3, g, empty, value, /*epoch=*/4);
  EXPECT_FALSE(memo.Lookup(WireMethod::kDelta, 1, 1, 3, &out, 5))
      << "stale-epoch insert must be dropped";

  memo.Insert(WireMethod::kDelta, 1, 1, 3, g, empty, value, /*epoch=*/5);
  EXPECT_TRUE(memo.Lookup(WireMethod::kDelta, 1, 1, 3, &out, 5));
  EXPECT_FALSE(memo.Lookup(WireMethod::kDelta, 1, 1, 3, &out, 4))
      << "stale-epoch lookup must miss";
}

// Selective invalidation: a topology publish drops exactly the entries
// with a registered member in the touched set (plus every SCS entry);
// untouched components stay warm across the epoch.
TEST(MemoTest, AdvanceEpochKeepsUntouchedComponentsWarm) {
  // Two disjoint communities: upper {0,1} x lower {0,1} and
  // upper {2,3} x lower {2,3} (unified lower ids offset by NumUpper = 4).
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t u : {0u, 1u}) {
    for (uint32_t v : {0u, 1u}) triples.emplace_back(u, v, 1.0);
  }
  for (uint32_t u : {2u, 3u}) {
    for (uint32_t v : {2u, 3u}) triples.emplace_back(u, v, 1.0);
  }
  const BipartiteGraph g = ::abcs::testing::MakeGraph(triples);
  const DeltaIndex delta = DeltaIndex::Build(g);
  QueryMemo memo;
  memo.SetEpoch(1);

  auto insert_community = [&](VertexId q, uint64_t epoch) {
    const Subgraph c = delta.QueryCommunity(q, 2, 2);
    ASSERT_FALSE(c.edges.empty());
    MemoValue value;
    value.found = true;
    value.num_edges = static_cast<uint32_t>(c.edges.size());
    memo.Insert(WireMethod::kDelta, 2, 2, q, g, c, value, epoch);
  };
  insert_community(0, 1);  // first component
  insert_community(2, 1);  // second component
  MemoValue scs;
  scs.found = true;
  memo.Insert(WireMethod::kScsAuto, 2, 2, 0, g,
              delta.QueryCommunity(0, 2, 2), scs, 1);

  // Publish epoch 2 touching only the first component (upper 0).
  std::vector<uint8_t> touched(g.NumVertices(), 0);
  touched[0] = 1;
  memo.AdvanceEpoch(2, /*topology_changed=*/true, /*flush_all=*/false,
                    touched);

  MemoValue out;
  EXPECT_FALSE(memo.Lookup(WireMethod::kDelta, 2, 2, 0, &out, 2))
      << "touched component must be dropped";
  EXPECT_FALSE(memo.Lookup(WireMethod::kScsAuto, 2, 2, 0, &out, 2))
      << "SCS entries die on every publish";
  EXPECT_TRUE(memo.Lookup(WireMethod::kDelta, 2, 2, 2, &out, 2))
      << "untouched component must stay warm";
  EXPECT_TRUE(memo.Lookup(WireMethod::kDelta, 2, 2, 3, &out, 2))
      << "sharing of the warm entry survives too";

  // A weights-only publish keeps even previously-touched retrieval
  // entries that were re-inserted, and drops nothing shared.
  insert_community(0, 2);
  memo.AdvanceEpoch(3, /*topology_changed=*/false, /*flush_all=*/false,
                    touched);
  EXPECT_TRUE(memo.Lookup(WireMethod::kDelta, 2, 2, 0, &out, 3));
  EXPECT_TRUE(memo.Lookup(WireMethod::kDelta, 2, 2, 2, &out, 3));

  // flush_all (δ changed) drops everything.
  memo.AdvanceEpoch(4, true, /*flush_all=*/true, touched);
  EXPECT_FALSE(memo.Lookup(WireMethod::kDelta, 2, 2, 2, &out, 4));
}

// ---------------------------------------------------- work stealing ----

// Exactly-once delivery under concurrency: every index in [0, n) is seen
// once across all workers, for several n / worker-count shapes.
TEST(WorkStealingRangesTest, ExactlyOnceUnderConcurrency) {
  for (const unsigned workers : {1u, 2u, 3u, 8u}) {
    for (const std::size_t n : {0ul, 1ul, 7ul, 64ul, 10000ul}) {
      WorkStealingRanges ranges(n, workers);
      std::vector<std::atomic<uint32_t>> seen(n);
      for (auto& s : seen) s.store(0);
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < workers; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t i = ranges.Next(t);
               i != WorkStealingRanges::kDone; i = ranges.Next(t)) {
            seen[i].fetch_add(1);
          }
        });
      }
      for (std::thread& th : pool) th.join();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(seen[i].load(), 1u)
            << "index " << i << " n=" << n << " workers=" << workers;
      }
    }
  }
}

// Forced stealing: worker 0 never calls Next, so its whole chunk must be
// stolen by the others.
TEST(WorkStealingRangesTest, IdleWorkerChunkGetsStolen) {
  const std::size_t n = 1000;
  const unsigned workers = 4;
  WorkStealingRanges ranges(n, workers);
  std::vector<std::atomic<uint32_t>> seen(n);
  for (auto& s : seen) s.store(0);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < workers; ++t) {  // worker 0 sits out
    pool.emplace_back([&, t] {
      for (std::size_t i = ranges.Next(t); i != WorkStealingRanges::kDone;
           i = ranges.Next(t)) {
        seen[i].fetch_add(1);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "index " << i;
  }
}

// ----------------------------------------------------------- scheduler --

TEST(TaskSchedulerTest, DrainsEverythingAfterClose) {
  TaskScheduler<int> sched(3, 1000);
  std::atomic<int> sum{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < 3; ++t) {
    pool.emplace_back([&, t] {
      int task;
      while (sched.Pop(t, &task)) sum.fetch_add(task);
    });
  }
  int expect = 0;
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(sched.Push(i, static_cast<unsigned>(i)));
    expect += i;
  }
  sched.Close();
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(sum.load(), expect);  // drain guarantee: nothing dropped
  EXPECT_FALSE(sched.Push(1, 0));  // closed
}

TEST(TaskSchedulerTest, BoundedQueueRejectsWhenFull) {
  TaskScheduler<int> sched(2, 3);
  EXPECT_TRUE(sched.Push(1, 0));
  EXPECT_TRUE(sched.Push(2, 0));
  EXPECT_TRUE(sched.Push(3, 1));
  EXPECT_FALSE(sched.Push(4, 1));  // admission control: kOverloaded
  EXPECT_EQ(sched.Pending(), 3u);
}

// An idle worker steals from another worker's queue.
TEST(TaskSchedulerTest, IdleWorkerStealsFromOtherQueue) {
  TaskScheduler<int> sched(2, 100);
  sched.Push(7, 0);  // worker 0's queue
  sched.Close();
  int task;
  EXPECT_TRUE(sched.Pop(1, &task));  // stolen by worker 1
  EXPECT_EQ(task, 7);
}

}  // namespace
}  // namespace abcs::serve
