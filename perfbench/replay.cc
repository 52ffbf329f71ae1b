#include "replay.h"

#include <condition_variable>
#include <mutex>

#include "common.h"

namespace perfbench {

using abcs::serve::MemoValue;
using abcs::serve::UpdateOp;
using abcs::serve::WireRequest;
using abcs::serve::WireResponse;
using abcs::serve::WireStatus;

Replay::Replay(const ServedState& state, Tracer* tracer)
    : tracer_(tracer),
      snapshots_(*state.graph, state.delta, state.bicore, state.decomp,
                 abcs::serve::SnapshotManagerOptions{}) {
  memo_.SetEpoch(snapshots_.Epoch());
  // Mirrors the daemon's hook, then counts which of the entries inserted
  // since the last publish still answer at the new epoch.
  snapshots_.set_publish_hook([this](const abcs::serve::Snapshot& snap,
                                     const abcs::UpdateSummary& summary,
                                     const std::vector<uint8_t>& touched) {
    memo_.AdvanceEpoch(snap.epoch(), summary.topology_changed,
                       summary.delta_changed, touched);
    std::vector<Key> survivors;
    for (const Key& k : inserted_) {
      MemoValue v;
      if (memo_.Lookup(k.method, k.alpha, k.beta, k.q, &v, snap.epoch())) {
        survivors.push_back(k);
      }
    }
    kept_ += survivors.size();
    tracked_ += inserted_.size();
    inserted_ = std::move(survivors);
  });
}

Replay::~Replay() { snapshots_.Drain(); }

int64_t Replay::Read(const WireRequest& req, WireResponse* resp) {
  const uint64_t rid = next_request_++;
  // The client's encode is not the daemon's work: frame the bytes first.
  payload_.clear();
  abcs::serve::EncodeRequest(req, &payload_);
  frame_.clear();
  abcs::serve::AppendFrame(payload_, &frame_);

  const int64_t start = NowNs();
  const int32_t root = tracer_->Begin("request", rid, -1);
  int32_t s = tracer_->Begin("serve.protocol.decode", rid, root);
  WireRequest decoded;
  std::span<const std::byte> view;
  const bool framed = reader_.Append(frame_).ok() && reader_.Next(&view);
  const bool parsed =
      framed && abcs::serve::DecodeRequest(view, &decoded).ok();
  tracer_->End(s);
  *resp = WireResponse{};
  if (!parsed) {
    resp->status = WireStatus::kBadRequest;
    tracer_->End(root);
    return NowNs() - start;
  }
  const std::shared_ptr<const abcs::serve::Snapshot> snap =
      snapshots_.Current();
  resp->epoch = snap->epoch();
  const abcs::VertexId q =
      decoded.lower_side ? snap->graph().NumUpper() + decoded.q : decoded.q;

  s = tracer_->Begin("serve.memo.lookup", rid, root);
  MemoValue value;
  const bool hit = memo_.Lookup(decoded.method, decoded.alpha, decoded.beta,
                                q, &value, snap->epoch());
  tracer_->End(s);
  if (hit) {
    resp->found = value.found;
    resp->num_edges = value.num_edges;
    resp->result_edges = value.result_edges;
    resp->kernel = value.kernel;
    resp->significance = value.significance;
    resp->memo_hit = true;
  } else {
    ExecuteQuery(*snap, decoded, &worker_, resp, tracer_, rid, root, &work_);
    s = tracer_->Begin("serve.memo.insert", rid, root);
    value = MemoValue{resp->found, resp->num_edges, resp->result_edges,
                      resp->kernel, resp->significance};
    memo_.Insert(decoded.method, decoded.alpha, decoded.beta, q,
                 snap->graph(), worker_.community, value, snap->epoch());
    tracer_->End(s);
    inserted_.push_back({decoded.method, decoded.alpha, decoded.beta, q});
  }

  s = tracer_->Begin("serve.protocol.encode", rid, root);
  payload_.clear();
  abcs::serve::EncodeResponse(*resp, &payload_);
  frame_.clear();
  abcs::serve::AppendFrame(payload_, &frame_);
  tracer_->End(s);
  tracer_->End(root);
  return NowNs() - start;
}

void Replay::Probe(const WireRequest& req) {
  const uint64_t rid = next_request_++;
  const int32_t root = tracer_->Begin("probe", rid, -1);
  WireResponse resp;
  ExecuteQuery(*snapshots_.Current(), req, &worker_, &resp, tracer_, rid,
               root, &work_);
  tracer_->End(root);
}

bool Replay::Update(const WireRequest& op) {
  if (!writer_started_) {
    if (!snapshots_.Start().ok()) return false;
    writer_started_ = true;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  // guarded by mu
  WireStatus status = WireStatus::kOk;
  const bool commit = op.op == UpdateOp::kCommit;
  const uint64_t rid = next_request_++;
  const int64_t start = NowNs();
  const int32_t s = tracer_->Begin(
      commit ? "serve.snapshot.publish" : "serve.snapshot.apply", rid, -1);
  const uint64_t epoch_before = snapshots_.Epoch();
  snapshots_.Enqueue(op.op, op.u, op.v, op.weight,
                     [&](WireStatus ws, uint64_t) {
                       std::lock_guard<std::mutex> lock(mu);
                       status = ws;
                       done = true;
                       cv.notify_one();
                     });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  tracer_->End(s);
  const double elapsed_ns = static_cast<double>(NowNs() - start);
  if (!commit) {
    apply_us_.push_back(elapsed_ns * 1e-3);
  } else if (snapshots_.Epoch() != epoch_before) {
    publish_ms_.push_back(elapsed_ns * 1e-6);
  }
  return status == WireStatus::kOk;
}

}  // namespace perfbench
