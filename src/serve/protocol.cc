#include "serve/protocol.h"

#include <cmath>
#include <cstring>

#include "core/query_engine.h"

namespace abcs::serve {

namespace {

void PutU16(uint16_t v, std::vector<std::byte>* out) {
  out->push_back(static_cast<std::byte>(v & 0xff));
  out->push_back(static_cast<std::byte>((v >> 8) & 0xff));
}

void PutU32(uint32_t v, std::vector<std::byte>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::vector<std::byte>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

uint16_t GetU16(const std::byte* p) {
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                               (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t GetU32(const std::byte* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const std::byte* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kBadRequest:
      return "bad-request";
    case WireStatus::kInvalidVertex:
      return "invalid-vertex";
    case WireStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case WireStatus::kOverloaded:
      return "overloaded";
    case WireStatus::kShuttingDown:
      return "shutting-down";
    case WireStatus::kUpdatesDisabled:
      return "updates-disabled";
    case WireStatus::kConflict:
      return "conflict";
  }
  return "unknown";
}

const char* UpdateOpName(UpdateOp op) {
  switch (op) {
    case UpdateOp::kInsertEdge:
      return "insert";
    case UpdateOp::kRemoveEdge:
      return "remove";
    case UpdateOp::kReweightEdge:
      return "reweight";
    case UpdateOp::kCommit:
      return "commit";
  }
  return nullptr;
}

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kLive:
      return "live";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kDraining:
      return "draining";
  }
  return "unknown";
}

const char* WireMethodName(WireMethod method) {
  switch (method) {
    case WireMethod::kOnline:
      return "online";
    case WireMethod::kBicore:
      return "bicore";
    case WireMethod::kDelta:
      return "delta";
    case WireMethod::kScsAuto:
      return "scs-auto";
    case WireMethod::kScsPeel:
      return "scs-peel";
    case WireMethod::kScsExpand:
      return "scs-expand";
    case WireMethod::kScsBinary:
      return "scs-binary";
  }
  return nullptr;
}

bool ParseWireMethod(const char* name, WireMethod* out) {
  for (uint8_t m = 0; m < kNumWireMethods; ++m) {
    const WireMethod method = static_cast<WireMethod>(m);
    if (std::strcmp(name, WireMethodName(method)) == 0) {
      *out = method;
      return true;
    }
  }
  return false;
}

WireKernels WireMethodKernels(WireMethod method) {
  switch (method) {
    case WireMethod::kOnline:
      return {QueryMethod::kOnline, std::nullopt};
    case WireMethod::kBicore:
      return {QueryMethod::kBicore, std::nullopt};
    case WireMethod::kDelta:
      return {QueryMethod::kDelta, std::nullopt};
    case WireMethod::kScsAuto:
      return {QueryMethod::kDelta, ScsAlgo::kAuto};
    case WireMethod::kScsPeel:
      return {QueryMethod::kDelta, ScsAlgo::kPeel};
    case WireMethod::kScsExpand:
      return {QueryMethod::kDelta, ScsAlgo::kExpand};
    case WireMethod::kScsBinary:
      return {QueryMethod::kDelta, ScsAlgo::kBinary};
  }
  return {QueryMethod::kDelta, std::nullopt};
}

void EncodeRequest(const WireRequest& req, std::vector<std::byte>* out) {
  out->reserve(out->size() + kRequestWireBytes);
  PutU16(kRequestMagic, out);
  out->push_back(static_cast<std::byte>(kWireVersion));
  out->push_back(static_cast<std::byte>(req.type));
  if (req.type == MessageType::kUpdate) {
    out->push_back(static_cast<std::byte>(req.op));
    out->push_back(static_cast<std::byte>(0));  // reserved
    PutU16(0, out);                             // reserved
    PutU32(req.u, out);
    PutU32(req.v, out);
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(req.weight));
    std::memcpy(&bits, &req.weight, sizeof(bits));
    PutU64(bits, out);
    return;
  }
  out->push_back(static_cast<std::byte>(req.method));
  out->push_back(static_cast<std::byte>(req.lower_side ? 1 : 0));
  PutU16(0, out);  // reserved
  PutU32(req.q, out);
  PutU32(req.alpha, out);
  PutU32(req.beta, out);
  PutU32(req.deadline_ms, out);
}

Status DecodeRequest(std::span<const std::byte> payload, WireRequest* out) {
  if (payload.size() != kRequestWireBytes) {
    return Status::Corruption("request payload has wrong size");
  }
  const std::byte* p = payload.data();
  if (GetU16(p) != kRequestMagic) {
    return Status::Corruption("bad request magic");
  }
  if (static_cast<uint8_t>(p[2]) != kWireVersion) {
    return Status::NotSupported("unsupported protocol version");
  }
  const uint8_t type = static_cast<uint8_t>(p[3]);
  if (type != static_cast<uint8_t>(MessageType::kQuery) &&
      type != static_cast<uint8_t>(MessageType::kPing) &&
      type != static_cast<uint8_t>(MessageType::kUpdate) &&
      type != static_cast<uint8_t>(MessageType::kHealth)) {
    return Status::Corruption("unknown message type");
  }
  if (type == static_cast<uint8_t>(MessageType::kUpdate)) {
    const uint8_t op = static_cast<uint8_t>(p[4]);
    if (op >= kNumUpdateOps) return Status::Corruption("unknown update op");
    if (static_cast<uint8_t>(p[5]) != 0 || GetU16(p + 6) != 0) {
      return Status::Corruption("nonzero reserved bytes");
    }
    out->type = MessageType::kUpdate;
    out->op = static_cast<UpdateOp>(op);
    out->u = GetU32(p + 8);
    out->v = GetU32(p + 12);
    const uint64_t bits = GetU64(p + 16);
    std::memcpy(&out->weight, &bits, sizeof(out->weight));
    if (out->op == UpdateOp::kRemoveEdge || out->op == UpdateOp::kCommit) {
      if (bits != 0) return Status::Corruption("weight must be 0 for this op");
    } else if (!std::isfinite(out->weight)) {
      return Status::Corruption("weight must be finite");
    }
    if (out->op == UpdateOp::kCommit && (out->u != 0 || out->v != 0)) {
      return Status::Corruption("commit carries no endpoints");
    }
    return Status::OK();
  }
  const uint8_t method = static_cast<uint8_t>(p[4]);
  if (method >= kNumWireMethods) {
    return Status::Corruption("unknown query method");
  }
  const uint8_t side = static_cast<uint8_t>(p[5]);
  if (side > 1) return Status::Corruption("bad side byte");
  if (GetU16(p + 6) != 0) {
    return Status::Corruption("nonzero reserved bytes");
  }
  out->type = static_cast<MessageType>(type);
  out->method = static_cast<WireMethod>(method);
  out->lower_side = side == 1;
  out->q = GetU32(p + 8);
  out->alpha = GetU32(p + 12);
  out->beta = GetU32(p + 16);
  out->deadline_ms = GetU32(p + 20);
  if (out->type == MessageType::kQuery &&
      (out->alpha == 0 || out->beta == 0)) {
    return Status::Corruption("alpha and beta must be >= 1");
  }
  return Status::OK();
}

void EncodeResponse(const WireResponse& resp, std::vector<std::byte>* out) {
  out->reserve(out->size() + kResponseWireBytes);
  PutU16(kResponseMagic, out);
  out->push_back(static_cast<std::byte>(kWireVersion));
  out->push_back(static_cast<std::byte>(resp.status));
  out->push_back(static_cast<std::byte>(resp.type));
  out->push_back(static_cast<std::byte>(resp.kernel));
  out->push_back(static_cast<std::byte>(resp.found ? 1 : 0));
  out->push_back(static_cast<std::byte>(resp.memo_hit ? 1 : 0));
  PutU32(resp.num_edges, out);
  PutU32(resp.result_edges, out);
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(resp.significance));
  std::memcpy(&bits, &resp.significance, sizeof(bits));
  PutU64(bits, out);
  PutU64(resp.epoch, out);
}

Status DecodeResponse(std::span<const std::byte> payload, WireResponse* out) {
  if (payload.size() != kResponseWireBytes) {
    return Status::Corruption("response payload has wrong size");
  }
  const std::byte* p = payload.data();
  if (GetU16(p) != kResponseMagic) {
    return Status::Corruption("bad response magic");
  }
  if (static_cast<uint8_t>(p[2]) != kWireVersion) {
    return Status::NotSupported("unsupported protocol version");
  }
  const uint8_t status = static_cast<uint8_t>(p[3]);
  if (status > static_cast<uint8_t>(WireStatus::kConflict)) {
    return Status::Corruption("unknown response status");
  }
  const uint8_t type = static_cast<uint8_t>(p[4]);
  if (type != static_cast<uint8_t>(MessageType::kQuery) &&
      type != static_cast<uint8_t>(MessageType::kPing) &&
      type != static_cast<uint8_t>(MessageType::kUpdate)) {
    return Status::Corruption("unknown message type");
  }
  const uint8_t kernel = static_cast<uint8_t>(p[5]);
  if (kernel > static_cast<uint8_t>(ScsAlgo::kBinary) && kernel != kNoKernel) {
    return Status::Corruption("unknown kernel");
  }
  const uint8_t found = static_cast<uint8_t>(p[6]);
  const uint8_t memo = static_cast<uint8_t>(p[7]);
  if (found > 1 || memo > 1) return Status::Corruption("bad flag byte");
  out->status = static_cast<WireStatus>(status);
  out->type = static_cast<MessageType>(type);
  out->kernel = kernel;
  out->found = found == 1;
  out->memo_hit = memo == 1;
  out->num_edges = GetU32(p + 8);
  out->result_edges = GetU32(p + 12);
  const uint64_t bits = GetU64(p + 16);
  std::memcpy(&out->significance, &bits, sizeof(out->significance));
  out->epoch = GetU64(p + 24);
  return Status::OK();
}

void EncodeHealthResponse(const WireHealth& health,
                          std::vector<std::byte>* out) {
  out->reserve(out->size() + kHealthWireBytes);
  PutU16(kResponseMagic, out);
  out->push_back(static_cast<std::byte>(kWireVersion));
  out->push_back(static_cast<std::byte>(WireStatus::kOk));
  out->push_back(static_cast<std::byte>(MessageType::kHealth));
  out->push_back(static_cast<std::byte>(health.state));
  PutU16(0, out);  // reserved
  PutU32(health.queue_depth, out);
  PutU32(health.inflight, out);
  PutU32(health.connections, out);
  PutU32(health.slow_client_dropped, out);
  PutU64(health.epoch, out);
  PutU64(health.memo_hits, out);
  PutU64(health.requests, out);
}

Status DecodeHealthResponse(std::span<const std::byte> payload,
                            WireHealth* out) {
  if (payload.size() != kHealthWireBytes) {
    return Status::Corruption("health payload has wrong size");
  }
  const std::byte* p = payload.data();
  if (GetU16(p) != kResponseMagic) {
    return Status::Corruption("bad response magic");
  }
  if (static_cast<uint8_t>(p[2]) != kWireVersion) {
    return Status::NotSupported("unsupported protocol version");
  }
  if (static_cast<uint8_t>(p[3]) != static_cast<uint8_t>(WireStatus::kOk)) {
    return Status::Corruption("health response must carry status ok");
  }
  if (static_cast<uint8_t>(p[4]) !=
      static_cast<uint8_t>(MessageType::kHealth)) {
    return Status::Corruption("unknown message type");
  }
  const uint8_t state = static_cast<uint8_t>(p[5]);
  if (state > static_cast<uint8_t>(HealthState::kDraining)) {
    return Status::Corruption("unknown health state");
  }
  if (GetU16(p + 6) != 0) {
    return Status::Corruption("nonzero reserved bytes");
  }
  out->state = static_cast<HealthState>(state);
  out->queue_depth = GetU32(p + 8);
  out->inflight = GetU32(p + 12);
  out->connections = GetU32(p + 16);
  out->slow_client_dropped = GetU32(p + 20);
  out->epoch = GetU64(p + 24);
  out->memo_hits = GetU64(p + 32);
  out->requests = GetU64(p + 40);
  return Status::OK();
}

}  // namespace abcs::serve
