#ifndef ABCS_SERVE_PROTOCOL_H_
#define ABCS_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/scs_common.h"

namespace abcs {
enum class QueryMethod;  // core/query_engine.h
}  // namespace abcs

namespace abcs::serve {

/// Protocol version carried in every request and response.
inline constexpr uint8_t kWireVersion = 1;

/// First two payload bytes, little-endian: "AQ" for requests, "AS" for
/// responses. A frame whose magic is wrong is a protocol error.
inline constexpr uint16_t kRequestMagic = 0x5141;   // 'A' 'Q'
inline constexpr uint16_t kResponseMagic = 0x5341;  // 'A' 'S'

enum class MessageType : uint8_t {
  kQuery = 1,   ///< one community / SCS query
  kPing = 2,    ///< liveness + drain probe; echoed as an empty OK response
  kUpdate = 3,  ///< one live-update operation (see UpdateOp)
  kHealth = 4,  ///< health probe; answered with the extended health frame
};

/// Live-update operations carried by kUpdate frames. Values are part of
/// the protocol — append only. Mutations accumulate invisibly in the
/// writer's state and become visible to queries atomically at the next
/// kCommit, which publishes a new epoch.
enum class UpdateOp : uint8_t {
  kInsertEdge = 0,    ///< add edge (u, v) with the given weight
  kRemoveEdge = 1,    ///< delete edge (u, v)
  kReweightEdge = 2,  ///< set edge (u, v)'s weight
  kCommit = 3,        ///< publish all applied mutations as a new epoch
};
inline constexpr uint8_t kNumUpdateOps = 4;

/// The seven CLI batch methods, numbered for the wire. Values are part of
/// the protocol — append only.
enum class WireMethod : uint8_t {
  kOnline = 0,
  kBicore = 1,
  kDelta = 2,
  kScsAuto = 3,
  kScsPeel = 4,
  kScsExpand = 5,
  kScsBinary = 6,
};
inline constexpr uint8_t kNumWireMethods = 7;

/// True for the methods that run the full two-step SCS paradigm.
inline bool IsScsMethod(WireMethod m) {
  return static_cast<uint8_t>(m) >= static_cast<uint8_t>(WireMethod::kScsAuto);
}

/// Per-response status. Values are part of the protocol — append only.
enum class WireStatus : uint8_t {
  kOk = 0,
  kBadRequest = 1,       ///< malformed payload the framing survived
  kInvalidVertex = 2,    ///< q outside the served graph's layer
  kDeadlineExceeded = 3, ///< expired in queue before a worker picked it up
  kOverloaded = 4,       ///< admission/update queue full; retry with backoff
  kShuttingDown = 5,     ///< server draining; connection closes after this
  kUpdatesDisabled = 6,  ///< daemon not started with --enable-updates
  kConflict = 7,         ///< insert of existing edge / remove of missing one
};

/// Returns a stable lowercase name ("ok", "overloaded", …).
const char* WireStatusName(WireStatus status);

/// Returns a stable lowercase name ("insert", "remove", "reweight",
/// "commit"); null for out-of-range values.
const char* UpdateOpName(UpdateOp op);

/// One query request. `q` is a layer-local id; `lower_side` selects the
/// layer, exactly like the CLI's batch-file lines — the client never needs
/// to know the unified id space of the served graph.
///
/// Wire layout (little-endian, fixed 24 bytes):
///   off size field
///   0   2    magic "AQ"
///   2   1    version
///   3   1    type (MessageType)
///   4   1    method (WireMethod; 0 for ping)
///   5   1    side (0 = upper, 1 = lower)
///   6   2    reserved, must be 0
///   8   4    q (layer-local vertex id)
///   12  4    alpha
///   16  4    beta
///   20  4    deadline_ms (0 = server default)
///
/// kUpdate frames reuse the same fixed 24 bytes with a different middle:
///   off size field
///   0   2    magic "AQ"
///   2   1    version
///   3   1    type (MessageType::kUpdate)
///   4   1    op (UpdateOp)
///   5   1    reserved, must be 0
///   6   2    reserved, must be 0
///   8   4    u (upper layer-local id; 0 for kCommit)
///   12  4    v (lower layer-local id; 0 for kCommit)
///   16  8    weight as IEEE-754 bits (must be 0 for kRemoveEdge/kCommit;
///            must be finite otherwise)
struct WireRequest {
  MessageType type = MessageType::kQuery;
  WireMethod method = WireMethod::kDelta;
  bool lower_side = false;
  uint32_t q = 0;
  uint32_t alpha = 1;
  uint32_t beta = 1;
  /// End-to-end budget: queue wait counts against it at pickup, and the
  /// remainder is armed on the worker's CancelToken so an overrunning
  /// execution unwinds cooperatively mid-kernel. Either way the request
  /// is answered kDeadlineExceeded with an empty result — never a
  /// partial. 0 defers to the server's configured default.
  /// Queries only — updates are answered by the writer in arrival order.
  uint32_t deadline_ms = 0;

  // kUpdate fields (ignored for kQuery/kPing).
  UpdateOp op = UpdateOp::kInsertEdge;
  uint32_t u = 0;       ///< upper layer-local endpoint
  uint32_t v = 0;       ///< lower layer-local endpoint
  double weight = 0.0;  ///< kInsertEdge / kReweightEdge only
};

inline constexpr std::size_t kRequestWireBytes = 24;

/// Response kernel byte when no SCS kernel ran (the retrieval methods).
/// The only other valid values are the ScsAlgo enumerators.
inline constexpr uint8_t kNoKernel = 0xff;

/// One response. Carries the semantic result only — counts, significance,
/// resolved kernel — never internal work counters (a memo hit does no
/// work, so echoing the original computation's counters would lie).
///
/// Wire layout (little-endian, fixed 32 bytes):
///   off size field
///   0   2    magic "AS"
///   2   1    version
///   3   1    status (WireStatus)
///   4   1    type (echoes the request's MessageType)
///   5   1    kernel (resolved ScsAlgo for SCS methods; kNoKernel
///            otherwise)
///   6   1    found (SCS: R exists; retrieval: community nonempty)
///   7   1    memo_hit (diagnostic: answer came from the warm memo)
///   8   4    num_edges (|C|)
///   12  4    result_edges (|R| for SCS methods; 0 otherwise)
///   16  8    significance f(R) as IEEE-754 bits (SCS methods; 0 otherwise)
///   24  8    epoch (the snapshot epoch that answered; on kCommit the
///            newly published epoch — 0 only from pre-update daemons,
///            whose responses carried reserved zeros here)
struct WireResponse {
  WireStatus status = WireStatus::kOk;
  MessageType type = MessageType::kQuery;
  uint8_t kernel = kNoKernel;
  bool found = false;
  bool memo_hit = false;
  uint32_t num_edges = 0;
  uint32_t result_edges = 0;
  double significance = 0.0;
  uint64_t epoch = 0;
};

inline constexpr std::size_t kResponseWireBytes = 32;

/// Appends the 24-byte request payload (unframed) to `out`.
void EncodeRequest(const WireRequest& req, std::vector<std::byte>* out);

/// Strict bounds-checked parse of one frame payload. Rejects wrong size,
/// magic, version, unknown type/method, bad side byte and nonzero
/// reserved bytes — nothing about the payload is trusted.
Status DecodeRequest(std::span<const std::byte> payload, WireRequest* out);

/// Appends the 32-byte response payload (unframed) to `out`.
void EncodeResponse(const WireResponse& resp, std::vector<std::byte>* out);

/// Strict bounds-checked parse of one response payload (client side).
Status DecodeResponse(std::span<const std::byte> payload, WireResponse* out);

/// Server condition reported by a health response. Values are part of
/// the protocol — append only.
enum class HealthState : uint8_t {
  kLive = 0,      ///< accepting and keeping up
  kDegraded = 1,  ///< serving, but the queue is deep or progress stalled
  kDraining = 2,  ///< shutdown in progress; finish and reconnect elsewhere
};

/// Returns a stable lowercase name ("live", "degraded", "draining").
const char* HealthStateName(HealthState state);

/// The watchdog's exported snapshot, answered to kHealth probes. Its own
/// 48-byte layout (distinguished from WireResponse by size and type byte)
/// keeps the hot 32-byte response untouched; like every other payload it
/// is parsed strictly — exact size, no don't-care bytes.
///
/// Wire layout (little-endian, fixed 48 bytes):
///   off size field
///   0   2    magic "AS"
///   2   1    version
///   3   1    status (WireStatus)
///   4   1    type (MessageType::kHealth)
///   5   1    state (HealthState)
///   6   2    reserved, must be 0
///   8   4    queue_depth (tasks admitted but not yet picked up)
///   12  4    inflight (tasks currently executing on workers)
///   16  4    connections (live client connections)
///   20  4    slow_client_dropped (connections shed by the write deadline)
///   24  8    epoch (current snapshot epoch)
///   32  8    memo_hits (warm-memo hits since start)
///   40  8    requests (decoded frames since start, probes included)
struct WireHealth {
  HealthState state = HealthState::kLive;
  uint32_t queue_depth = 0;
  uint32_t inflight = 0;
  uint32_t connections = 0;
  uint32_t slow_client_dropped = 0;
  uint64_t epoch = 0;
  uint64_t memo_hits = 0;
  uint64_t requests = 0;
};

inline constexpr std::size_t kHealthWireBytes = 48;

/// Appends the 48-byte health payload (unframed) to `out`.
void EncodeHealthResponse(const WireHealth& health,
                          std::vector<std::byte>* out);

/// Strict bounds-checked parse of one health payload (client side).
Status DecodeHealthResponse(std::span<const std::byte> payload,
                            WireHealth* out);

/// Wire name of a method ("online", …, "scs-binary"), matching the CLI's
/// --method spellings; null for out-of-range values.
const char* WireMethodName(WireMethod method);

/// Parses a CLI --method spelling into a WireMethod. Returns false for
/// unknown names.
bool ParseWireMethod(const char* name, WireMethod* out);

/// The kernels a wire method runs: the engine that retrieves C_{α,β}(q)
/// and, for the scs-* methods, the kernel that extracts R from it (they
/// all retrieve through I_δ). The one mapping from wire method to kernel,
/// shared by the daemon and the CLI.
struct WireKernels {
  QueryMethod retrieval;
  std::optional<ScsAlgo> scs;  ///< nullopt for online/bicore/delta
};
WireKernels WireMethodKernels(WireMethod method);

}  // namespace abcs::serve

#endif  // ABCS_SERVE_PROTOCOL_H_
