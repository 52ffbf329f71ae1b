#ifndef ABCS_SERVE_MEMO_H_
#define ABCS_SERVE_MEMO_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/subgraph.h"
#include "graph/bipartite_graph.h"
#include "serve/protocol.h"

namespace abcs::serve {

/// What the memo can answer without running a query: exactly the semantic
/// fields of a WireResponse.
struct MemoValue {
  bool found = false;
  uint32_t num_edges = 0;     ///< |C|
  uint32_t result_edges = 0;  ///< |R| (SCS methods)
  uint8_t kernel = 0xff;      ///< resolved ScsAlgo (SCS methods)
  double significance = 0.0;  ///< f(R) (SCS methods)
};

/// \brief Warm result memo keyed by (method, α, β, community root).
///
/// The paper's community semantics make repeat traffic memoizable:
/// C_{α,β}(q) is the connected component of the (α,β)-core containing q,
/// so *every* vertex of that component has the same community. The memo
/// exploits this with two levels:
///
///  - `roots_` maps (method, α, β, vertex) → the community's canonical
///    root (its minimum vertex id). On a miss that retrieved community C,
///    all of C's vertices are registered, so a later query for any of
///    them — not just the same q — is a hash hit.
///  - `results_` maps (method, α, β, root) → the shared MemoValue.
///
/// Sharing is only valid where the answer is q-invariant. That holds for
/// the three retrieval methods (the answer is C itself). It does NOT hold
/// for the SCS methods: R maximises significance *subject to containing
/// q*, and the planner's kernel choice also reads q's arcs — so SCS
/// entries are registered under root = q and only exact repeats hit.
/// Either way a hit is bit-identical to what a fresh query would answer
/// on the wire.
///
/// Vertices whose community is empty (q outside the (α,β)-core) are
/// likewise registered under root = q: emptiness says nothing about the
/// rest of the component.
///
/// Invalidation under live updates is *selective* by snapshot epoch
/// (`AdvanceEpoch`): a publish drops only the entries an update batch
/// could have affected — every SCS entry (significance reads weights and
/// q's arcs), every oversized entry (members unknown, unverifiable) and
/// every shared entry with a registered member in the publisher's
/// one-hop-expanded touched set — and keeps the rest warm. Weights-only
/// publishes keep all retrieval entries (community membership is
/// topology-only). Entries are epoch-aligned: a lookup or insert carries
/// the requester's pinned snapshot epoch and is ignored unless it matches
/// the memo's — a worker still executing against a retired snapshot can
/// neither read nor poison results for the published one. `Invalidate()`
/// remains the unconditional flush. Capacity is bounded by flushing
/// everything when the root table outgrows `max_entries` — a warm cache,
/// not a database; the next wave of traffic re-fills it.
///
/// Thread-safe: lookups take a shared lock, inserts/invalidation an
/// exclusive one. Concurrent inserts of the same key are idempotent
/// (queries are deterministic, both writers carry identical values).
class QueryMemo {
 public:
  explicit QueryMemo(std::size_t max_entries = 1 << 16)
      : max_entries_(max_entries) {}

  /// Returns true and fills `*out` when (method, α, β, q) is covered by a
  /// cached result and `epoch` matches the memo's aligned epoch (static
  /// servers leave both at 0).
  bool Lookup(WireMethod method, uint32_t alpha, uint32_t beta, VertexId q,
              MemoValue* out, uint64_t epoch = 0) const;

  /// Registers the result of a fresh query computed against snapshot
  /// `epoch`; dropped unless that is still the memo's aligned epoch.
  /// `community` is the retrieved C (used to register the component's
  /// vertices; pass the empty subgraph for empty results). For SCS
  /// methods only q is registered.
  void Insert(WireMethod method, uint32_t alpha, uint32_t beta, VertexId q,
              const BipartiteGraph& g, const Subgraph& community,
              const MemoValue& value, uint64_t epoch = 0);

  /// Drops every entry and bumps the epoch.
  void Invalidate();

  /// Publish-time selective invalidation. Realigns the memo to
  /// `new_epoch`, then drops exactly the entries the batch could have
  /// affected. `touched` marks the batch's insert/remove endpoints and
  /// every vertex whose offsets changed, already expanded by one hop in
  /// the NEW graph (a community
  /// can gain a vertex whose own offsets changed while its members'
  /// didn't; the expansion catches the member it attaches to). With
  /// `flush_all` (δ changed, or no summary available) everything goes.
  void AdvanceEpoch(uint64_t new_epoch, bool topology_changed,
                    bool flush_all, const std::vector<uint8_t>& touched);

  /// Aligns the memo with the serving snapshot's epoch at startup.
  void SetEpoch(uint64_t epoch);

  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Key {
    uint8_t method;
    uint32_t alpha;
    uint32_t beta;
    uint32_t vertex;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // FNV-1a over the packed fields; cheap and well-mixed for the
      // dense small-integer key space.
      uint64_t h = 1469598103934665603ull;
      auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      mix(k.method);
      mix((static_cast<uint64_t>(k.alpha) << 32) | k.beta);
      mix(k.vertex);
      return static_cast<std::size_t>(h);
    }
  };

  // Communities larger than this register only q itself — bounding the
  // per-miss insert cost and the table's growth on huge components while
  // keeping exact-repeat hits.
  static constexpr std::size_t kMaxRegisterEdges = 4096;

  /// How an entry was registered — which is exactly what selective
  /// invalidation needs to know to decide survivability.
  enum class EntryKind : uint8_t {
    kShared,     ///< retrieval, every member registered in roots_
    kEmpty,      ///< retrieval, empty answer, registered under q only
    kOversized,  ///< retrieval > kMaxRegisterEdges, members unregistered
    kScs,        ///< SCS answer, valid only for exact (q, weights) repeats
  };
  struct Entry {
    MemoValue value;
    EntryKind kind = EntryKind::kShared;
  };

  const std::size_t max_entries_;
  mutable std::shared_mutex mu_;
  std::unordered_map<Key, uint32_t, KeyHash> roots_;
  std::unordered_map<Key, Entry, KeyHash> results_;
  uint64_t aligned_epoch_ = 0;  ///< guarded by mu_
  std::atomic<uint64_t> epoch_{1};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace abcs::serve

#endif  // ABCS_SERVE_MEMO_H_
