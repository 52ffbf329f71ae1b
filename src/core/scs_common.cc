#include "core/scs_common.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "abcore/peel_kernel.h"
#include "core/rank_peel.h"

namespace abcs {

namespace {

// Integer key that orders like the weight *descending* (ties broken by pool
// position elsewhere): the standard IEEE-754 total-order transform,
// inverted. −0.0 is normalised to +0.0 first so equal weights can never map
// to two keys.
uint64_t DescendingWeightKey(Weight w) {
  uint64_t b = std::bit_cast<uint64_t>(w == 0.0 ? 0.0 : w);
  b = (b & 0x8000000000000000ULL) ? ~b : (b | 0x8000000000000000ULL);
  return ~b;
}

// Counting-sort eligibility: with at most this many distinct weights the
// rank order is built in O(m + W log W) instead of a comparison sort —
// the duplicate-heavy regime the incremental kernels target.
constexpr uint32_t kMaxCountingDistinct = 128;
constexpr uint32_t kHashTableSize = 512;  // power of two, ≥ 4× the cap

// Radix path: the most significant varying key bits it sorts (the rest are
// left to a per-run fix-up), in digits of at most kRadixDigitBits bits —
// so at most three passes with histograms that stay in L1.
constexpr int kRadixKeyBits = 32;
constexpr int kRadixDigitBits = 11;

std::size_t HashWeightKey(uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - 9)) &
         (kHashTableSize - 1);
}

}  // namespace

const char* ScsAlgoName(ScsAlgo algo) {
  switch (algo) {
    case ScsAlgo::kAuto:
      return "auto";
    case ScsAlgo::kPeel:
      return "peel";
    case ScsAlgo::kExpand:
      return "expand";
    case ScsAlgo::kBinary:
      return "binary";
  }
  return "unknown";
}

LocalGraph::LocalGraph(const BipartiteGraph& g,
                       const std::vector<EdgeId>& edges) {
  BuildFrom(g, edges);
}

void LocalGraph::BuildFrom(const BipartiteGraph& g,
                           std::span<const EdgeId> edge_ids) {
  // Dense renumbering of the endpoints in one pass: the epoch-stamped map
  // replaces the old sort + per-endpoint binary searches — at typical
  // community sizes that was the single most expensive part of a query.
  if (map_stamp_.size() < g.NumVertices()) {
    map_stamp_.assign(g.NumVertices(), 0);
    map_local_.resize(g.NumVertices());
    map_epoch_ = 0;
  }
  if (++map_epoch_ == 0) {  // wraparound: one O(n) clear every 2^32 builds
    std::fill(map_stamp_.begin(), map_stamp_.end(), 0u);
    map_epoch_ = 1;
  }

  global_of_.clear();
  build_edges_.clear();
  build_edges_.reserve(edge_ids.size());
  auto local_of = [&](VertexId v) {
    if (map_stamp_[v] != map_epoch_) {
      map_stamp_[v] = map_epoch_;
      map_local_[v] = static_cast<uint32_t>(global_of_.size());
      global_of_.push_back(v);
    }
    return map_local_[v];
  };
  for (EdgeId e : edge_ids) {
    const Edge& ed = g.GetEdge(e);
    build_edges_.push_back(
        LocalEdge{local_of(ed.u), local_of(ed.v), ed.w, e});
  }

  const uint32_t n = NumVertices();
  is_upper_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    is_upper_[i] = g.IsUpper(global_of_[i]) ? 1 : 0;
  }

  // The weight-rank order: non-increasing weight, ties by pool position,
  // i.e. pool indices sorted by (descending-key, pos). Duplicate-heavy
  // pools (≤ kMaxCountingDistinct distinct weights, found with a pooled
  // stamped hash table) take an O(m) counting sort over the distinct
  // values; everything else takes a stable radix sort on the keys (see
  // RankByRadix). Both paths produce the identical order.
  const uint32_t m = static_cast<uint32_t>(build_edges_.size());
  edges_.resize(m);
  if (ht_stamp_.size() != kHashTableSize) {
    ht_stamp_.assign(kHashTableSize, 0);
    ht_key_.resize(kHashTableSize);
    ht_val_.resize(kHashTableSize);
    ht_epoch_ = 0;
  }
  if (++ht_epoch_ == 0) {
    std::fill(ht_stamp_.begin(), ht_stamp_.end(), 0u);
    ht_epoch_ = 1;
  }
  bucket_key_.clear();
  bucket_of_.resize(m);
  bool counting = true;
  for (uint32_t i = 0; i < m && counting; ++i) {
    const uint64_t key = DescendingWeightKey(build_edges_[i].w);
    std::size_t slot = HashWeightKey(key);
    for (;;) {
      if (ht_stamp_[slot] != ht_epoch_) {
        if (bucket_key_.size() == kMaxCountingDistinct) {
          counting = false;
          break;
        }
        ht_stamp_[slot] = ht_epoch_;
        ht_key_[slot] = key;
        ht_val_[slot] = static_cast<uint32_t>(bucket_key_.size());
        bucket_key_.push_back(key);
      }
      if (ht_key_[slot] == key) {
        bucket_of_[i] = ht_val_[slot];
        break;
      }
      slot = (slot + 1) & (kHashTableSize - 1);
    }
  }
  if (counting) {
    // Rank the ≤128 distinct keys, then scatter edges bucket by bucket in
    // pool order — stable within a bucket, so the result matches the
    // radix path bit for bit.
    const uint32_t nb = static_cast<uint32_t>(bucket_key_.size());
    build_rank_.resize(nb);
    for (uint32_t b = 0; b < nb; ++b) build_rank_[b] = {bucket_key_[b], b};
    std::sort(build_rank_.begin(), build_rank_.end());
    bucket_rank_.resize(nb);
    bucket_cursor_.assign(nb + 1, 0);
    for (uint32_t r = 0; r < nb; ++r) {
      bucket_rank_[build_rank_[r].second] = r;
    }
    for (uint32_t i = 0; i < m; ++i) {
      ++bucket_cursor_[bucket_rank_[bucket_of_[i]] + 1];
    }
    std::partial_sum(bucket_cursor_.begin(), bucket_cursor_.end(),
                     bucket_cursor_.begin());
    for (uint32_t i = 0; i < m; ++i) {
      edges_[bucket_cursor_[bucket_rank_[bucket_of_[i]]]++] = build_edges_[i];
    }
  } else {
    RankByRadix();
  }

  // Distinct-weight prefix table.
  distinct_w_.clear();
  prefix_end_.clear();
  for (uint32_t r = 0; r < m; ++r) {
    if (r == 0 || edges_[r].w != edges_[r - 1].w) {
      if (r != 0) prefix_end_.push_back(r);
      distinct_w_.push_back(edges_[r].w);
    }
  }
  if (m != 0) prefix_end_.push_back(m);

  // CSR over the rank order; filling in rank order leaves every vertex's
  // arc list sorted by ascending rank.
  offsets_.assign(n + 1, 0);
  for (const LocalEdge& le : edges_) {
    ++offsets_[le.u + 1];
    ++offsets_[le.v + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  arcs_.resize(2 * static_cast<std::size_t>(m));
  build_cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (uint32_t pos = 0; pos < m; ++pos) {
    const LocalEdge& le = edges_[pos];
    arcs_[build_cursor_[le.u]++] = LocalArc{le.v, pos};
    arcs_[build_cursor_[le.v]++] = LocalArc{le.u, pos};
  }
}

void LocalGraph::RankByRadix() {
  // Keys, with their range, in one pass. Only the bits in which the keys
  // vary matter; of those, the kRadixKeyBits most significant ones are
  // radix-sorted and the rest (if any) are resolved by the fix-up below.
  const uint32_t m = static_cast<uint32_t>(build_edges_.size());
  radix_a_.resize(m);
  radix_b_.resize(m);
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  for (uint32_t i = 0; i < m; ++i) {
    const uint64_t key = DescendingWeightKey(build_edges_[i].w);
    radix_a_[i] = key;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  const int varying = static_cast<int>(std::bit_width(hi - lo));
  const int shift = std::max(0, varying - kRadixKeyBits);
  const int width = varying - shift;
  const int passes = (width + kRadixDigitBits - 1) / kRadixDigitBits;
  const int digit_bits = passes == 0 ? 0 : (width + passes - 1) / passes;
  const uint32_t buckets = uint32_t{1} << digit_bits;
  const uint64_t mask = buckets - 1;
  auto digit = [&](uint64_t packed, int pass) {
    return static_cast<uint32_t>((packed >> (32 + pass * digit_bits)) & mask);
  };

  // Pack (top varying key bits, pool index) and count every pass's digits.
  radix_count_.assign(static_cast<std::size_t>(passes) * buckets, 0);
  for (uint32_t i = 0; i < m; ++i) {
    radix_a_[i] = (((radix_a_[i] - lo) >> shift) << 32) | i;
    for (int p = 0; p < passes; ++p) {
      ++radix_count_[p * buckets + digit(radix_a_[i], p)];
    }
  }

  // LSD passes, each a stable scatter; a pass whose digit is the same for
  // every key moves nothing and is skipped. Starting from pool order,
  // stability leaves equal digit strings ordered by pool index.
  uint64_t* src = radix_a_.data();
  uint64_t* dst = radix_b_.data();
  for (int p = 0; p < passes; ++p) {
    uint32_t* count = radix_count_.data() + p * buckets;
    if (count[digit(src[0], p)] == m) continue;
    uint32_t sum = 0;
    for (uint32_t b = 0; b < buckets; ++b) {
      const uint32_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (uint32_t i = 0; i < m; ++i) dst[count[digit(src[i], p)]++] = src[i];
    std::swap(src, dst);
  }

  constexpr uint64_t kPosMask = 0xFFFFFFFFULL;
  for (uint32_t r = 0; r < m; ++r) {
    edges_[r] = build_edges_[src[r] & kPosMask];
  }
  if (shift == 0) return;  // the radix saw every varying bit

  // Fix-up: a run sharing the radix-sorted bits is in pool order. That is
  // final when the run is one repeated weight (the common case); keys that
  // differ only below the radix resolution get their run sorted by
  // (key, pos) instead — the worst case is one run of all m edges.
  for (uint32_t begin = 0, end; begin < m; begin = end) {
    end = begin + 1;
    while (end < m && (src[end] >> 32) == (src[begin] >> 32)) ++end;
    if (end - begin == 1) continue;
    const uint64_t first = DescendingWeightKey(edges_[begin].w);
    uint32_t r = begin + 1;
    while (r < end && DescendingWeightKey(edges_[r].w) == first) ++r;
    if (r == end) continue;
    build_rank_.resize(end - begin);
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t pos = static_cast<uint32_t>(src[k] & kPosMask);
      build_rank_[k - begin] = {DescendingWeightKey(build_edges_[pos].w), pos};
    }
    std::sort(build_rank_.begin(), build_rank_.end());
    for (uint32_t k = begin; k < end; ++k) {
      edges_[k] = build_edges_[build_rank_[k - begin].second];
    }
  }
}

uint32_t LocalGraph::DistinctIndexOfRank(uint32_t rank) const {
  return static_cast<uint32_t>(
      std::upper_bound(prefix_end_.begin(), prefix_end_.end(), rank) -
      prefix_end_.begin());
}

uint32_t LocalGraph::LocalId(VertexId global) const {
  if (global >= map_stamp_.size() || map_stamp_[global] != map_epoch_) {
    return kInvalidVertex;
  }
  return map_local_[global];
}

void ExtractAliveComponent(const LocalGraph& lg, uint32_t lq,
                           const std::vector<uint8_t>& alive, Weight fmin_seed,
                           QueryScratch& s, ScsResult* out) {
  s.BeginQuery(lg.NumVertices());
  s.TryVisit(lq);
  std::vector<uint32_t>& stack = s.U32(QueryScratch::kSlotStack);
  stack.assign(1, lq);
  Weight fmin = fmin_seed;
  while (!stack.empty()) {
    uint32_t x = stack.back();
    stack.pop_back();
    for (const LocalGraph::LocalArc& a : lg.Neighbors(x)) {
      if (!alive[a.pos]) continue;
      if (!lg.IsUpperLocal(x)) {
        out->community.edges.push_back(lg.edges()[a.pos].global);
        fmin = std::min(fmin, lg.edges()[a.pos].w);
      }
      if (s.TryVisit(a.to)) stack.push_back(a.to);
    }
  }
  out->significance = fmin;
  out->found = true;
}

void PeelToSignificantInto(const LocalGraph& lg, VertexId q, uint32_t alpha,
                           uint32_t beta, ScsResult* out, ScsStats* stats,
                           QueryScratch& scratch) {
  RankPeel peel(lg, q, alpha, beta, scratch, stats);
  if (!peel.Begin(ScsAlgo::kPeel, out) || !peel.StabiliseAll()) return;
  const auto all_ranks = [](uint32_t) { return true; };
  peel.DescendFrom(lg.NumDistinctWeights() - 1, all_ranks, out);
}

ScsResult ScsBruteForce(const BipartiteGraph& g, VertexId q, uint32_t alpha,
                        uint32_t beta) {
  ScsResult result;
  if (q >= g.NumVertices()) return result;

  std::vector<Weight> weights;
  weights.reserve(g.NumEdges());
  for (const Edge& e : g.Edges()) weights.push_back(e.w);
  std::sort(weights.begin(), weights.end(), std::greater<>());
  weights.erase(std::unique(weights.begin(), weights.end()), weights.end());

  const uint32_t n = g.NumVertices();

  // Degrees of the ≥w subgraph, maintained incrementally as the threshold
  // sweeps down: each edge is counted exactly once over the whole sweep
  // (when its weight crosses the threshold) instead of every edge being
  // re-scanned at every distinct weight. The per-weight working copy the
  // peel mutates is a memcpy of `base_deg`, so the values entering the
  // kernel are identical to the old per-weight rebuild.
  std::vector<EdgeId> by_weight(g.NumEdges());
  std::iota(by_weight.begin(), by_weight.end(), 0u);
  std::sort(by_weight.begin(), by_weight.end(), [&](EdgeId a, EdgeId b) {
    return g.GetWeight(a) > g.GetWeight(b);
  });
  std::vector<uint32_t> base_deg(n, 0);
  std::size_t next_edge = 0;
  std::vector<uint32_t> deg;

  for (Weight w : weights) {
    // Keep edges with weight >= w; peel vertices below threshold via the
    // shared kernel with a weight-filtered adjacency.
    while (next_edge < by_weight.size() &&
           g.GetWeight(by_weight[next_edge]) >= w) {
      const Edge& e = g.GetEdge(by_weight[next_edge]);
      ++base_deg[e.u];
      ++base_deg[e.v];
      ++next_edge;
    }
    deg = base_deg;
    std::vector<uint8_t> alive(n, 1);
    auto threshold = [&](VertexId x) { return g.IsUpper(x) ? alpha : beta; };
    ThresholdPeel(
        n, deg, alive,
        [&](VertexId x, auto&& visit) {
          for (const Arc& a : g.Neighbors(x)) {
            if (g.GetWeight(a.eid) >= w) visit(a.to);
          }
        },
        threshold, [](VertexId) {});
    if (!alive[q]) continue;

    // q survives: its connected component over surviving edges is R.
    std::vector<uint8_t> visited(n, 0);
    std::vector<VertexId> stack{q};
    visited[q] = 1;
    Weight fmin = 0;
    bool first = true;
    while (!stack.empty()) {
      VertexId x = stack.back();
      stack.pop_back();
      for (const Arc& a : g.Neighbors(x)) {
        if (!alive[a.to] || g.GetWeight(a.eid) < w) continue;
        if (!g.IsUpper(x)) {
          result.community.edges.push_back(a.eid);
          const Weight we = g.GetWeight(a.eid);
          fmin = first ? we : std::min(fmin, we);
          first = false;
        }
        if (!visited[a.to]) {
          visited[a.to] = 1;
          stack.push_back(a.to);
        }
      }
    }
    result.significance = fmin;
    result.found = true;
    return result;
  }
  return result;
}

}  // namespace abcs
