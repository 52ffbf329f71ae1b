#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/graph_builder.h"

namespace perfbench {

namespace {

using abcs::VertexId;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(uint64_t seed, const std::string& workload, int salt) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : workload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return SplitMix(seed ^ SplitMix(h + static_cast<uint64_t>(salt)));
}

/// One (α, β) point of the workload grid with its core members.
struct GridPoint {
  uint32_t alpha;
  uint32_t beta;
  std::vector<VertexId> members;  ///< global ids, (α,β)-core
};

/// {0.3, 0.5, 0.7, 0.9}·δ on both axes, so α ≠ β pairs are included.
std::vector<GridPoint> MakeGrid(const DatasetView& data) {
  std::vector<uint32_t> levels;
  for (const double f : {0.3, 0.5, 0.7, 0.9}) {
    const auto x = static_cast<uint32_t>(
        std::max<long>(1, std::lround(f * data.delta)));
    if (std::find(levels.begin(), levels.end(), x) == levels.end()) {
      levels.push_back(x);
    }
  }
  std::vector<GridPoint> grid;
  for (const uint32_t a : levels) {
    for (const uint32_t b : levels) {
      GridPoint p{a, b, data.bicore->QueryCoreVertices(a, b)};
      std::sort(p.members.begin(), p.members.end());
      if (!p.members.empty()) grid.push_back(std::move(p));
    }
  }
  return grid;
}

WireRequest MakeQuery(const abcs::BipartiteGraph& g, WireMethod method,
                      VertexId q, uint32_t alpha, uint32_t beta) {
  WireRequest r;
  r.method = method;
  r.lower_side = q >= g.NumUpper();
  r.q = r.lower_side ? q - g.NumUpper() : q;
  r.alpha = alpha;
  r.beta = beta;
  return r;
}

/// Zipf(s) over ranks 1..n as a cumulative table.
std::vector<double> ZipfCdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;
  return cdf;
}

/// A fixed key set of up to `count` distinct (method, q, α, β) requests,
/// in Zipf rank order. Rank r asks method r mod |methods| at grid point
/// (r / |methods|) mod |grid|, so on every seed the heavy ranks of a
/// skewed draw carry the same methods and cores; the seed picks q, a
/// random core member. (With methods drawn at random, the top ranks alone
/// moved a method's share of live_churn's reads by ±6 points between
/// seeds, and its p50 with it.)
std::vector<WireRequest> MakeKeySet(const DatasetView& data,
                                    const std::vector<WireMethod>& methods,
                                    std::size_t count, uint64_t seed) {
  const std::vector<GridPoint> grid = MakeGrid(data);
  abcs::Rng rng(seed);
  std::vector<WireRequest> keys;
  std::unordered_set<uint64_t> seen;
  for (std::size_t r = 0; keys.size() < count && r < 20 * count; ++r) {
    const WireMethod m = methods[r % methods.size()];
    const std::size_t gi = (r / methods.size()) % grid.size();
    const GridPoint& p = grid[gi];
    // A small core may run out of unused members: its rank is skipped.
    for (int tries = 0; tries < 8; ++tries) {
      const VertexId q = p.members[rng.NextBounded(p.members.size())];
      const uint64_t key = (static_cast<uint64_t>(q) << 16) |
                           (static_cast<uint64_t>(gi) << 4) |
                           static_cast<uint64_t>(m);
      if (!seen.insert(key).second) continue;
      keys.push_back(MakeQuery(*data.graph, m, q, p.alpha, p.beta));
      break;
    }
  }
  return keys;
}

/// Every key once, in key order (the untimed memo warm-up).
class KeyListStream : public RequestStream {
 public:
  explicit KeyListStream(std::vector<WireRequest> keys)
      : keys_(std::move(keys)) {}
  bool Next(WireRequest* out) override {
    if (pos_ >= keys_.size()) return false;
    *out = keys_[pos_++];
    return true;
  }
  std::size_t Size() const override { return keys_.size(); }

 private:
  std::vector<WireRequest> keys_;
  std::size_t pos_ = 0;
};

/// Endless Zipf(s)-skewed draws over a fixed key set.
class ZipfStream : public RequestStream {
 public:
  ZipfStream(std::vector<WireRequest> keys, double s, uint64_t seed)
      : keys_(std::move(keys)), cdf_(ZipfCdf(keys_.size(), s)), rng_(seed) {}
  bool Next(WireRequest* out) override {
    const double x = rng_.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    *out = keys_[std::min<std::size_t>(it - cdf_.begin(), keys_.size() - 1)];
    return true;
  }

 private:
  std::vector<WireRequest> keys_;
  std::vector<double> cdf_;
  abcs::Rng rng_;
};

/// cold_mix and cold_raw: every (q, α, β) at most once per run. The
/// (grid point, q) space is split between the three timed phases by a
/// seeded hash, and each phase walks its share in a seeded order. The
/// closed-loop capacity phase draws as fast as the daemon answers, so it
/// gets the largest share (room for a build ~2× faster than the one the
/// rates were set on); the open phases draw at fixed rates. A fixed share
/// of requests asks for a vertex outside the (α,β)-core (an empty answer).
class UniqueStream : public RequestStream {
 public:
  static constexpr double kRejectShare = 0.05;

  /// `slot` is 0, 1 or 2 for capacity, light and heavy. `part_seed` is
  /// shared by the run's phases (it splits the space between them);
  /// `seed` orders this phase's share.
  UniqueStream(const DatasetView& data, int slot, uint64_t part_seed,
               uint64_t seed)
      : graph_(data.graph),
        grid_(MakeGrid(data)),
        rng_(seed),
        slot_(slot),
        part_seed_(part_seed) {
    const uint32_t n = graph_->NumVertices();
    for (std::size_t gi = 0; gi < grid_.size(); ++gi) {
      std::vector<VertexId> mine;
      std::vector<uint8_t> member(n, 0);
      for (const VertexId q : grid_[gi].members) {
        member[q] = 1;
        if (Slot(part_seed, gi, q) == slot) mine.push_back(q);
      }
      rng_.Shuffle(mine);
      size_ += mine.size();
      pools_.push_back(std::move(mine));
      members_.push_back(std::move(member));
    }
  }

  bool Next(WireRequest* out) override {
    // Fixed method shares (percent): retrieval 75, SCS 25.
    static constexpr struct {
      WireMethod method;
      uint32_t share;
    } kShares[] = {
        {WireMethod::kDelta, 40},     {WireMethod::kBicore, 25},
        {WireMethod::kOnline, 10},    {WireMethod::kScsAuto, 10},
        {WireMethod::kScsPeel, 5},    {WireMethod::kScsExpand, 5},
        {WireMethod::kScsBinary, 5},
    };
    uint64_t pick = rng_.NextBounded(100);
    WireMethod method = WireMethod::kDelta;
    for (const auto& s : kShares) {
      if (pick < s.share) {
        method = s.method;
        break;
      }
      pick -= s.share;
    }
    const bool reject = rng_.NextDouble() < kRejectShare;
    for (int tries = 0; tries < 64; ++tries) {
      const std::size_t gi = rng_.NextBounded(grid_.size());
      const GridPoint& p = grid_[gi];
      if (!reject) {
        if (pools_[gi].empty()) continue;
        const VertexId q = pools_[gi].back();
        pools_[gi].pop_back();
        *out = MakeQuery(*graph_, method, q, p.alpha, p.beta);
        return true;
      }
      const VertexId q =
          static_cast<VertexId>(rng_.NextBounded(graph_->NumVertices()));
      if (members_[gi][q] || Slot(part_seed_, gi, q) != slot_ ||
          !used_rejects_.insert((static_cast<uint64_t>(gi) << 32) | q)
               .second) {
        continue;
      }
      *out = MakeQuery(*graph_, method, q, p.alpha, p.beta);
      return true;
    }
    // Random picks keep missing: take any member still unused.
    for (std::size_t gi = 0; gi < grid_.size(); ++gi) {
      if (pools_[gi].empty()) continue;
      const VertexId q = pools_[gi].back();
      pools_[gi].pop_back();
      *out = MakeQuery(*graph_, method, q, grid_[gi].alpha, grid_[gi].beta);
      return true;
    }
    return false;  // every pool exhausted
  }

  std::size_t Size() const override { return size_; }

 private:
  /// Shares of the space in percent: capacity 68, light 13, heavy 19.
  static int Slot(uint64_t part_seed, std::size_t gi, VertexId q) {
    const uint64_t x =
        SplitMix(part_seed ^ (static_cast<uint64_t>(gi) << 40) ^ q) % 100;
    return x < 68 ? 0 : x < 81 ? 1 : 2;
  }

  const abcs::BipartiteGraph* graph_;
  std::vector<GridPoint> grid_;
  abcs::Rng rng_;
  int slot_;
  uint64_t part_seed_;
  std::vector<std::vector<VertexId>> pools_;
  std::size_t size_ = 0;
  std::vector<std::vector<uint8_t>> members_;
  std::unordered_set<uint64_t> used_rejects_;
};

class MethodOverrideStream : public RequestStream {
 public:
  MethodOverrideStream(std::unique_ptr<RequestStream> inner,
                       WireMethod method)
      : inner_(std::move(inner)), method_(method) {}
  bool Next(WireRequest* out) override {
    if (!inner_->Next(out)) return false;
    out->method = method_;
    return true;
  }

 private:
  std::unique_ptr<RequestStream> inner_;
  WireMethod method_;
};

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kWarm:
      return "warm";
    case Phase::kCapacity:
      return "capacity";
    case Phase::kLight:
      return "light";
    case Phase::kHeavy:
      return "heavy";
    case Phase::kVerify:
      return "verify";
  }
  return "?";
}

std::vector<WorkloadSpec> AllWorkloads(bool tiny) {
  std::vector<WorkloadSpec> all = {
      // Repeat-heavy traffic on DTI: the memo answers nearly everything,
      // so framing, admission and transport do the work.
      {"hot_repeat", "DTI", "raw", 15000, 35000, 8, 0, 0, 0},
      // Unique (q, α, β) over all seven methods on a max-compressed DTI
      // bundle: kernel-bound, heavy-tailed, memo bypassed.
      {"cold_mix", "DTI", "max", 100, 140, 4, 0, 0, 0},
      // The same traffic on the raw DTI bundle, opened through verified
      // mmap: set-up maps and checksums instead of decoding, and queries
      // read the zero-copy sections.
      {"cold_raw", "DTI", "raw", 100, 140, 4, 0, 0, 0},
      // PA from text with live updates: reads beside the snapshot writer.
      {"live_churn", "PA", "text", 100, 180, 4, 10, 10, 20},
  };
  if (tiny) {
    for (WorkloadSpec& w : all) {
      w.dataset = "BS";
      w.light_qps /= 4;
      w.heavy_qps /= 4;
      w.min_epochs = 0;
    }
  }
  return all;
}

std::unique_ptr<RequestStream> MakeReadStream(const WorkloadSpec& spec,
                                              const DatasetView& data,
                                              Phase phase, uint64_t seed) {
  const uint64_t phase_seed =
      StreamSeed(seed, spec.name, static_cast<int>(phase));
  if (spec.name == "hot_repeat") {
    // A few thousand keys over delta, bicore and scs-auto; one key set
    // per seed, shared by every phase.
    std::vector<WireRequest> keys = MakeKeySet(
        data, {WireMethod::kDelta, WireMethod::kBicore, WireMethod::kScsAuto},
        3000, StreamSeed(seed, spec.name, 100));
    if (phase == Phase::kWarm) {
      return std::make_unique<KeyListStream>(std::move(keys));
    }
    return std::make_unique<ZipfStream>(std::move(keys), 1.0, phase_seed);
  }
  if (spec.name == "cold_mix" || spec.name == "cold_raw") {
    // Warm-up and verification are unused here; they share heavy's part.
    const int slot = phase == Phase::kCapacity ? 0
                     : phase == Phase::kLight  ? 1
                                               : 2;
    return std::make_unique<UniqueStream>(data, slot,
                                          StreamSeed(seed, spec.name, 200),
                                          phase_seed);
  }
  // live_churn: moderate repetition — a larger key set, flatter skew.
  std::vector<WireRequest> keys = MakeKeySet(
      data, {WireMethod::kDelta, WireMethod::kBicore, WireMethod::kScsAuto},
      4000, StreamSeed(seed, spec.name, 100));
  if (phase == Phase::kVerify) {
    keys.resize(std::min<std::size_t>(keys.size(), 600));
    return std::make_unique<KeyListStream>(std::move(keys));
  }
  return std::make_unique<ZipfStream>(std::move(keys), 0.8, phase_seed);
}

std::unique_ptr<RequestStream> MakeProbeStream(const WorkloadSpec& spec,
                                               const DatasetView& data,
                                               WireMethod method,
                                               uint64_t seed) {
  return std::make_unique<MethodOverrideStream>(
      MakeReadStream(spec, data, Phase::kLight, seed), method);
}

// ---------------------------------------------------------------------------
// UpdateStream
// ---------------------------------------------------------------------------

UpdateStream::UpdateStream(const abcs::BipartiteGraph& g,
                           unsigned commit_every, uint64_t seed)
    : num_upper_(g.NumUpper()),
      num_lower_(g.NumLower()),
      commit_every_(commit_every),
      rng_(StreamSeed(seed, "writer", 0)) {
  present_.reserve(g.NumEdges());
  index_.reserve(g.NumEdges());
  for (abcs::EdgeId e = 0; e < g.NumEdges(); ++e) {
    const abcs::Edge& ed = g.GetEdge(e);
    AddPresent({ed.u, ed.v - num_upper_, ed.w});
  }
}

void UpdateStream::AddPresent(const EdgeRec& e) {
  index_[Key(e.u, e.v)] = present_.size();
  present_.push_back(e);
}

UpdateStream::EdgeRec UpdateStream::RemoveAt(std::size_t i) {
  const EdgeRec e = present_[i];
  index_.erase(Key(e.u, e.v));
  if (i + 1 != present_.size()) {
    present_[i] = present_.back();
    index_[Key(present_[i].u, present_[i].v)] = i;
  }
  present_.pop_back();
  return e;
}

double UpdateStream::NewWeight() { return 1.0 + 99.0 * rng_.NextDouble(); }

WireRequest UpdateStream::NextOp() {
  WireRequest r;
  r.type = abcs::serve::MessageType::kUpdate;
  // A topology batch opens with one remove + reinsert pair and fills up
  // with reweights: a topology op costs the maintenance path ~1000× a
  // reweight, so whole batches of them would outrun any fixed op rate.
  const bool topology = batch_ % 2 == 1;
  const unsigned pos = ops_in_batch_++;
  if (topology && pos == 0) {
    EdgeRec e = RemoveAt(rng_.NextBounded(present_.size()));
    removed_cur_.push_back(e);
    r.op = abcs::serve::UpdateOp::kRemoveEdge;
    r.u = e.u;
    r.v = e.v;
    return r;
  }
  if (topology && pos == 1 && !removed_prev_.empty()) {
    EdgeRec e = removed_prev_.back();
    removed_prev_.pop_back();
    e.w = NewWeight();
    AddPresent(e);
    r.op = abcs::serve::UpdateOp::kInsertEdge;
    r.u = e.u;
    r.v = e.v;
    r.weight = e.w;
    return r;
  }
  EdgeRec& e = present_[rng_.NextBounded(present_.size())];
  e.w = NewWeight();
  r.op = abcs::serve::UpdateOp::kReweightEdge;
  r.u = e.u;
  r.v = e.v;
  r.weight = e.w;
  return r;
}

WireRequest UpdateStream::Commit() {
  WireRequest r;
  r.type = abcs::serve::MessageType::kUpdate;
  r.op = abcs::serve::UpdateOp::kCommit;
  if (batch_ % 2 == 1) {
    removed_prev_.insert(removed_prev_.end(), removed_cur_.begin(),
                         removed_cur_.end());
    removed_cur_.clear();
  }
  ops_in_batch_ = 0;
  ++batch_;
  return r;
}

abcs::Status UpdateStream::BuildGraph(abcs::BipartiteGraph* out) const {
  abcs::GraphBuilder builder;
  builder.Reserve(num_upper_, num_lower_, present_.size());
  for (const EdgeRec& e : present_) builder.AddEdge(e.u, e.v, e.w);
  return builder.Build(out);
}

}  // namespace perfbench
