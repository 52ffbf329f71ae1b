#include "graph/graph_builder.h"

#include <algorithm>
#include <numeric>

namespace abcs {

void GraphBuilder::Reserve(uint32_t num_upper, uint32_t num_lower,
                           std::size_t num_edges) {
  num_upper_ = std::max<uint64_t>(num_upper_, num_upper);
  num_lower_ = std::max<uint64_t>(num_lower_, num_lower);
  us_.reserve(num_edges);
  vs_.reserve(num_edges);
  ws_.reserve(num_edges);
}

void GraphBuilder::AddEdge(uint32_t u, uint32_t v, Weight w) {
  num_upper_ = std::max(num_upper_, uint64_t{u} + 1);
  num_lower_ = std::max(num_lower_, uint64_t{v} + 1);
  us_.push_back(u);
  vs_.push_back(v);
  ws_.push_back(w);
}

Status GraphBuilder::Build(BipartiteGraph* out,
                           DuplicatePolicy policy) const {
  if (num_upper_ + num_lower_ >= kInvalidVertex) {
    return Status::InvalidArgument(
        "vertex id space overflow: " + std::to_string(num_upper_) +
        " upper + " + std::to_string(num_lower_) +
        " lower vertices do not fit below kInvalidVertex");
  }
  const uint32_t nu = static_cast<uint32_t>(num_upper_);
  const uint32_t nl = static_cast<uint32_t>(num_lower_);
  const std::size_t raw = us_.size();

  // Sort edge indices by (u, v) to group duplicates.
  std::vector<uint32_t> order(raw);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (us_[a] != us_[b]) return us_[a] < us_[b];
    return vs_[a] < vs_[b];
  });

  std::vector<Edge> edges;
  edges.reserve(raw);
  for (std::size_t i = 0; i < raw;) {
    const uint32_t u = us_[order[i]];
    const uint32_t v = vs_[order[i]];
    Weight w = ws_[order[i]];
    std::size_t j = i + 1;
    while (j < raw && us_[order[j]] == u && vs_[order[j]] == v) {
      switch (policy) {
        case DuplicatePolicy::kKeepMax:
          w = std::max(w, ws_[order[j]]);
          break;
        case DuplicatePolicy::kKeepLast:
          if (order[j] > order[i]) w = ws_[order[j]];
          break;
        case DuplicatePolicy::kSum:
          w += ws_[order[j]];
          break;
        case DuplicatePolicy::kError:
          return Status::InvalidArgument("duplicate edge (" +
                                         std::to_string(u) + ", " +
                                         std::to_string(v) + ")");
      }
      ++j;
    }
    edges.push_back(Edge{u, nu + v, w});
    i = j;
  }

  BipartiteGraph g;
  g.num_upper_ = nu;
  g.num_lower_ = nl;

  const uint32_t n = nu + nl;
  const std::size_t m = edges.size();
  std::vector<uint32_t> offsets(n + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  std::vector<Arc> arcs(2 * m);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& ed = edges[e];
    arcs[cursor[ed.u]++] = Arc{ed.v, e};
    arcs[cursor[ed.v]++] = Arc{ed.u, e};
  }

  g.offsets_ = std::move(offsets);
  g.arcs_ = std::move(arcs);
  g.edges_ = std::move(edges);
  *out = std::move(g);
  return Status::OK();
}

void GraphBuilder::Clear() {
  num_upper_ = 0;
  num_lower_ = 0;
  us_.clear();
  vs_.clear();
  ws_.clear();
}

}  // namespace abcs
