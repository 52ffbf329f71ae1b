#ifndef ABCS_GRAPH_GRAPH_BUILDER_H_
#define ABCS_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// \brief Accumulates weighted edges and materialises an immutable
/// `BipartiteGraph` in CSR form.
///
/// Edges are added with *layer-local* ids: upper ids in `[0, num_upper)`
/// and lower ids in `[0, num_lower)`; `Build()` translates lower ids into
/// the unified id space. Parallel edges are resolved per `DuplicatePolicy`.
class GraphBuilder {
 public:
  /// What to do when the same (u, v) pair is added twice.
  enum class DuplicatePolicy {
    kKeepMax,   ///< keep the largest weight (default; matches rating data)
    kKeepLast,  ///< last write wins
    kSum,       ///< accumulate weights (purchase counts)
    kError,     ///< Build() fails with InvalidArgument
  };

  GraphBuilder() = default;

  /// Pre-sizes the id space. Vertices above the ids actually used by edges
  /// still exist (with degree 0) unless `drop_isolated` is set at Build.
  void Reserve(uint32_t num_upper, uint32_t num_lower, std::size_t num_edges);

  /// Adds edge (upper `u`, lower `v`) with weight `w`. Grows the layer
  /// sizes as needed.
  void AddEdge(uint32_t u, uint32_t v, Weight w);

  /// Number of raw (pre-dedup) edges added so far.
  std::size_t NumPendingEdges() const { return us_.size(); }

  /// Materialises the CSR graph. On success `*out` holds the graph and the
  /// builder may be reused after `Clear()`. Fails with InvalidArgument when
  /// the unified id space (num_upper + num_lower vertices) would not fit
  /// below kInvalidVertex.
  Status Build(BipartiteGraph* out,
               DuplicatePolicy policy = DuplicatePolicy::kKeepMax) const;

  /// Discards all pending edges.
  void Clear();

 private:
  // 64-bit so that `id + 1` for the largest uint32_t id cannot wrap; Build
  // refuses layer sizes whose sum does not fit the unified id space.
  uint64_t num_upper_ = 0;
  uint64_t num_lower_ = 0;
  std::vector<uint32_t> us_;
  std::vector<uint32_t> vs_;
  std::vector<Weight> ws_;
};

}  // namespace abcs

#endif  // ABCS_GRAPH_GRAPH_BUILDER_H_
