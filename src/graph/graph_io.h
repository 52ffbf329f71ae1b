#ifndef ABCS_GRAPH_GRAPH_IO_H_
#define ABCS_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// \brief Loads a weighted bipartite edge list.
///
/// Format: one edge per line, `u v [w]`, whitespace separated. Lines
/// starting with `%` or `#` are comments (KONECT `out.*` files use `%`).
/// Ids are `zero_based ? 0-based : 1-based` (KONECT is 1-based). Missing
/// weights default to 1.0; columns after the weight (KONECT timestamps)
/// are ignored. Returns Corruption naming `path:line` for a malformed line,
/// a weight token that is not a finite number, a negative id, or ids whose
/// layer sizes would not fit the unified id space below kInvalidVertex.
Status LoadEdgeList(const std::string& path, BipartiteGraph* out,
                    bool zero_based = false);

/// Writes `g` as a 0-based `u v w` edge list readable by LoadEdgeList.
Status SaveEdgeList(const BipartiteGraph& g, const std::string& path);

}  // namespace abcs

#endif  // ABCS_GRAPH_GRAPH_IO_H_
