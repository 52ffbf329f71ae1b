#include "graph/graph_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/graph_builder.h"

namespace abcs {

Status LoadEdgeList(const std::string& path, BipartiteGraph* out,
                    bool zero_based) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  GraphBuilder builder;
  std::string line;
  std::size_t lineno = 0;
  long long max_u = -1, max_v = -1;
  auto corruption = [&](const char* what) {
    return Status::Corruption(path + ":" + std::to_string(lineno) + ": " +
                              what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ss(line);
    long long u = 0, v = 0;
    if (!(ss >> u >> v)) return corruption("malformed edge line");
    // The weight is optional (default 1.0), but a third token that is
    // present must be a finite number; columns after it (KONECT
    // timestamps) are ignored.
    double w = 1.0;
    std::string token;
    if (ss >> token) {
      std::istringstream ws(token);
      if (!(ws >> w) || ws.peek() != std::char_traits<char>::eof() ||
          !std::isfinite(w)) {
        return corruption("malformed edge weight");
      }
    }
    if (!zero_based) {
      --u;
      --v;
    }
    if (u < 0 || v < 0) return corruption("negative vertex id");
    // Every id must fit the unified id space: (max u + 1) + (max v + 1)
    // vertices below kInvalidVertex (GraphBuilder::Build's limit).
    max_u = std::max(max_u, u);
    max_v = std::max(max_v, v);
    if (max_u >= kInvalidVertex || max_v >= kInvalidVertex ||
        (max_u + 1) + (max_v + 1) >= kInvalidVertex) {
      return corruption("vertex id out of range");
    }
    builder.AddEdge(static_cast<uint32_t>(u), static_cast<uint32_t>(v), w);
  }
  return builder.Build(out);
}

Status SaveEdgeList(const BipartiteGraph& g, const std::string& path) {
  std::ofstream outf(path);
  if (!outf) return Status::IOError("cannot open " + path + " for writing");
  // Full round-trip precision for weights (ratings survive exactly; RWR
  // scores survive to the last bit).
  outf.precision(17);
  outf << "% abcs bipartite edge list: u v w (0-based layer-local ids)\n";
  for (const Edge& e : g.Edges()) {
    outf << e.u << ' ' << (e.v - g.NumUpper()) << ' ' << e.w << '\n';
  }
  if (!outf) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace abcs
