// Team formation (paper §I, "Applications"): developers and projects form a
// bipartite graph; the edge weight counts tasks a developer completed for a
// project. Querying a key developer with the significant (α,β)-community
// assembles a team with a proven track record: every member has made at
// least f(R) contributions to every community project they touch.

#include <cstdio>
#include <set>

#include "common/rng.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/graph_builder.h"

int main() {
  // Three overlapping product areas; each area has a core team that
  // contributes heavily, plus many drive-by contributors.
  const uint32_t kAreas = 3;
  const uint32_t kCorePerArea = 12, kProjectsPerArea = 8;
  const uint32_t kDriveBy = 500;
  abcs::Rng rng(99);
  abcs::GraphBuilder builder;

  uint32_t dev = 0;
  for (uint32_t area = 0; area < kAreas; ++area) {
    for (uint32_t k = 0; k < kCorePerArea; ++k, ++dev) {
      for (uint32_t p = 0; p < kProjectsPerArea; ++p) {
        // Core developers close 10–60 tasks on most area projects.
        if (rng.NextBounded(100) < 85) {
          builder.AddEdge(dev, area * kProjectsPerArea + p,
                          10.0 + rng.NextBounded(51));
        }
      }
      // Occasional cross-area help, smaller contributions.
      builder.AddEdge(dev,
                      static_cast<uint32_t>(
                          rng.NextBounded(kAreas * kProjectsPerArea)),
                      1.0 + rng.NextBounded(5));
    }
  }
  for (uint32_t k = 0; k < kDriveBy; ++k, ++dev) {
    const uint32_t patches = 1 + rng.NextBounded(3);
    for (uint32_t i = 0; i < patches; ++i) {
      builder.AddEdge(dev,
                      static_cast<uint32_t>(
                          rng.NextBounded(kAreas * kProjectsPerArea)),
                      1.0 + rng.NextBounded(4));
    }
  }

  abcs::BipartiteGraph g;
  abcs::Status st =
      builder.Build(&g, abcs::GraphBuilder::DuplicatePolicy::kSum);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("developer-project graph: %u devs, %u projects, %u edges\n",
              g.NumUpper(), g.NumLower(), g.NumEdges());

  // The hiring manager queries developer 0 (a core dev of area 0), asking
  // for a team where each member worked on ≥ 4 common projects and each
  // project has ≥ 4 team members.
  const abcs::VertexId lead = 0;
  const uint32_t alpha = 4, beta = 4;
  const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g);
  const abcs::Subgraph community = index.QueryCommunity(lead, alpha, beta);
  std::printf("(%u,%u)-community around dev0: %zu contribution edges\n",
              alpha, beta, community.Size());

  const abcs::ScsResult team =
      abcs::ScsQuery(g, community, lead, alpha, beta, abcs::ScsAlgo::kExpand);
  if (!team.found) {
    std::printf("no qualifying team\n");
    return 0;
  }
  std::set<abcs::VertexId> devs, projects;
  for (abcs::EdgeId e : team.community.edges) {
    devs.insert(g.GetEdge(e).u);
    projects.insert(g.GetEdge(e).v);
  }
  std::printf(
      "team: %zu developers over %zu projects; every kept contribution "
      "has ≥ %.0f completed tasks\n",
      devs.size(), projects.size(), team.significance);
  uint32_t core_members = 0;
  for (abcs::VertexId d : devs) core_members += (d < kAreas * kCorePerArea);
  std::printf("planted core developers recovered: %u / %zu team members\n",
              core_members, devs.size());
  return 0;
}
