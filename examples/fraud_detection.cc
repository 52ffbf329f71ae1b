// Fraud detection (paper §I, "Applications"): fraudsters and the items they
// promote form dense blocks in the customer–item graph, and — because fake
// accounts are expensive — each fraudulent account carries *many* purchases
// (high edge weights). The significant (α,β)-community of a suspicious
// vertex isolates the fraud ring while plain (α,β)-core search drags in
// organic heavy buyers (false positives).

#include <cstdio>
#include <set>

#include "common/rng.h"
#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "graph/graph_builder.h"

int main() {
  // Organic traffic: 3000 customers × 800 items, sparse, low purchase
  // counts. Fraud ring: 25 accounts pumping 15 items with heavy counts.
  const uint32_t kCustomers = 3000, kItems = 800;
  const uint32_t kRingAccounts = 25, kRingItems = 15;
  abcs::Rng rng(2024);
  abcs::GraphBuilder builder;
  builder.Reserve(kCustomers + kRingAccounts, kItems, 0);

  for (uint32_t c = 0; c < kCustomers; ++c) {
    const uint32_t purchases = 1 + rng.NextBounded(8);
    for (uint32_t i = 0; i < purchases; ++i) {
      builder.AddEdge(c, static_cast<uint32_t>(rng.NextBounded(kItems)),
                      1.0 + rng.NextBounded(3));
    }
  }
  // The ring: every fraud account buys every promoted item 20–40 times.
  // A few organic customers also touch the promoted items (noise).
  for (uint32_t f = 0; f < kRingAccounts; ++f) {
    for (uint32_t i = 0; i < kRingItems; ++i) {
      builder.AddEdge(kCustomers + f, i, 20.0 + rng.NextBounded(21));
    }
  }

  abcs::BipartiteGraph g;
  abcs::Status st =
      builder.Build(&g, abcs::GraphBuilder::DuplicatePolicy::kSum);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("customer-item graph: %u customers, %u items, %u edges\n",
              g.NumUpper(), g.NumLower(), g.NumEdges());

  const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g);
  std::printf("degeneracy delta = %u\n", index.delta());

  // A suspicious item was flagged (promoted item 0); search around it.
  const abcs::VertexId suspicious_item = g.LowerId(0);
  const uint32_t alpha = 10, beta = 10;
  const abcs::Subgraph community =
      index.QueryCommunity(suspicious_item, alpha, beta);
  const abcs::ScsResult ring =
      abcs::ScsQuery(g, community, suspicious_item, alpha, beta,
                     abcs::ScsAlgo::kPeel);
  if (!ring.found) {
    std::printf("no dense community around the flagged item\n");
    return 0;
  }

  std::set<abcs::VertexId> accounts, items;
  for (abcs::EdgeId e : ring.community.edges) {
    accounts.insert(g.GetEdge(e).u);
    items.insert(g.GetEdge(e).v);
  }
  uint32_t true_positives = 0;
  for (abcs::VertexId a : accounts) true_positives += (a >= kCustomers);
  std::printf(
      "significant (%u,%u)-community: %zu accounts (%u planted "
      "fraudsters), %zu items, min purchase weight %.0f\n",
      alpha, beta, accounts.size(), true_positives, items.size(),
      ring.significance);
  std::printf("precision on accounts: %.2f\n",
              accounts.empty()
                  ? 0.0
                  : static_cast<double>(true_positives) / accounts.size());
  return 0;
}
