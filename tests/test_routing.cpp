#include <gtest/gtest.h>

#include <set>

#include "brain/global_routing.h"
#include "brain/ksp.h"
#include "brain/routing_graph.h"
#include "graph_builder.h"
#include "routing_oracle.h"

namespace livenet::brain {
namespace {

TEST(Weights, PenaltyRangesFromOneToTwo) {
  EXPECT_NEAR(utilization_penalty(0.0), 1.0, 0.01);
  EXPECT_NEAR(utilization_penalty(1.0), 2.0, 0.01);
  EXPECT_NEAR(utilization_penalty(0.8), 1.5, 0.01);  // beta midpoint
}

TEST(Weights, PenaltySharpAroundBeta) {
  // alpha=0.5 in percent units: 10 points below beta ~ 1, above ~ 2.
  EXPECT_LT(utilization_penalty(0.70), 1.01);
  EXPECT_GT(utilization_penalty(0.90), 1.99);
}

TEST(Weights, LinkWeightExpectedRttWithLoss) {
  LinkState ls;
  ls.rtt = 100 * kMs;
  ls.loss_rate = 0.1;
  ls.utilization = 0.0;
  // Expected RTT = 0.1*200ms + 0.9*100ms = 110ms, penalty ~ 1.
  EXPECT_NEAR(link_weight(ls, 0.0, 0.0),
              110.0 * static_cast<double>(kMs), 2000.0);
}

TEST(Weights, NodeUtilizationDominatesLinkUtilization) {
  LinkState ls;
  ls.rtt = 100 * kMs;
  ls.loss_rate = 0.0;
  ls.utilization = 0.1;
  const double calm = link_weight(ls, 0.1, 0.1);
  const double hot = link_weight(ls, 0.95, 0.1);
  EXPECT_GT(hot, 1.8 * calm);
}

RoutingGraph diamond() {
  //     1
  //   /   \      0->1->3 costs 10 + 10
  //  0     3     plus a direct slow edge 0->3 (50)
  //   \   /      0->2->3 costs 12 + 12
  //     2
  return make_graph(4, {{0, 1, 10}, {1, 3, 10}, {0, 2, 12}, {2, 3, 12},
                        {0, 3, 50}});
}

TEST(Dijkstra, FindsShortestPath) {
  const auto p = k_shortest_paths(diamond(), 0, 3, 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].nodes, (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(p[0].cost, 20.0);
}

TEST(Dijkstra, NoPathReturnsEmpty) {
  const RoutingGraph g = make_graph(3, {{0, 1, 1}});
  EXPECT_TRUE(k_shortest_paths(g, 0, 2, 1).empty());
}

TEST(Dijkstra, TrivialSelfPath) {
  const auto p = k_shortest_paths(diamond(), 2, 2, 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(p[0].cost, 0.0);
}

TEST(Yen, ReturnsKDistinctPathsInCostOrder) {
  const auto paths = k_shortest_paths(diamond(), 0, 3, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].cost, 20.0);
  EXPECT_DOUBLE_EQ(paths[1].cost, 24.0);
  EXPECT_DOUBLE_EQ(paths[2].cost, 50.0);
  EXPECT_EQ(paths[0].nodes, (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(paths[2].nodes, (std::vector<std::size_t>{0, 3}));
}

TEST(Yen, PathsAreLoopless) {
  std::vector<TestEdge> edges;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) {
        edges.push_back({i, j, 1.0 + static_cast<double>((i * 7 + j) % 5)});
      }
    }
  }
  const RoutingGraph g = make_graph(5, edges);
  const auto paths = k_shortest_paths(g, 0, 4, 5);
  for (const auto& p : paths) {
    std::set<std::size_t> seen(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(seen.size(), p.nodes.size());
  }
}

TEST(Yen, FewerPathsWhenGraphIsSparse) {
  const RoutingGraph g = make_graph(3, {{0, 1, 1}, {1, 2, 1}});
  const auto paths = k_shortest_paths(g, 0, 2, 3);
  EXPECT_EQ(paths.size(), 1u);
}

GlobalDiscovery make_view(int n, Duration rtt = 20 * kMs) {
  GlobalDiscovery view;
  for (int a = 0; a < n; ++a) {
    overlay::NodeStateReport rep;
    rep.node = a;
    rep.node_load = 0.1;
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      overlay::LinkReport lr;
      lr.to = b;
      lr.rtt = rtt + static_cast<Duration>(a + b) * kMs;
      lr.loss_rate = 0.001;
      lr.utilization = 0.1;
      rep.links.push_back(lr);
    }
    view.on_report(rep, 0, nullptr);
  }
  return view;
}

TEST(GlobalRouting, InstallsKPathsPerPair) {
  auto view = make_view(5);
  GlobalRouting routing;
  Pib pib;
  const auto res = routing.recompute(view, {0, 1, 2, 3, 4}, {}, &pib);
  EXPECT_EQ(res.pairs, 20u);
  const auto* paths = pib.find(0, 4);
  ASSERT_NE(paths, nullptr);
  EXPECT_EQ(paths->size(), 3u);
  // All paths obey the hop bound.
  for (const auto& p : *paths) {
    EXPECT_LE(overlay::path_length(p), 3);
  }
}

TEST(GlobalRouting, OverloadedRelayExcluded) {
  auto view = make_view(4);
  // Make node 1 overloaded.
  overlay::NodeStateReport rep;
  rep.node = 1;
  rep.node_load = 0.95;
  for (int b = 0; b < 4; ++b) {
    if (b == 1) continue;
    overlay::LinkReport lr;
    lr.to = b;
    lr.rtt = 20 * kMs;
    lr.loss_rate = 0.001;
    lr.utilization = 0.1;
    rep.links.push_back(lr);
  }
  view.on_report(rep, 0, nullptr);

  GlobalRouting routing;
  Pib pib;
  routing.recompute(view, {0, 1, 2, 3}, {}, &pib);
  const auto* paths = pib.find(0, 3);
  ASSERT_NE(paths, nullptr);
  for (const auto& p : *paths) {
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      EXPECT_NE(p[i], 1);  // node 1 never appears as a relay
    }
  }
}

TEST(GlobalRouting, LastResortInstalledViaReservedRelay) {
  auto view = make_view(4);
  // Node 3 (reserved) reports links; routing over {0,1,2} only.
  GlobalRouting routing;
  Pib pib;
  routing.recompute(view, {0, 1, 2}, {3}, &pib);
  const overlay::Path lr = pib.last_resort(0, 2);
  ASSERT_EQ(lr.size(), 3u);
  EXPECT_EQ(lr[1], 3);  // via the reserved node, 2 hops
}

TEST(Pib, InvalidationFiltersPaths) {
  Pib pib;
  pib.set_paths(0, 2, {{0, 1, 2}, {0, 3, 2}});
  EXPECT_EQ(pib.valid_paths(0, 2).size(), 2u);
  pib.mark_node_overloaded(1);
  const auto valid = pib.valid_paths(0, 2);
  ASSERT_EQ(valid.size(), 1u);
  EXPECT_EQ(valid[0][1], 3);
  pib.clear_node_overloaded(1);
  EXPECT_EQ(pib.valid_paths(0, 2).size(), 2u);
}

TEST(Pib, EndpointOverloadDoesNotInvalidate) {
  Pib pib;
  pib.set_paths(0, 2, {{0, 1, 2}});
  pib.mark_node_overloaded(0);
  pib.mark_node_overloaded(2);
  EXPECT_EQ(pib.valid_paths(0, 2).size(), 1u);
}

TEST(Pib, LinkOverloadInvalidates) {
  Pib pib;
  pib.set_paths(0, 2, {{0, 1, 2}});
  pib.mark_link_overloaded(1, 2);
  EXPECT_TRUE(pib.valid_paths(0, 2).empty());
}

}  // namespace
}  // namespace livenet::brain
