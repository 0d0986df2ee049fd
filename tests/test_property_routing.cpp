#include <gtest/gtest.h>

#include <set>

#include "brain/global_routing.h"
#include "brain/ksp.h"
#include "graph_builder.h"
#include "routing_oracle.h"
#include "util/rng.h"

// Property-style sweeps over the routing stack: invariants of Yen's
// KSP and the Global Routing recompute across random graphs.
namespace livenet::brain {
namespace {

RoutingGraph random_graph(std::size_t n, double density, Rng& rng) {
  std::vector<TestEdge> edges;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      if (rng.chance(density)) {
        edges.push_back({a, b, rng.uniform(1.0, 100.0)});
      }
    }
  }
  return make_graph(n, edges);
}

double path_cost(const RoutingGraph& g, const std::vector<std::size_t>& p) {
  double c = 0.0;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    c += g.weight(p[i], p[i + 1]);
  }
  return c;
}

class KspRandomGraphs : public ::testing::TestWithParam<int> {};

TEST_P(KspRandomGraphs, PathsValidLooplessSortedDistinct) {
  Rng rng(1000 + GetParam());
  const std::size_t n = 12;
  const RoutingGraph g = random_graph(n, 0.5, rng);

  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const auto paths = k_shortest_paths(g, src, dst, 4);
      std::set<std::vector<std::size_t>> seen;
      double prev_cost = 0.0;
      for (const auto& wp : paths) {
        // Endpoints correct.
        ASSERT_GE(wp.nodes.size(), 2u);
        EXPECT_EQ(wp.nodes.front(), src);
        EXPECT_EQ(wp.nodes.back(), dst);
        // Edges exist and the cost is consistent.
        for (std::size_t i = 0; i + 1 < wp.nodes.size(); ++i) {
          ASSERT_TRUE(g.has_edge(wp.nodes[i], wp.nodes[i + 1]));
        }
        EXPECT_NEAR(wp.cost, path_cost(g, wp.nodes), 1e-9);
        // Loopless.
        const std::set<std::size_t> uniq(wp.nodes.begin(), wp.nodes.end());
        EXPECT_EQ(uniq.size(), wp.nodes.size());
        // Sorted by cost, distinct.
        EXPECT_GE(wp.cost, prev_cost - 1e-9);
        prev_cost = wp.cost;
        EXPECT_TRUE(seen.insert(wp.nodes).second);
      }
      // First path agrees with plain Dijkstra.
      const auto sp = shortest_path_reference(g, src, dst);
      if (sp.has_value()) {
        ASSERT_FALSE(paths.empty());
        EXPECT_NEAR(paths[0].cost, sp->cost, 1e-9);
      } else {
        EXPECT_TRUE(paths.empty());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KspRandomGraphs,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class RecomputeRandomViews : public ::testing::TestWithParam<int> {};

TEST_P(RecomputeRandomViews, ConstraintsHoldOnInstalledPaths) {
  Rng rng(2000 + GetParam());
  const int n = 14;
  GlobalDiscovery view;
  std::vector<bool> overloaded(static_cast<std::size_t>(n), false);
  for (int a = 0; a < n; ++a) {
    overlay::NodeStateReport rep;
    rep.node = a;
    rep.node_load = rng.uniform(0.0, 1.0);
    overloaded[static_cast<std::size_t>(a)] = rep.node_load >= 0.8;
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      overlay::LinkReport lr;
      lr.to = b;
      lr.rtt = static_cast<Duration>(rng.uniform(5.0, 250.0) *
                                     static_cast<double>(kMs));
      lr.loss_rate = rng.uniform(0.0, 0.01);
      lr.utilization = rng.uniform(0.0, 0.6);
      rep.links.push_back(lr);
    }
    view.on_report(rep, 0, nullptr);
  }

  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(i);
  GlobalRouting routing;
  Pib pib;
  const auto res = routing.recompute(view, nodes, {}, &pib);
  EXPECT_EQ(res.pairs, static_cast<std::size_t>(n) * (n - 1));

  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const auto* paths = pib.find(a, b);
      ASSERT_NE(paths, nullptr);
      EXPECT_LE(paths->size(), 3u);
      for (const auto& p : *paths) {
        EXPECT_LE(overlay::path_length(p), 3);  // constraint (iii)
        EXPECT_EQ(p.front(), a);
        EXPECT_EQ(p.back(), b);
        for (std::size_t i = 1; i + 1 < p.size(); ++i) {
          // constraint (ii): no overloaded relays.
          EXPECT_FALSE(overloaded[static_cast<std::size_t>(p[i])])
              << "overloaded relay " << p[i] << " on " <<
                 overlay::to_string(p);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecomputeRandomViews,
                         ::testing::Values(1, 2, 3, 4));

TEST(LastResort, AlwaysTwoHopsThroughReservedNode) {
  Rng rng(77);
  const int n = 10;
  GlobalDiscovery view;
  for (int a = 0; a < n + 2; ++a) {
    overlay::NodeStateReport rep;
    rep.node = a;
    rep.node_load = 0.2;
    for (int b = 0; b < n + 2; ++b) {
      if (a == b) continue;
      overlay::LinkReport lr;
      lr.to = b;
      lr.rtt = static_cast<Duration>(rng.uniform(5.0, 100.0) *
                                     static_cast<double>(kMs));
      lr.utilization = 0.1;
      rep.links.push_back(lr);
    }
    view.on_report(rep, 0, nullptr);
  }
  std::vector<sim::NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(i);
  GlobalRouting routing;
  Pib pib;
  routing.recompute(view, nodes, {n, n + 1}, &pib);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const overlay::Path lr = pib.last_resort(a, b);
      ASSERT_EQ(lr.size(), 3u);
      EXPECT_TRUE(lr[1] == n || lr[1] == n + 1);
    }
  }
}

}  // namespace
}  // namespace livenet::brain
