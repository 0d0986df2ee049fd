#pragma once

#include <cstddef>
#include <vector>

#include "brain/routing_graph.h"

// Builds small routing graphs for tests the way GlobalRouting does: fill
// a dense weight matrix, then hand it to RoutingGraph::rebuild_from.
namespace livenet::brain {

struct TestEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  double w = 0.0;
};

inline RoutingGraph make_graph(std::size_t n,
                               const std::vector<TestEdge>& edges) {
  std::vector<double> cells(n * n, RoutingGraph::kNoEdge);
  for (const TestEdge& e : edges) cells[e.a * n + e.b] = e.w;
  RoutingGraph g(n);
  g.rebuild_from(n, &cells);
  return g;
}

}  // namespace livenet::brain
