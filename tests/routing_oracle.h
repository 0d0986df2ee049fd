#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "brain/global_discovery.h"
#include "brain/global_routing.h"
#include "brain/ksp.h"
#include "brain/pib.h"
#include "brain/routing_graph.h"

// Routing oracles: the original per-pair heap implementations of
// shortest path, shortest-path tree, Yen KSP and the Global Routing
// cycle, preserved verbatim. The production pipeline in src/brain must
// reproduce them bit for bit (same paths, same order, same double
// costs); the differential tests assert that and the routing
// microbenchmark times them for like-for-like speedups. Also here:
// k_shortest_paths(), a one-pair wrapper over the production solver
// that only tests call.
namespace livenet::brain {

std::optional<WeightedPath> shortest_path_reference(
    const RoutingGraph& g, std::size_t src, std::size_t dst,
    const std::vector<bool>* banned_nodes = nullptr,
    const std::vector<std::pair<std::size_t, std::size_t>>* banned_edges =
        nullptr);

/// Single-source shortest-path tree (run to completion, no bans).
/// Relaxation order matches shortest_path_reference() exactly, so the
/// path read off the tree for any dst is identical to a per-pair call.
struct ShortestPathTree {
  std::vector<double> dist;       ///< +infinity when unreachable
  std::vector<std::size_t> prev;  ///< g.size() for root/unreachable

  /// Reconstructs src..dst (empty when dst is unreachable).
  std::optional<WeightedPath> path_to(std::size_t src, std::size_t dst) const;
};

ShortestPathTree shortest_path_tree_reference(const RoutingGraph& g,
                                              std::size_t src);

std::vector<WeightedPath> k_shortest_paths_reference(const RoutingGraph& g,
                                                     std::size_t src,
                                                     std::size_t dst,
                                                     std::size_t k);

/// Yen's K shortest loopless paths for one pair, solved by the
/// production KspSolver on a fresh solver (the one-shot form the unit
/// and differential tests query). Returns up to k paths sorted by cost
/// (fewer if the graph does not admit k distinct paths).
std::vector<WeightedPath> k_shortest_paths(const RoutingGraph& g,
                                           std::size_t src, std::size_t dst,
                                           std::size_t k);

/// One Global Routing cycle solved pair by pair with the reference KSP:
/// GlobalRouting(cfg).recompute() on a fresh Pib must install
/// byte-identical contents. Phase timings in the result stay zero.
GlobalRouting::Result recompute_reference(
    const GlobalRoutingConfig& cfg, const GlobalDiscovery& view,
    const std::vector<sim::NodeId>& nodes,
    const std::vector<sim::NodeId>& last_resort_nodes, Pib* pib);

}  // namespace livenet::brain
