#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "brain/global_discovery.h"
#include "brain/ksp.h"
#include "brain/pib.h"
#include "brain/routing_graph.h"
#include "util/thread_pool.h"

// Global Routing module (paper §4.3): every cycle (10 minutes in
// production), rebuild the abstracted graph from the Global Discovery
// view, run KSP (k = 3) for every node pair, filter paths violating the
// constraints (> 3 hops, overloaded links/nodes), and install the
// result in the PIB. Pairs left with no valid path get a last-resort
// path through one of the reserved, well-connected last-resort nodes.
//
// The solve pipeline is batched per source (one KspSolver amortizes
// shortest-path trees across every destination) and installs through a
// double-buffered scratch Pib that is swapped in atomically at the end
// of the cycle, so stale pairs age out and readers never observe a
// half-installed cycle.
//
// Parallel Brain (DESIGN.md): the per-source solves fan out over a
// persistent worker pool of `threads` workers (a pool of 1 runs on the
// caller alone). Every source is an independent subproblem, each worker
// owns its own solver (scratch, arenas, tree caches), and worker
// outputs are buffered and merged into the scratch Pib in source-index
// order — so the installed routes are byte-for-byte identical for ANY
// thread count. The weight graph and the per-worker solvers live
// across cycles and keep their allocations; every cycle rebuilds the
// graph and the solvers' trees from the fresh view. The per-source
// outputs are freed one source at a time as the merge consumes them.
namespace livenet::brain {

struct GlobalRoutingConfig {
  std::size_t k = 3;           ///< candidate paths per pair
  int max_hops = 3;            ///< constraint (iii)
  double overload_threshold = 0.8;  ///< constraints (i)/(ii) proxy
  /// Worker threads for the per-source KSP fan-out, the caller
  /// included: 1 (the default) spawns no thread. Output is
  /// byte-identical for every value.
  std::size_t threads = 1;
};

class GlobalRouting {
 public:
  struct Result {
    std::size_t pairs = 0;            ///< all (src, dst) pairs this cycle
    std::size_t paths_installed = 0;  ///< kept candidate paths (solved pairs)
    std::size_t last_resort_pairs = 0;
    std::size_t pairs_solved = 0;
    std::size_t sources_solved = 0;
    // Wall-clock phase split (telemetry; zero for recompute_reference).
    // graph_build covers view -> weight graph plus the per-cycle
    // constraint tables; solve is the wall time of the per-source KSP
    // fan-out; install is the ordered merge plus the double-buffer
    // swap.
    double graph_build_ms = 0.0;
    double solve_ms = 0.0;
    double install_ms = 0.0;
  };

  /// Output of one source solve: everything the ordered install phase
  /// needs to replay the source's Pib writes.
  struct SourceOutput {
    std::vector<std::vector<overlay::Path>> kept_by_dst;  ///< size n
    std::vector<std::uint32_t> fallback;  ///< relay index; lr_count = none
    std::size_t paths_installed = 0;
    std::size_t last_resort_pairs = 0;
  };

  GlobalRouting() : GlobalRouting(GlobalRoutingConfig()) {}
  explicit GlobalRouting(const GlobalRoutingConfig& cfg) : cfg_(cfg) {}

  /// `nodes`: the regular overlay nodes; `last_resort_nodes`: the
  /// reserved relays (excluded from regular routing). Installs paths
  /// into `pib`. Non-const: the module carries the double-buffer
  /// scratch and the graph/solver allocations across cycles.
  Result recompute(const GlobalDiscovery& view,
                   const std::vector<sim::NodeId>& nodes,
                   const std::vector<sim::NodeId>& last_resort_nodes,
                   Pib* pib);

  /// Builds the abstracted weight graph over `nodes` (exposed for tests
  /// and the routing microbenchmark).
  RoutingGraph build_graph(const GlobalDiscovery& view,
                           const std::vector<sim::NodeId>& nodes) const;

  const GlobalRoutingConfig& config() const { return cfg_; }

 private:
  /// Fills the dense n*n weight matrix for `nodes` by walking the
  /// Discovery link table once (O(nodes + links) hash probes instead
  /// of the old O(n^2) per-pair link() probing). `idx_of` maps node id
  /// -> dense index, `loads` the per-index node loads.
  void fill_graph_cells(
      const GlobalDiscovery& view, const std::vector<sim::NodeId>& nodes,
      const std::unordered_map<sim::NodeId, std::size_t>& idx_of,
      const std::vector<double>& loads, std::vector<double>* cells) const;

  GlobalRoutingConfig cfg_;

  Pib scratch_;  ///< double buffer (see recompute())

  // The weight graph persists and is rebuilt in place every cycle. All
  // scratch below keeps its capacity for the lifetime of the module.
  RoutingGraph graph_{0};
  std::vector<double> cells_;  ///< rebuild fill buffer (swapped in/out)
  std::unordered_map<sim::NodeId, std::size_t> idx_of_;
  std::vector<double> loads_;
  std::vector<std::uint8_t> node_over_;
  std::vector<std::uint8_t> link_over_;
  std::vector<double> lr_to_;
  /// One entry per source. The install phase frees each source's
  /// buffers as soon as it is merged, so between cycles this holds n
  /// empty shells, and during the merge the solved pairs move into
  /// scratch_ instead of piling up next to it.
  std::vector<SourceOutput> outputs_;

  // Parallel fan-out: one solver per worker (index-aligned with the
  // pool's worker ids), created on first use, rebound every cycle.
  std::vector<KspSolver> workers_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace livenet::brain
