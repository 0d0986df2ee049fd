#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "brain/routing_graph.h"

// K-Shortest-Paths on the abstracted overlay graph (paper §4.3: "we
// find the k (k = 3) shortest paths between every pair of nodes using
// the K Shortest Paths (KSP) algorithm"). Yen's algorithm over a
// Dijkstra core, yielding loopless paths in non-decreasing cost order.
//
// KspSolver is the one implementation: an allocation-free array
// Dijkstra over the graph's CSR view (DijkstraWorkspace) plus a
// per-source batched Yen that shares one forward shortest-path tree
// across every destination and caches per-node trees for spur
// stitching. GlobalRouting runs it.
//
// The original per-pair heap implementation lives in the test tree as
// `*_reference` (tests/routing_oracle.h), the oracle of the
// differential tests. The solver is required to be *bit-identical* to
// it, including equal-cost tie-breaking, which pins down the shared
// discipline: nodes settle in ascending (dist, index) order, neighbors
// relax in ascending index order, and only strict improvements update
// dist/prev.
namespace livenet::brain {

struct WeightedPath {
  std::vector<std::size_t> nodes;  ///< src..dst inclusive
  double cost = 0.0;
};

/// Reusable buffers for the array-based Dijkstra core: per-pair and
/// per-spur calls stop allocating once the workspace has been sized to
/// the graph. The core selects the unsettled node with the smallest
/// (dist, index) by linear scan over the *frontier* — the list of
/// touched-but-unsettled nodes — which for the pruned spur fallback is
/// a handful of entries instead of all n, and provably settles nodes
/// in the same order as the reference lazy-deletion heap. The
/// dist/prev/settled arrays are kept at their baseline (+inf / n / 0)
/// between calls via the `touched` undo list, so a call resets O(work
/// done last time) cells instead of O(n).
struct DijkstraWorkspace {
  std::vector<double> dist;
  std::vector<std::uint32_t> prev;      ///< n = root/unreachable
  std::vector<std::uint8_t> settled;
  std::vector<std::uint8_t> banned_node;
  std::vector<std::uint32_t> banned_next;  ///< banned first hops (Yen spurs)
  std::vector<std::uint32_t> frontier;  ///< touched, not yet settled
  std::vector<std::uint32_t> touched;   ///< cells to reset next call

  void bind(std::size_t n) {
    dist.assign(n, std::numeric_limits<double>::infinity());
    prev.assign(n, static_cast<std::uint32_t>(n));
    settled.assign(n, 0);
    banned_node.assign(n, 0);
    banned_next.clear();
    frontier.clear();
    touched.clear();
  }
};

/// Per-source batched Yen KSP over a fixed graph. One forward
/// shortest-path tree per source yields the first path for every
/// destination. Spur searches resolve, in order, through: (1) first-hop
/// stitching — the cached tree of each allowed first hop gives its
/// exact best continuation, and a strictly-winning clean hop provably
/// reproduces the banned Dijkstra's answer; (2) a banned array Dijkstra
/// with early exit at the destination, pruned by the stitch's bound so
/// hopeless nodes never settle. Output is bit-identical to
/// k_shortest_paths_reference() for every (dst, k).
class KspSolver {
 public:
  /// Unbound solver (GlobalRouting's per-worker solvers are built up
  /// front and rebind() to each cycle's graph).
  KspSolver() = default;
  explicit KspSolver(const RoutingGraph& g) { rebind(g); }

  /// Binds the solver to `g` and drops every cached shortest-path tree
  /// *without releasing any allocation*, so a long-lived solver stops
  /// paying realloc churn after its first cycle. `g` must outlive the
  /// solver's next use.
  void rebind(const RoutingGraph& g);

  /// Computes (or reuses) the forward tree rooted at `src`.
  void set_source(std::size_t src);
  std::size_t source() const { return src_; }

  /// Up to k shortest loopless paths source()->dst, solved into
  /// solver-owned storage (path arena + accepted list, all reused across
  /// calls and cycles); returns the number of paths found (<= k). Read
  /// path i through accepted_nodes(i)/accepted_cost(i); the storage is
  /// valid until the next call. Identical to
  /// k_shortest_paths_reference(g, source(), dst, k).
  std::size_t k_shortest_scratch(std::size_t dst, std::size_t k);
  const std::vector<std::size_t>& accepted_nodes(std::size_t i) const {
    return arena_[accepted_[i].slot];
  }
  double accepted_cost(std::size_t i) const { return accepted_[i].cost; }

 private:
  void ensure_tree(std::size_t root);
  bool spur_search(std::size_t spur, std::size_t dst, WeightedPath* out);
  /// First-hop stitching: answers a banned spur search from the cached
  /// per-node trees when the winner is provably unique; returns false
  /// when the exact Dijkstra must run (tie or threatening dirty hop),
  /// leaving the best clean candidate's cost in `*bound` (+inf when
  /// none) as a pruning bound for the fallback search.
  bool stitch_search(std::size_t spur, std::size_t dst, WeightedPath* out,
                     bool* unreachable, double* bound);

  const RoutingGraph* g_ = nullptr;
  std::size_t n_ = 0;
  std::size_t src_ = 0;
  bool src_set_ = false;

  // Lazily-built all-node tree cache: row `r` holds the full forward
  // tree rooted at r once tree_built_[r] is set; rebind() clears it.
  std::vector<double> tree_dist_;
  std::vector<std::uint32_t> tree_prev_;
  std::vector<std::uint8_t> tree_built_;
  /// Transpose of tree_dist_: `tree_dist_t_[d * n + r]` = dist r -> d.
  /// The stitch scan reads "distance to one fixed dst from every first
  /// hop"; in row layout those reads stride by n (a cache miss per hop
  /// once the matrix outgrows L2 — the profile's top cost at 600
  /// nodes), in column layout they are sequential.
  std::vector<double> tree_dist_t_;
  std::size_t built_count_ = 0;  ///< rows of the tree cache built
  /// Settled scratch for tree builds. Separate from ws_.settled: the
  /// workspace arrays hold their between-calls baseline via the touched
  /// list, which a full-fill tree build would silently violate.
  std::vector<std::uint8_t> tree_settled_;

  DijkstraWorkspace ws_;

  // Yen scratch, reused across destinations *and* cycles. Candidate
  // node sequences live in an arena of reusable slot vectors (deque:
  // acquiring a new slot never moves existing ones); the heap, the
  // accepted list and the dedup table refer to slots by index, so the
  // steady state allocates nothing per pair.
  std::size_t arena_used_ = 0;
  std::deque<std::vector<std::size_t>> arena_;
  std::size_t acquire_slot();  ///< cleared slot; index == arena_used_-1

  struct Cand {
    double cost = 0.0;
    std::uint32_t slot = 0;
  };
  /// Candidate pool as a manual binary min-heap on cost. push_heap /
  /// pop_heap sift by comparator outcomes alone, and the comparator
  /// reads only the cost — so the pop sequence is element-for-element
  /// the one the reference's priority_queue<WeightedPath> produces.
  std::vector<Cand> heap_;
  std::vector<Cand> accepted_;  ///< result list, in acceptance order

  /// Hashed path-signature dedup with exact compare against the arena.
  /// Flat vector + linear scan: per-pair candidate counts are tiny
  /// (O(k * path length)), so a scan beats a node-based hash map and
  /// never allocates once warm.
  struct SeenSig {
    std::uint64_t hash = 0;
    std::uint32_t slot = 0;
  };
  std::vector<SeenSig> seen_;
  bool seen_insert(std::size_t slot);  ///< false (and no insert) on dup

  WeightedPath spur_path_;  ///< per-spur result, buffer reused
  std::vector<std::size_t> stitch_nodes_;  ///< scratch: tree walk, reversed
  /// Root nodes banned for the current spur (the running prefix of the
  /// deviating path) — list form of the ws_.banned_node byte map, so
  /// the steady-state stitch scan can mask exactly those hops up front.
  std::vector<std::uint32_t> banned_roots_;
  std::vector<Cand> mask_saved_;  ///< (old value, index) undo log
};

}  // namespace livenet::brain
