#pragma once

#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "util/time.h"

// The abstracted overlay graph the Global Routing module computes on
// (paper §4.3). Link weights follow Eq. 2/3:
//
//   W_AB = (rho * 2*RTT_AB + (1 - rho) * RTT_AB) * f(u_AB)
//   f(u) = 1 / (1 + e^{alpha * (beta - u)}) + 1
//
// where rho is the link loss rate, u_AB is the max of the link
// utilization and both endpoint node utilizations, and f is a
// sigmoid-like penalty ranging from 1 to 2. alpha/beta are expressed in
// percentage points (u = 80 means 80%), matching the paper's alpha=0.5,
// beta=80% — which yields a sharp penalty as utilization crosses 80%.
namespace livenet::brain {

struct LinkState {
  Duration rtt = 0;
  double loss_rate = 0.0;
  double utilization = 0.0;  ///< [0,1]
  bool valid = false;
};

/// Eq. 3: sigmoid-like utilization penalty in [1, 2]. `u` in [0,1].
double utilization_penalty(double u);

/// Eq. 2: abstracted link weight in microseconds of expected RTT.
double link_weight(const LinkState& link, double node_util_a,
                   double node_util_b);

/// Dense directed graph over the overlay nodes, with a compressed
/// sparse row (CSR) adjacency view for the Dijkstra inner loops.
///
/// The dense matrix keeps O(1) random-access `weight(a, b)` for path
/// costing and constraint checks; the CSR view gives the shortest-path
/// cores an O(out-degree) neighbor walk instead of an O(n) row scan per
/// settled node. Columns within a CSR row are ascending, i.e. exactly
/// the order the dense scan visits neighbors — relaxation order (and
/// therefore equal-cost tie-breaking) is identical between the views.
/// Both views are built together, so a const graph is safe to share
/// across threads.
class RoutingGraph {
 public:
  /// n nodes, no edges.
  explicit RoutingGraph(std::size_t n)
      : n_(n), weights_(n * n, kNoEdge) {
    build_csr();
  }

  static constexpr double kNoEdge = -1.0;

  std::size_t size() const { return n_; }

  /// Wholesale in-place rebuild from a freshly-filled dense matrix
  /// (`cells` holds n*n weights, kNoEdge for absent edges; it is
  /// swapped in, and the previous matrix is handed back through the
  /// same pointer for the caller to reuse as next cycle's fill
  /// buffer), followed by a rebuild of the CSR view.
  void rebuild_from(std::size_t n, std::vector<double>* cells);
  double weight(std::size_t a, std::size_t b) const {
    return weights_[a * n_ + b];
  }
  /// Dense out-weight row of `a` (n cells, kNoEdge for absent edges) —
  /// lets scans stream a whole row without per-edge indexing.
  const double* row(std::size_t a) const { return weights_.data() + a * n_; }
  bool has_edge(std::size_t a, std::size_t b) const {
    return weights_[a * n_ + b] >= 0.0;
  }

  /// CSR adjacency. `col[row_start[u] .. row_start[u+1])` lists u's
  /// out-neighbors in ascending index order with matching `weight`.
  struct CsrView {
    std::vector<std::uint32_t> row_start;  ///< n + 1 offsets
    std::vector<std::uint32_t> col;
    std::vector<double> weight;
    std::size_t edge_count() const { return col.size(); }
  };

  const CsrView& csr() const { return csr_; }

 private:
  /// O(n^2) per rebuild, amortized over every Dijkstra of a cycle.
  void build_csr();

  std::size_t n_;
  std::vector<double> weights_;
  CsrView csr_;
};

}  // namespace livenet::brain
