#include "brain/routing_graph.h"

#include <algorithm>
#include <cmath>

namespace livenet::brain {

namespace {

// Eq. 3 sigmoid parameters, in percentage points of utilization.
constexpr double kAlpha = 0.5;
constexpr double kBetaPercent = 80.0;

}  // namespace

double utilization_penalty(double u) {
  const double u_percent = std::clamp(u, 0.0, 1.0) * 100.0;
  return 1.0 / (1.0 + std::exp(kAlpha * (kBetaPercent - u_percent))) + 1.0;
}

double link_weight(const LinkState& link, double node_util_a,
                   double node_util_b) {
  const double rho = std::clamp(link.loss_rate, 0.0, 1.0);
  const double rtt = static_cast<double>(link.rtt);
  // Expected RTT assuming one recovery round for lost packets.
  const double expected_rtt = rho * 2.0 * rtt + (1.0 - rho) * rtt;
  const double u =
      std::max({link.utilization, node_util_a, node_util_b});
  return expected_rtt * utilization_penalty(u);
}

void RoutingGraph::rebuild_from(std::size_t n, std::vector<double>* cells) {
  n_ = n;
  weights_.swap(*cells);
  build_csr();
}

void RoutingGraph::build_csr() {
  csr_.row_start.assign(n_ + 1, 0);
  csr_.col.clear();
  csr_.weight.clear();
  std::size_t edges = 0;
  for (std::size_t a = 0; a < n_; ++a) {
    const double* row = weights_.data() + a * n_;
    for (std::size_t b = 0; b < n_; ++b) {
      if (row[b] >= 0.0) ++edges;
    }
  }
  csr_.col.reserve(edges);
  csr_.weight.reserve(edges);
  for (std::size_t a = 0; a < n_; ++a) {
    csr_.row_start[a] = static_cast<std::uint32_t>(csr_.col.size());
    const double* row = weights_.data() + a * n_;
    for (std::size_t b = 0; b < n_; ++b) {
      if (row[b] >= 0.0) {
        csr_.col.push_back(static_cast<std::uint32_t>(b));
        csr_.weight.push_back(row[b]);
      }
    }
  }
  csr_.row_start[n_] = static_cast<std::uint32_t>(csr_.col.size());
}

}  // namespace livenet::brain
