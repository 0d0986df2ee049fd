#include "brain/global_routing.h"

#include <chrono>
#include <limits>
#include <unordered_map>
#include <utility>

namespace livenet::brain {

namespace {

constexpr double kMissingRtt = -1.0;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Everything a per-source solve reads; shared read-only across every
/// worker during the fan-out (the Discovery view is only probed through
/// const lookups).
struct SolveCtx {
  const GlobalDiscovery* view = nullptr;
  const std::vector<sim::NodeId>* nodes = nullptr;
  const std::vector<sim::NodeId>* last_resort = nullptr;
  const GlobalRoutingConfig* cfg = nullptr;
  const std::vector<std::uint8_t>* node_over = nullptr;
  const std::vector<std::uint8_t>* link_over = nullptr;
  const std::vector<double>* lr_to = nullptr;
  std::size_t n = 0;
  std::size_t lr_count = 0;
};

using SourceOutput = GlobalRouting::SourceOutput;

/// Solves every destination for source `a` into `out`: each
/// destination's kept paths plus its fallback-relay choice.
void solve_source(const SolveCtx& c, KspSolver& solver, std::size_t a,
                  std::vector<double>& lr_from, SourceOutput& out) {
  const std::vector<sim::NodeId>& nodes = *c.nodes;
  out.kept_by_dst.resize(c.n);
  out.fallback.assign(c.n, static_cast<std::uint32_t>(c.lr_count));
  // src -> relay RTTs, hoisted per source.
  lr_from.resize(c.lr_count);
  for (std::size_t l = 0; l < c.lr_count; ++l) {
    const LinkState* ls = c.view->link(nodes[a], (*c.last_resort)[l]);
    lr_from[l] = ls != nullptr ? static_cast<double>(ls->rtt) : kMissingRtt;
  }
  // One forward tree for source `a` serves all destinations; spur trees
  // accumulate across the worker's sources within the cycle.
  solver.set_source(a);
  for (std::size_t b = 0; b < c.n; ++b) {
    if (a == b) continue;
    const std::size_t cnt = solver.k_shortest_scratch(b, c.cfg->k);

    std::vector<overlay::Path>& kept = out.kept_by_dst[b];
    for (std::size_t ci = 0; ci < cnt; ++ci) {
      const std::vector<std::size_t>& wp = solver.accepted_nodes(ci);
      // Constraint (iii): bounded path length.
      if (static_cast<int>(wp.size()) - 1 > c.cfg->max_hops) continue;
      // Constraints (i)/(ii): skip paths crossing overloaded elements
      // (relay nodes and links; the endpoints are fixed by the pair).
      bool bad = false;
      for (std::size_t i = 0; i < wp.size() && !bad; ++i) {
        const std::size_t u = wp[i];
        const bool endpoint = (i == 0 || i + 1 == wp.size());
        if (!endpoint && (*c.node_over)[u] != 0) bad = true;
        if (i + 1 < wp.size() && (*c.link_over)[u * c.n + wp[i + 1]] != 0) {
          bad = true;
        }
      }
      if (bad) continue;
      overlay::Path p;
      p.reserve(wp.size());
      for (const std::size_t idx : wp) p.push_back(nodes[idx]);
      kept.push_back(std::move(p));
    }
    out.paths_installed += kept.size();

    // Last-resort fallback: src -> reserved relay -> dst, choosing the
    // relay with the lowest total reported RTT.
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_l = c.lr_count;
    for (std::size_t l = 0; l < c.lr_count; ++l) {
      if (lr_from[l] < 0.0) continue;
      const double to = (*c.lr_to)[l * c.n + b];
      if (to < 0.0) continue;
      const double cost = lr_from[l] + to;
      if (cost < best) {
        best = cost;
        best_l = l;
      }
    }
    if (kept.empty() && best_l != c.lr_count) ++out.last_resort_pairs;
    out.fallback[b] = static_cast<std::uint32_t>(best_l);
  }
}

}  // namespace

void GlobalRouting::fill_graph_cells(
    const GlobalDiscovery& view, const std::vector<sim::NodeId>& nodes,
    const std::unordered_map<sim::NodeId, std::size_t>& idx_of,
    const std::vector<double>& loads, std::vector<double>* cells) const {
  const std::size_t n = nodes.size();
  cells->assign(n * n, RoutingGraph::kNoEdge);
  for (std::size_t a = 0; a < n; ++a) {
    const GlobalDiscovery::NodeView* nv = view.find_node(nodes[a]);
    if (nv == nullptr) continue;
    double* row = cells->data() + a * n;
    for (const auto& [idb, ls] : nv->links) {
      if (!ls.valid) continue;
      const auto ib = idx_of.find(idb);
      if (ib == idx_of.end() || ib->second == a) continue;
      row[ib->second] = link_weight(ls, loads[a], loads[ib->second]);
    }
  }
}

RoutingGraph GlobalRouting::build_graph(
    const GlobalDiscovery& view, const std::vector<sim::NodeId>& nodes) const {
  const std::size_t n = nodes.size();
  RoutingGraph g(n);
  std::unordered_map<sim::NodeId, std::size_t> idx_of;
  idx_of.reserve(n);
  for (std::size_t a = 0; a < n; ++a) idx_of[nodes[a]] = a;
  std::vector<double> loads(n);
  for (std::size_t a = 0; a < n; ++a) loads[a] = view.node_load(nodes[a]);
  std::vector<double> cells;
  fill_graph_cells(view, nodes, idx_of, loads, &cells);
  g.rebuild_from(n, &cells);
  return g;
}

GlobalRouting::Result GlobalRouting::recompute(
    const GlobalDiscovery& view, const std::vector<sim::NodeId>& nodes,
    const std::vector<sim::NodeId>& last_resort_nodes, Pib* pib) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  Result res;
  const std::size_t n = nodes.size();
  const std::size_t lr_count = last_resort_nodes.size();

  // ---- Phase 1: graph build + constraint tables --------------------
  idx_of_.clear();
  idx_of_.reserve(n);
  for (std::size_t a = 0; a < n; ++a) idx_of_[nodes[a]] = a;
  loads_.resize(n);
  for (std::size_t a = 0; a < n; ++a) loads_[a] = view.node_load(nodes[a]);
  fill_graph_cells(view, nodes, idx_of_, loads_, &cells_);
  graph_.rebuild_from(n, &cells_);

  // Precomputed constraint tables: one hash lookup per element per
  // cycle instead of per candidate path.
  node_over_.assign(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    node_over_[a] = loads_[a] >= cfg_.overload_threshold ? 1 : 0;
  }
  link_over_.assign(n * n, 0);
  for (const auto& [ida, nv] : view.nodes()) {
    const auto ia = idx_of_.find(ida);
    if (ia == idx_of_.end()) continue;
    for (const auto& [idb, ls] : nv.links) {
      const auto ib = idx_of_.find(idb);
      if (ib == idx_of_.end()) continue;
      if (ls.utilization >= cfg_.overload_threshold) {
        link_over_[ia->second * n + ib->second] = 1;
      }
    }
  }

  // Last-resort relay->dst RTT table (per-cycle invariant; the
  // src->relay half is hoisted per source inside solve_source).
  lr_to_.assign(lr_count * n, kMissingRtt);
  for (std::size_t l = 0; l < lr_count; ++l) {
    for (std::size_t b = 0; b < n; ++b) {
      const LinkState* ls = view.link(last_resort_nodes[l], nodes[b]);
      if (ls != nullptr) lr_to_[l * n + b] = static_cast<double>(ls->rtt);
    }
  }

  // Double buffer: every cycle rebuilds the scratch from nothing, so
  // pairs whose endpoints left the node set age out.
  scratch_.clear();

  // Worker pool + per-worker solvers: created once and rebound every
  // cycle, so scratch capacity survives from cycle to cycle.
  if (pool_ == nullptr) {
    const std::size_t want = cfg_.threads > 0 ? cfg_.threads : 1;
    pool_ = std::make_unique<util::ThreadPool>(want);
    workers_.resize(want);
  }
  for (KspSolver& w : workers_) w.rebind(graph_);

  SolveCtx ctx;
  ctx.view = &view;
  ctx.nodes = &nodes;
  ctx.last_resort = &last_resort_nodes;
  ctx.cfg = &cfg_;
  ctx.node_over = &node_over_;
  ctx.link_over = &link_over_;
  ctx.lr_to = &lr_to_;
  ctx.n = n;
  ctx.lr_count = lr_count;

  const auto t1 = Clock::now();

  // ---- Phase 2: solve -----------------------------------------------
  // Fan-out: worker w takes sources w, w + T, ... Every source is an
  // independent subproblem over the shared read-only cycle state;
  // outputs are buffered per source and merged below.
  outputs_.resize(n);
  const std::size_t num_workers = pool_->size();
  pool_->run([&](std::size_t w) {
    std::vector<double> lr_from;
    for (std::size_t a = w; a < n; a += num_workers) {
      solve_source(ctx, workers_[w], a, lr_from, outputs_[a]);
    }
  });
  res.sources_solved = n;
  if (n > 0) {
    res.pairs = n * (n - 1);
    res.pairs_solved = res.pairs;
  }

  const auto t2 = Clock::now();

  // ---- Phase 3: install ---------------------------------------------
  // Ordered merge: ascending source index, ascending destination, hence
  // byte-identical Pib contents for any thread count.
  for (std::size_t a = 0; a < n; ++a) {
    SourceOutput& o = outputs_[a];
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      scratch_.set_paths(nodes[a], nodes[b], std::move(o.kept_by_dst[b]));
      if (o.fallback[b] != lr_count) {
        scratch_.set_last_resort(
            nodes[a], nodes[b],
            overlay::Path{nodes[a], last_resort_nodes[o.fallback[b]],
                          nodes[b]});
      }
    }
    res.paths_installed += o.paths_installed;
    res.last_resort_pairs += o.last_resort_pairs;
    o = SourceOutput{};  // free this source's n shells now
  }

  pib->swap_routes(&scratch_);
  scratch_.clear();

  const auto t3 = Clock::now();
  res.graph_build_ms = ms_between(t0, t1);
  res.solve_ms = ms_between(t1, t2);
  res.install_ms = ms_between(t2, t3);
  return res;
}

}  // namespace livenet::brain
