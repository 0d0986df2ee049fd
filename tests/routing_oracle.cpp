#include "routing_oracle.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <utility>

namespace livenet::brain {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::optional<WeightedPath> shortest_path_reference(
    const RoutingGraph& g, std::size_t src, std::size_t dst,
    const std::vector<bool>* banned_nodes,
    const std::vector<std::pair<std::size_t, std::size_t>>* banned_edges) {
  const std::size_t n = g.size();
  if (src >= n || dst >= n) return std::nullopt;
  if (banned_nodes != nullptr &&
      ((*banned_nodes)[src] || (*banned_nodes)[dst])) {
    return std::nullopt;
  }
  if (src == dst) return WeightedPath{{src}, 0.0};

  auto is_banned_edge = [banned_edges](std::size_t a, std::size_t b) {
    if (banned_edges == nullptr) return false;
    return std::find(banned_edges->begin(), banned_edges->end(),
                     std::make_pair(a, b)) != banned_edges->end();
  };

  std::vector<double> dist(n, kInf);
  std::vector<std::size_t> prev(n, n);
  using QItem = std::pair<double, std::size_t>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.emplace(0.0, src);

  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (std::size_t v = 0; v < n; ++v) {
      if (!g.has_edge(u, v)) continue;
      if (banned_nodes != nullptr && (*banned_nodes)[v]) continue;
      if (is_banned_edge(u, v)) continue;
      const double nd = d + g.weight(u, v);
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        pq.emplace(nd, v);
      }
    }
  }
  if (dist[dst] == kInf) return std::nullopt;

  WeightedPath out;
  out.cost = dist[dst];
  for (std::size_t cur = dst; cur != n; cur = prev[cur]) {
    out.nodes.push_back(cur);
    if (cur == src) break;
  }
  std::reverse(out.nodes.begin(), out.nodes.end());
  return out;
}

std::optional<WeightedPath> ShortestPathTree::path_to(std::size_t src,
                                                      std::size_t dst) const {
  const std::size_t n = dist.size();
  if (src >= n || dst >= n) return std::nullopt;
  if (src == dst) return WeightedPath{{src}, 0.0};
  if (dist[dst] == kInf) return std::nullopt;
  WeightedPath out;
  out.cost = dist[dst];
  for (std::size_t cur = dst; cur != n; cur = prev[cur]) {
    out.nodes.push_back(cur);
    if (cur == src) break;
  }
  std::reverse(out.nodes.begin(), out.nodes.end());
  return out;
}

ShortestPathTree shortest_path_tree_reference(const RoutingGraph& g,
                                              std::size_t src) {
  const std::size_t n = g.size();
  ShortestPathTree t;
  t.dist.assign(n, kInf);
  t.prev.assign(n, n);
  if (src >= n) return t;
  using QItem = std::pair<double, std::size_t>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  t.dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > t.dist[u]) continue;
    for (std::size_t v = 0; v < n; ++v) {
      if (!g.has_edge(u, v)) continue;
      const double nd = d + g.weight(u, v);
      if (nd < t.dist[v]) {
        t.dist[v] = nd;
        t.prev[v] = u;
        pq.emplace(nd, v);
      }
    }
  }
  return t;
}

std::vector<WeightedPath> k_shortest_paths_reference(const RoutingGraph& g,
                                                     std::size_t src,
                                                     std::size_t dst,
                                                     std::size_t k) {
  std::vector<WeightedPath> result;
  if (k == 0) return result;
  auto first = shortest_path_reference(g, src, dst);
  if (!first.has_value()) return result;
  result.push_back(std::move(*first));

  // Candidate pool ordered by cost; dedup by node sequence.
  auto cmp = [](const WeightedPath& a, const WeightedPath& b) {
    return a.cost > b.cost;
  };
  std::priority_queue<WeightedPath, std::vector<WeightedPath>, decltype(cmp)>
      candidates(cmp);
  std::set<std::vector<std::size_t>> seen;
  seen.insert(result[0].nodes);

  std::vector<bool> banned_nodes(g.size(), false);

  while (result.size() < k) {
    const auto& last = result.back().nodes;
    // Spur from every node of the previous path except its tail.
    for (std::size_t i = 0; i + 1 < last.size(); ++i) {
      const std::size_t spur = last[i];
      std::vector<std::size_t> root(last.begin(),
                                    last.begin() +
                                        static_cast<std::ptrdiff_t>(i) + 1);

      // Ban edges used by earlier accepted paths sharing this root.
      std::vector<std::pair<std::size_t, std::size_t>> banned_edges;
      for (const auto& p : result) {
        if (p.nodes.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.nodes.begin())) {
          banned_edges.emplace_back(p.nodes[i], p.nodes[i + 1]);
        }
      }
      // Ban root nodes (except the spur) to keep paths loopless.
      std::fill(banned_nodes.begin(), banned_nodes.end(), false);
      for (std::size_t j = 0; j < i; ++j) banned_nodes[root[j]] = true;

      const auto spur_path =
          shortest_path_reference(g, spur, dst, &banned_nodes, &banned_edges);
      if (!spur_path.has_value()) continue;

      WeightedPath total;
      total.nodes = root;
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin() + 1,
                         spur_path->nodes.end());
      double root_cost = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        root_cost += g.weight(last[j], last[j + 1]);
      }
      total.cost = root_cost + spur_path->cost;
      if (seen.insert(total.nodes).second) {
        candidates.push(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(candidates.top());
    candidates.pop();
  }
  return result;
}

std::vector<WeightedPath> k_shortest_paths(const RoutingGraph& g,
                                           std::size_t src, std::size_t dst,
                                           std::size_t k) {
  std::vector<WeightedPath> out;
  if (k == 0 || src >= g.size() || dst >= g.size()) return out;
  KspSolver solver(g);
  solver.set_source(src);
  const std::size_t cnt = solver.k_shortest_scratch(dst, k);
  out.reserve(cnt);
  for (std::size_t i = 0; i < cnt; ++i) {
    out.push_back(WeightedPath{solver.accepted_nodes(i),
                               solver.accepted_cost(i)});
  }
  return out;
}

GlobalRouting::Result recompute_reference(
    const GlobalRoutingConfig& cfg, const GlobalDiscovery& view,
    const std::vector<sim::NodeId>& nodes,
    const std::vector<sim::NodeId>& last_resort_nodes, Pib* pib) {
  GlobalRouting::Result res;
  const RoutingGraph g = GlobalRouting(cfg).build_graph(view, nodes);

  auto overloaded_node = [&](sim::NodeId n) {
    return view.node_load(n) >= cfg.overload_threshold;
  };
  auto overloaded_link = [&](sim::NodeId a, sim::NodeId b) {
    const LinkState* ls = view.link(a, b);
    return ls != nullptr && ls->utilization >= cfg.overload_threshold;
  };

  for (std::size_t a = 0; a < nodes.size(); ++a) {
    // k = 1 needs no spur paths, so one shortest-path tree per source
    // replaces n per-pair Dijkstras (the tree reads off the identical
    // path).
    std::optional<ShortestPathTree> tree;
    if (cfg.k == 1) tree = shortest_path_tree_reference(g, a);
    for (std::size_t b = 0; b < nodes.size(); ++b) {
      if (a == b) continue;
      ++res.pairs;
      ++res.pairs_solved;
      std::vector<WeightedPath> ksp;
      if (tree.has_value()) {
        if (auto p = tree->path_to(a, b)) ksp.push_back(std::move(*p));
      } else {
        ksp = k_shortest_paths_reference(g, a, b, cfg.k);
      }

      std::vector<overlay::Path> kept;
      for (const auto& wp : ksp) {
        // Constraint (iii): bounded path length.
        if (static_cast<int>(wp.nodes.size()) - 1 > cfg.max_hops) continue;
        // Constraints (i)/(ii): skip paths crossing overloaded elements
        // (relay nodes and links; the endpoints are fixed by the pair).
        bool bad = false;
        for (std::size_t i = 0; i < wp.nodes.size() && !bad; ++i) {
          const sim::NodeId n = nodes[wp.nodes[i]];
          const bool endpoint = (i == 0 || i + 1 == wp.nodes.size());
          if (!endpoint && overloaded_node(n)) bad = true;
          if (i + 1 < wp.nodes.size() &&
              overloaded_link(n, nodes[wp.nodes[i + 1]])) {
            bad = true;
          }
        }
        if (bad) continue;
        overlay::Path p;
        p.reserve(wp.nodes.size());
        for (const std::size_t idx : wp.nodes) p.push_back(nodes[idx]);
        kept.push_back(std::move(p));
      }
      res.paths_installed += kept.size();

      // Last-resort fallback: src -> reserved relay -> dst, choosing the
      // relay with the lowest total reported RTT.
      overlay::Path fallback;
      double best = std::numeric_limits<double>::infinity();
      for (const sim::NodeId lr : last_resort_nodes) {
        const LinkState* l1 = view.link(nodes[a], lr);
        const LinkState* l2 = view.link(lr, nodes[b]);
        if (l1 == nullptr || l2 == nullptr) continue;
        const double cost =
            static_cast<double>(l1->rtt) + static_cast<double>(l2->rtt);
        if (cost < best) {
          best = cost;
          fallback = overlay::Path{nodes[a], lr, nodes[b]};
        }
      }
      if (kept.empty() && !fallback.empty()) ++res.last_resort_pairs;
      pib->set_paths(nodes[a], nodes[b], std::move(kept));
      if (!fallback.empty()) {
        pib->set_last_resort(nodes[a], nodes[b], std::move(fallback));
      }
    }
  }
  return res;
}

}  // namespace livenet::brain
