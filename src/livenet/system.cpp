#include "livenet/system.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace livenet {

using sim::NodeId;
using workload::GeoSite;

namespace {

// Overlay links (node <-> node). Propagation comes from the geo model
// times a per-pair Internet path inflation factor — real Internet paths
// detour from great circles, which is exactly why overlay relaying wins
// (the premise of flat-CDN routing). The factor is deterministic per
// node pair so LiveNet and Hier see the same underlay.
constexpr double kMeshBandwidthBps = 150e6;
constexpr std::size_t kLinkQueueBytes = 2 * 1024 * 1024;

// Peering-tier model: a link's inflation is the product of its two
// endpoints' peering factors. Backbone nodes (one per country, the Hier
// L2/center sites, and the last-resort relays) are well peered; edge
// nodes see inflated transit. This is what makes 2-hop overlay paths
// via well-peered relays beat direct edge-to-edge Internet paths — the
// premise of flat-CDN routing.
constexpr double kBackbonePeering = 1.15;
constexpr double kEdgePeeringMedian = 1.9;
constexpr double kEdgePeeringSigma = 0.25;
/// Additive per-endpoint transit detour: edge ISPs peer at distant
/// exchange points, adding fixed latency per edge endpoint of a link.
constexpr Duration kEdgePeeringExtra = 18 * kMs;
constexpr Duration kBackbonePeeringExtra = 1 * kMs;

}  // namespace

CdnSystem::CdnSystem(const SystemConfig& cfg)
    : cfg_(cfg), net_(&loop_, cfg.seed),
      geo_(cfg.geo, Rng(cfg.seed ^ 0x47656F6Dull)) {}

int CdnSystem::country_of_node(NodeId n) const {
  const auto idx = static_cast<std::size_t>(n);
  return idx < sites_.size() ? sites_[idx].country : -1;
}

void CdnSystem::set_node_peering(NodeId n, double factor) {
  const auto idx = static_cast<std::size_t>(n);
  if (node_peering_.size() <= idx) node_peering_.resize(idx + 1, 1.0);
  node_peering_[idx] = factor;
}

double CdnSystem::edge_peering_draw(NodeId n) const {
  // Deterministic per node so LiveNet and Hier (which share the first
  // node ids/sites) see the same underlay.
  Rng rng(cfg_.seed ^ (static_cast<std::uint64_t>(n) * 0x9E3779B97F4A7C15ull));
  return kEdgePeeringMedian * rng.lognormal(0.0, kEdgePeeringSigma);
}

Duration CdnSystem::pair_extra(NodeId a, NodeId b) const {
  auto extra = [this](NodeId n) {
    const auto idx = static_cast<std::size_t>(n);
    const double f = idx < node_peering_.size() && node_peering_[idx] > 0.0
                         ? node_peering_[idx]
                         : kEdgePeeringMedian;
    // Backbone factors sit well below the edge median.
    return f <= kBackbonePeering * 1.01 ? kBackbonePeeringExtra
                                        : kEdgePeeringExtra;
  };
  return extra(a) + extra(b);
}

double CdnSystem::pair_inflation(NodeId a, NodeId b) const {
  auto factor = [this](NodeId n) {
    const auto idx = static_cast<std::size_t>(n);
    return idx < node_peering_.size() && node_peering_[idx] > 0.0
               ? node_peering_[idx]
               : kEdgePeeringMedian;
  };
  return factor(a) * factor(b);
}

sim::NodeId CdnSystem::pick_edge(const GeoSite& site,
                                 const std::vector<NodeId>& edges) const {
  if (edges.empty()) return sim::kNoNode;
  // k nearest candidates.
  std::vector<std::pair<double, NodeId>> dist;
  dist.reserve(edges.size());
  for (const NodeId n : edges) {
    const auto& s = sites_[static_cast<std::size_t>(n)];
    const double dx = s.x - site.x, dy = s.y - site.y;
    dist.emplace_back(dx * dx + dy * dy, n);
  }
  std::sort(dist.begin(), dist.end());
  const auto k = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, cfg_.dns_candidates)),
      dist.size());
  // Deterministic per-site draw, weighted toward the closest.
  const auto hx = static_cast<std::uint64_t>(site.x * 1024.0);
  const auto hy = static_cast<std::uint64_t>(site.y * 1024.0);
  Rng rng(cfg_.seed ^ (hx * 0xA24BAED4963EE407ull + hy));
  double u = rng.uniform();
  double w = 0.55;
  for (std::size_t i = 0; i < k; ++i) {
    if (u < w || i + 1 == k) return dist[i].second;
    u -= w;
    w *= 0.55;
  }
  return dist[0].second;
}

sim::Link* CdnSystem::add_cdn_link(NodeId a, NodeId b, Duration one_way,
                                   double inflation_override) {
  const double inflation =
      inflation_override > 0.0 ? inflation_override : pair_inflation(a, b);
  sim::LinkConfig lc;
  lc.propagation_delay =
      static_cast<Duration>(static_cast<double>(one_way) * inflation) +
      (inflation_override > 0.0 ? 0 : pair_extra(a, b));
  lc.bandwidth_bps = kMeshBandwidthBps;
  lc.loss_rate = cfg_.base_loss_rate;
  lc.queue_limit_bytes = kLinkQueueBytes;
  sim::Link* l = net_.add_link(a, b, lc);
  cdn_links_.push_back(l);
  link_base_loss_.push_back(cfg_.base_loss_rate);
  return l;
}

NodeId CdnSystem::attach_client(sim::SimNode* client, const GeoSite& site) {
  const NodeId edge = map_client_to_edge(site);
  const NodeId cid = net_.add_node(client);
  while (sites_.size() < static_cast<std::size_t>(cid)) {
    sites_.push_back(GeoSite{});
  }
  sites_.push_back(site);

  sim::LinkConfig lc;
  lc.propagation_delay =
      geo_.one_way_delay(site, sites_[static_cast<std::size_t>(edge)]) +
      cfg_.access_extra_delay / 2;
  lc.bandwidth_bps = cfg_.access_bandwidth_bps;
  lc.loss_rate = cfg_.base_loss_rate * 2;  // last miles are lossier
  // ~250 ms of buffering at line rate: enough to absorb paced bursts,
  // small enough that sustained overload surfaces as loss quickly
  // (multi-second bufferbloat would hide congestion from GCC).
  lc.queue_limit_bytes = static_cast<std::size_t>(
      std::max(32.0 * 1024.0, cfg_.access_bandwidth_bps * 0.25 / 8.0));
  net_.add_bidi_link(cid, edge, lc);
  return edge;
}

void CdnSystem::set_loss_scale(double scale) {
  for (std::size_t i = 0; i < cdn_links_.size(); ++i) {
    cdn_links_[i]->set_loss_rate(link_base_loss_[i] * scale);
  }
}

void CdnSystem::scale_capacity(double factor) {
  for (sim::Link* l : cdn_links_) {
    l->set_bandwidth_bps(l->bandwidth_bps() * factor);
  }
}

// ------------------------------------------------------------------ LiveNet

void LiveNetSystem::build() {
  const int regular =
      cfg_.countries * cfg_.nodes_per_country;

  // Regular overlay nodes: spread across countries. The first node of
  // each country is its backbone (core PoP): centrally placed and well
  // peered; the rest are edge nodes.
  for (int i = 0; i < regular; ++i) {
    const int country = i % cfg_.countries;
    auto node = std::make_unique<overlay::OverlayNode>(&net_, &metrics_,
                                                       cfg_.overlay_node);
    const GeoSite site = i < cfg_.countries ? geo_.center_site(country)
                                            : geo_.sample_site(country);
    const NodeId id = net_.add_node(node.get());
    sites_.push_back(site);
    node->set_location(country);
    // One backbone (well-peered) node per country: the first round of
    // node creation; the rest are edge nodes with inflated transit.
    // Backbones are relay infrastructure — DNS never maps clients to
    // them, mirroring the paper's distinction between well-connected
    // relays and the edges serving users.
    if (i < cfg_.countries) {
      set_node_peering(id, kBackbonePeering);
      backbone_ids_.push_back(id);
    } else {
      set_node_peering(id, edge_peering_draw(id));
      edge_ids_.push_back(id);
    }
    node_ids_.push_back(id);
    nodes_.push_back(std::move(node));
  }
  // Last-resort nodes: centrally located (well-peered, e.g. at IXPs).
  for (int i = 0; i < cfg_.last_resort_nodes; ++i) {
    auto node = std::make_unique<overlay::OverlayNode>(&net_, &metrics_,
                                                       cfg_.overlay_node);
    GeoSite site;  // plane origin: minimal distance to everyone
    site.country = -1;
    const NodeId id = net_.add_node(node.get());
    sites_.push_back(site);
    node->set_location(-1);
    set_node_peering(id, kBackbonePeering);  // IXP-grade peering
    last_resort_ids_.push_back(id);
    nodes_.push_back(std::move(node));
  }

  // Full mesh among all CDN nodes (regular + last-resort).
  std::vector<NodeId> all = node_ids_;
  all.insert(all.end(), last_resort_ids_.begin(), last_resort_ids_.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (i == j) continue;
      add_cdn_link(all[i], all[j],
                   geo_.one_way_delay(sites_[static_cast<std::size_t>(all[i])],
                                      sites_[static_cast<std::size_t>(all[j])]));
    }
  }

  // The Streaming Brain: central site, control links to every node.
  brain_ = std::make_unique<brain::BrainNode>(&net_, cfg_.brain);
  const NodeId brain_id = net_.add_node(brain_.get());
  brain_id_ = brain_id;
  GeoSite brain_site;
  sites_.push_back(brain_site);
  for (const NodeId n : all) {
    sim::LinkConfig lc;
    lc.propagation_delay = geo_.one_way_delay(
        brain_site, sites_[static_cast<std::size_t>(n)]);
    lc.bandwidth_bps = 1e9;
    lc.loss_rate = 0.0;
    net_.add_bidi_link(brain_id, n, lc);
  }
  brain_->set_overlay_nodes(node_ids_);
  brain_->set_last_resort_nodes(last_resort_ids_);

  // Path Decision replicas (§7.1): placed at country centers, one per
  // country round-robin, serving nearby consumers' lookups.
  std::vector<NodeId> replica_ids;
  for (int i = 0; i < cfg_.path_decision_replicas; ++i) {
    auto replica = std::make_unique<brain::PathDecisionReplica>(&net_,
                                                                cfg_.brain);
    const GeoSite site = geo_.center_site(i % cfg_.countries);
    const NodeId rid = net_.add_node(replica.get());
    sites_.push_back(site);
    replica_ids.push_back(rid);
    for (const NodeId n : all) {
      sim::LinkConfig lc;
      lc.propagation_delay =
          geo_.one_way_delay(site, sites_[static_cast<std::size_t>(n)]);
      lc.bandwidth_bps = 1e9;
      lc.loss_rate = 0.0;
      net_.add_bidi_link(rid, n, lc);
    }
    // Replica <-> primary control link (replication traffic).
    sim::LinkConfig lc;
    lc.propagation_delay =
        geo_.one_way_delay(site, sites_[static_cast<std::size_t>(brain_id)]);
    lc.bandwidth_bps = 1e9;
    lc.loss_rate = 0.0;
    net_.add_bidi_link(rid, brain_id, lc);
    replicas_.push_back(std::move(replica));
  }
  brain_->set_replicas(replica_ids);

  for (auto& node : nodes_) {
    node->set_brain(brain_id);
    node->set_overlay_peers(all);
    if (!replica_ids.empty()) {
      // Nearest replica serves this node's path lookups.
      const auto& s = sites_[static_cast<std::size_t>(node->node_id())];
      NodeId best = replica_ids.front();
      double best_d = std::numeric_limits<double>::infinity();
      for (const NodeId r : replica_ids) {
        const auto& t = sites_[static_cast<std::size_t>(r)];
        const double dx = s.x - t.x, dy = s.y - t.y;
        if (dx * dx + dy * dy < best_d) {
          best_d = dx * dx + dy * dy;
          best = r;
        }
      }
      node->set_path_service(best);
    }
  }

  // The static overlay topology is complete; clients attached later use
  // the dynamic fallback path.
  net_.freeze_topology();
}

void LiveNetSystem::start() {
  for (auto& node : nodes_) {
    node->start_reporting();
  }
  // Let the first round of state reports reach Global Discovery before
  // the first Global Routing cycle runs.
  loop_.schedule_after(300 * kMs, [this] { brain_->start(); });
}

overlay::OverlayNode& LiveNetSystem::node(NodeId id) {
  for (auto& n : nodes_) {
    if (n->node_id() == id) return *n;
  }
  throw std::out_of_range("no such overlay node");
}

NodeId LiveNetSystem::map_client_to_edge(const GeoSite& site) const {
  return pick_edge(site, edge_ids_);
}

std::vector<NodeId> LiveNetSystem::edge_nodes() const { return edge_ids_; }

void LiveNetSystem::scale_capacity(double factor) {
  CdnSystem::scale_capacity(factor);
  // Node-level capacity scales with the link upgrade.
  // (Config lives per node; reflected in the load metric.)
}

void LiveNetSystem::crash_node(NodeId n) {
  // The Brain is network-isolated by the injector (links down); its
  // in-memory state survives the partition, so there is nothing to
  // wipe — replicas keep answering lookups meanwhile (§7.1).
  if (n == brain_id_) return;
  for (auto& node : nodes_) {
    if (node->node_id() == n) {
      node->crash();
      return;
    }
  }
}

void LiveNetSystem::restart_node(NodeId n) {
  if (n == brain_id_) return;
  for (auto& node : nodes_) {
    if (node->node_id() == n) {
      node->restart();
      return;
    }
  }
}

std::vector<NodeId> LiveNetSystem::crashable_nodes() const {
  // Pure relays only: backbones and last-resort nodes never have
  // clients attached (DNS maps clients to edges), so crashing them
  // exercises re-routing without severing anyone's access link.
  std::vector<NodeId> out = backbone_ids_;
  out.insert(out.end(), last_resort_ids_.begin(), last_resort_ids_.end());
  return out;
}

// --------------------------------------------------------------------- Hier

void HierSystem::build() {
  const int l1_count = cfg_.countries * cfg_.nodes_per_country;

  // Role fields are fixed by position in the tree regardless of what
  // the caller put in the per-tier configs.
  hier::HierNodeConfig l1_cfg = cfg_.hier_l1;
  l1_cfg.role = hier::HierRole::kL1;
  hier::HierNodeConfig l2_cfg = cfg_.hier_l2;
  l2_cfg.role = hier::HierRole::kL2;
  hier::HierNodeConfig center_cfg = cfg_.hier_center;
  center_cfg.role = hier::HierRole::kCenter;

  for (int i = 0; i < l1_count; ++i) {
    const int country = i % cfg_.countries;
    auto node =
        std::make_unique<hier::HierNode>(&net_, &metrics_, l1_cfg);
    const GeoSite site = i < cfg_.countries ? geo_.center_site(country)
                                            : geo_.sample_site(country);
    const NodeId id = net_.add_node(node.get());
    sites_.push_back(site);
    node->set_location(country);
    set_node_peering(id, i < cfg_.countries ? kBackbonePeering
                                            : edge_peering_draw(id));
    l1_ids_.push_back(id);
    nodes_.push_back(std::move(node));
  }
  // One L2 per country, at the country center (core PoP).
  for (int c = 0; c < cfg_.countries; ++c) {
    auto node =
        std::make_unique<hier::HierNode>(&net_, &metrics_, l2_cfg);
    const GeoSite site = geo_.center_site(c);
    const NodeId id = net_.add_node(node.get());
    sites_.push_back(site);
    node->set_location(c);
    // L2s ride the provider's private core (the paper's streaming
    // center interconnect), not public transit.
    set_node_peering(id, 1.05);
    l2_ids_.push_back(id);
    nodes_.push_back(std::move(node));
  }
  // The streaming center at the plane origin.
  {
    auto node =
        std::make_unique<hier::HierNode>(&net_, &metrics_, center_cfg);
    GeoSite site;
    site.country = -1;
    center_id_ = net_.add_node(node.get());
    sites_.push_back(site);
    node->set_location(-1);
    set_node_peering(center_id_, 1.05);  // private core
    nodes_.push_back(std::move(node));
  }

  // Links: L1 <-> every L2 (the controller may remap), L2 <-> center.
  for (const NodeId l1 : l1_ids_) {
    for (const NodeId l2 : l2_ids_) {
      const Duration d =
          geo_.one_way_delay(sites_[static_cast<std::size_t>(l1)],
                             sites_[static_cast<std::size_t>(l2)]);
      add_cdn_link(l1, l2, d);
      add_cdn_link(l2, l1, d);
    }
  }
  for (const NodeId l2 : l2_ids_) {
    const Duration d =
        geo_.one_way_delay(sites_[static_cast<std::size_t>(l2)],
                           sites_[static_cast<std::size_t>(center_id_)]);
    add_cdn_link(l2, center_id_, d);
    add_cdn_link(center_id_, l2, d);
  }

  // VDN-style controller, co-located with the center.
  control_ = std::make_unique<hier::HierControl>(&net_);
  const NodeId ctrl_id = net_.add_node(control_.get());
  sites_.push_back(sites_[static_cast<std::size_t>(center_id_)]);
  control_->set_l2_nodes(l2_ids_);
  for (const NodeId l1 : l1_ids_) {
    sim::LinkConfig lc;
    lc.propagation_delay = geo_.one_way_delay(
        sites_[static_cast<std::size_t>(l1)],
        sites_[static_cast<std::size_t>(ctrl_id)]);
    lc.bandwidth_bps = 1e9;
    lc.loss_rate = 0.0;
    net_.add_bidi_link(l1, ctrl_id, lc);
  }

  // Wire roles: L1s point at the controller; L2s at the center. The
  // geographic affinity is the nearest L2.
  std::size_t idx = 0;
  for (; idx < l1_ids_.size(); ++idx) {
    hier::HierNode* n = nodes_[idx].get();
    n->set_controller(ctrl_id);
    const auto& s = sites_[static_cast<std::size_t>(l1_ids_[idx])];
    NodeId best = l2_ids_.front();
    double best_d = std::numeric_limits<double>::infinity();
    for (const NodeId l2 : l2_ids_) {
      const auto& t = sites_[static_cast<std::size_t>(l2)];
      const double dx = s.x - t.x, dy = s.y - t.y;
      if (dx * dx + dy * dy < best_d) {
        best_d = dx * dx + dy * dy;
        best = l2;
      }
    }
    n->set_parent(best);
    control_->set_affinity(l1_ids_[idx], best);
  }
  for (std::size_t k = 0; k < l2_ids_.size(); ++k, ++idx) {
    nodes_[idx]->set_parent(center_id_);
  }

  net_.freeze_topology();
}

NodeId HierSystem::map_client_to_edge(const GeoSite& site) const {
  std::vector<NodeId> edges(l1_ids_.begin() +
                                std::min<std::ptrdiff_t>(cfg_.countries,
                                                         static_cast<std::ptrdiff_t>(l1_ids_.size())),
                            l1_ids_.end());
  return pick_edge(site, edges);
}

std::vector<NodeId> HierSystem::edge_nodes() const {
  return {l1_ids_.begin() +
              std::min<std::ptrdiff_t>(cfg_.countries,
                                       static_cast<std::ptrdiff_t>(l1_ids_.size())),
          l1_ids_.end()};
}

}  // namespace livenet
