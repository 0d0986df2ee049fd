#pragma once

#include <memory>
#include <vector>

#include "brain/brain.h"
#include "brain/replica.h"
#include "hier/hier_control.h"
#include "hier/hier_node.h"
#include "overlay/overlay_node.h"
#include "overlay/records.h"
#include "sim/network.h"
#include "workload/geo.h"

// Top-level system façades: build a complete LiveNet (flat overlay +
// Streaming Brain) or Hier (two-layer tree + streaming center + VDN
// controller) deployment on the simulated network. Both are built from
// the same geographic site pool so that comparisons match the paper's
// methodology ("LiveNet and Hier share the same pool of CDN nodes...
// similar footprints in terms of node locations").
namespace livenet {

struct SystemConfig {
  // Footprint.
  int countries = 6;
  int nodes_per_country = 3;  ///< edge-capable nodes per country
  int last_resort_nodes = 2;  ///< LiveNet only: reserved relays
  int path_decision_replicas = 0;  ///< §7.1: replicas near consumers
  workload::GeoConfig geo;

  // Overlay links (node <-> node). Propagation comes from the geo
  // model times a per-pair Internet path inflation factor — real
  // Internet paths detour from great circles, which is exactly why
  // overlay relaying wins (the premise of flat-CDN routing). The factor
  // is deterministic per node pair so LiveNet and Hier see the same
  // underlay.
  double mesh_bandwidth_bps = 150e6;
  double base_loss_rate = 0.0004;
  std::size_t link_queue_bytes = 2 * 1024 * 1024;

  // Peering-tier model: a link's inflation is the product of its two
  // endpoints' peering factors. Backbone nodes (one per country, the
  // Hier L2/center sites, and the last-resort relays) are well peered;
  // edge nodes see inflated transit. This is what makes 2-hop overlay
  // paths via well-peered relays beat direct edge-to-edge Internet
  // paths — the premise of flat-CDN routing.
  double backbone_peering = 1.15;
  double edge_peering_median = 1.9;
  double edge_peering_sigma = 0.25;
  /// Additive per-endpoint transit detour: edge ISPs peer at distant
  /// exchange points, adding fixed latency per edge endpoint of a link.
  Duration edge_peering_extra = 18 * kMs;
  Duration backbone_peering_extra = 1 * kMs;

  /// DNS mapping randomization: clients map to one of the k nearest
  /// edges (load spreading), weighted toward the closest.
  int dns_candidates = 3;

  // Access links (client <-> edge).
  double access_bandwidth_bps = 20e6;
  Duration access_extra_delay = 12 * kMs;  ///< last-mile tail latency

  // Node / controller behaviour.
  overlay::OverlayNodeConfig overlay_node;
  brain::BrainConfig brain;
  hier::HierNodeConfig hier_l1;
  hier::HierNodeConfig hier_l2;
  hier::HierNodeConfig hier_center;

  std::uint64_t seed = 42;
};

/// Common interface the scenario runner drives.
class CdnSystem {
 public:
  explicit CdnSystem(const SystemConfig& cfg);
  virtual ~CdnSystem() = default;
  CdnSystem(const CdnSystem&) = delete;
  CdnSystem& operator=(const CdnSystem&) = delete;

  virtual void build() = 0;
  virtual void start() = 0;

  /// Idempotent build (scenario runners may share a pre-built system).
  void build_once() {
    if (!built_) {
      build();
      built_ = true;
    }
  }

  /// DNS-style mapping: the edge node serving a client at `site`.
  virtual sim::NodeId map_client_to_edge(const workload::GeoSite& site)
      const = 0;
  virtual std::vector<sim::NodeId> edge_nodes() const = 0;

  /// Registers a client SimNode at `site` and wires its access link to
  /// the mapped edge. Returns the edge node id.
  sim::NodeId attach_client(sim::SimNode* client,
                            const workload::GeoSite& site);

  /// Scales the random loss on every CDN link (diurnal congestion).
  void set_loss_scale(double scale);

  /// Multiplies CDN link bandwidth (operational up-scaling, §6.5).
  virtual void scale_capacity(double factor);

  /// All inter-node CDN links (for loss/throughput accounting).
  const std::vector<sim::Link*>& cdn_links() const { return cdn_links_; }

  // Fault-injection hooks (driven by sim::FaultInjector via the
  // scenario runner). The default system has no node-level soft state
  // to wipe, so the hooks are no-ops and nothing is crashable.
  virtual void crash_node(sim::NodeId n) { (void)n; }
  virtual void restart_node(sim::NodeId n) { (void)n; }
  /// Nodes safe to crash in random chaos runs (pure relays — crashing a
  /// node with attached clients would sever their only access link).
  virtual std::vector<sim::NodeId> crashable_nodes() const { return {}; }
  /// The control-plane node targeted by control-outage faults.
  virtual sim::NodeId control_node() const { return sim::kNoNode; }

  sim::EventLoop& loop() { return loop_; }
  sim::Network& network() { return net_; }
  overlay::OverlayMetrics& sessions() { return metrics_; }
  workload::GeoModel& geo() { return geo_; }
  const SystemConfig& config() const { return cfg_; }
  int country_of_node(sim::NodeId n) const;
  const std::vector<workload::GeoSite>& node_sites() const { return sites_; }

 protected:
  /// Creates a CDN link with propagation = one_way x inflation. The
  /// inflation is drawn deterministically from the unordered node pair
  /// unless `inflation_override` > 0.
  sim::Link* add_cdn_link(sim::NodeId a, sim::NodeId b, Duration one_way,
                          double inflation_override = -1.0);

  /// Deterministic per-pair Internet path inflation factor (product of
  /// the endpoints' peering factors).
  double pair_inflation(sim::NodeId a, sim::NodeId b) const;

  /// Registers a node's peering factor (indexed by NodeId).
  void set_node_peering(sim::NodeId n, double factor);

  /// Additive transit penalty for a link between the two nodes.
  Duration pair_extra(sim::NodeId a, sim::NodeId b) const;

  /// Deterministic edge-node peering factor draw.
  double edge_peering_draw(sim::NodeId n) const;

  /// DNS-style pick among the candidates nearest to `site` (weighted
  /// toward the closest, deterministic per site).
  sim::NodeId pick_edge(const workload::GeoSite& site,
                        const std::vector<sim::NodeId>& edges) const;

  SystemConfig cfg_;
  sim::EventLoop loop_;
  sim::Network net_;
  workload::GeoModel geo_;
  overlay::OverlayMetrics metrics_;
  std::vector<workload::GeoSite> sites_;  ///< indexed by NodeId
  std::vector<sim::Link*> cdn_links_;
  std::vector<double> link_base_loss_;
  std::vector<double> node_peering_;  ///< indexed by NodeId

 private:
  bool built_ = false;
};

/// The paper's system: flat overlay + Streaming Brain.
class LiveNetSystem final : public CdnSystem {
 public:
  explicit LiveNetSystem(const SystemConfig& cfg) : CdnSystem(cfg) {}

  void build() override;
  void start() override;
  sim::NodeId map_client_to_edge(const workload::GeoSite& site)
      const override;
  std::vector<sim::NodeId> edge_nodes() const override;
  void scale_capacity(double factor) override;

  void crash_node(sim::NodeId n) override;
  void restart_node(sim::NodeId n) override;
  std::vector<sim::NodeId> crashable_nodes() const override;
  sim::NodeId control_node() const override { return brain_id_; }

  brain::BrainNode& brain() { return *brain_; }
  const std::vector<std::unique_ptr<brain::PathDecisionReplica>>& replicas()
      const {
    return replicas_;
  }
  overlay::OverlayNode& node(sim::NodeId id);
  const std::vector<sim::NodeId>& overlay_node_ids() const {
    return node_ids_;
  }
  const std::vector<sim::NodeId>& last_resort_ids() const {
    return last_resort_ids_;
  }
  const std::vector<sim::NodeId>& backbone_ids() const {
    return backbone_ids_;
  }

 private:
  std::vector<std::unique_ptr<overlay::OverlayNode>> nodes_;
  std::vector<sim::NodeId> node_ids_;        ///< regular nodes
  std::vector<sim::NodeId> edge_ids_;        ///< DNS-mappable subset
  std::vector<sim::NodeId> backbone_ids_;    ///< relay-tier (no clients)
  std::vector<sim::NodeId> last_resort_ids_;
  std::unique_ptr<brain::BrainNode> brain_;
  sim::NodeId brain_id_ = sim::kNoNode;
  std::vector<std::unique_ptr<brain::PathDecisionReplica>> replicas_;
};

/// The baseline: two-layer tree + streaming center + VDN controller.
class HierSystem final : public CdnSystem {
 public:
  explicit HierSystem(const SystemConfig& cfg) : CdnSystem(cfg) {}

  void build() override;
  void start() override {}
  sim::NodeId map_client_to_edge(const workload::GeoSite& site)
      const override;
  std::vector<sim::NodeId> edge_nodes() const override;

  hier::HierControl& controller() { return *control_; }
  const std::vector<sim::NodeId>& l1_ids() const { return l1_ids_; }
  const std::vector<sim::NodeId>& l2_ids() const { return l2_ids_; }
  sim::NodeId center_id() const { return center_id_; }

 private:
  std::vector<std::unique_ptr<hier::HierNode>> nodes_;
  std::vector<sim::NodeId> l1_ids_;
  std::vector<sim::NodeId> l2_ids_;
  sim::NodeId center_id_ = sim::kNoNode;
  std::unique_ptr<hier::HierControl> control_;
};

}  // namespace livenet
