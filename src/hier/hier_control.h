#pragma once

#include <unordered_map>
#include <vector>

#include "hier/messages.h"
#include "sim/network.h"
#include "sim/sim_node.h"
#include "util/time.h"

// The VDN-style centralized controller of the Hier baseline (§2.2): it
// maps L1 nodes to L2 nodes per stream, balancing assignment counts
// across L2s while preferring L2s that already carry the stream (to
// maximize fan-in sharing — the hierarchical analogue of a cache hit).
namespace livenet::hier {

class HierControl final : public sim::SimNode {
 public:
  explicit HierControl(sim::Network* net) : net_(net) {}

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  void set_l2_nodes(std::vector<sim::NodeId> l2s) { l2s_ = std::move(l2s); }

  /// Optional static affinity: preferred L2 per L1 (geographic
  /// closeness); the controller deviates from it under load skew.
  void set_affinity(sim::NodeId l1, sim::NodeId l2) { affinity_[l1] = l2; }

  std::uint64_t requests_served() const { return requests_served_; }

 private:
  static constexpr Duration kRequestServiceTime = 2 * kMs;

  sim::NodeId pick_l2(media::StreamId stream, sim::NodeId l1);

  sim::Network* net_;
  std::vector<sim::NodeId> l2s_;
  std::unordered_map<sim::NodeId, sim::NodeId> affinity_;
  std::unordered_map<media::StreamId, std::vector<sim::NodeId>>
      stream_l2s_;  ///< L2s already carrying each stream
  std::unordered_map<sim::NodeId, std::uint64_t> l2_assignments_;
  Time busy_until_ = 0;
  std::uint64_t requests_served_ = 0;
};

}  // namespace livenet::hier
