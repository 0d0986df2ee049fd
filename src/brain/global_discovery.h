#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "brain/pib.h"
#include "brain/routing_graph.h"
#include "overlay/messages.h"
#include "util/time.h"

// Global Discovery module (paper §4.2): collects the 1-minute state
// reports from overlay nodes into the global view used by Global
// Routing, and reacts to real-time overload alarms by invalidating the
// affected PIB entries immediately (without waiting for the 10-minute
// routing cycle).
//
// Discovery also keeps a *dirty set*: links whose abstracted weight
// moved beyond a relative threshold (and nodes whose load moved beyond
// an absolute one) since they were last consumed by a routing cycle.
// Every dirty mark gets a monotonic sequence number, so Global Routing
// can ask "what changed since sequence S" without Discovery having to
// know about routing cycles (or be mutated by them).
namespace livenet::brain {

class GlobalDiscovery {
 public:
  struct NodeView {
    double load = 0.0;
    Time last_report = kNever;
    std::unordered_map<sim::NodeId, LinkState> links;
  };

  explicit GlobalDiscovery(double overload_threshold = 0.8)
      : threshold_(overload_threshold) {}

  /// Periodic report: refreshes the global view; clears overload marks
  /// for elements the report shows healthy again.
  void on_report(const overlay::NodeStateReport& report, Time now, Pib* pib);

  /// Real-time alarm: marks the node/links overloaded in the PIB.
  void on_alarm(const overlay::OverloadAlarm& alarm, Pib* pib);

  const std::unordered_map<sim::NodeId, NodeView>& nodes() const {
    return nodes_;
  }
  double node_load(sim::NodeId n) const;
  const LinkState* link(sim::NodeId a, sim::NodeId b) const;

  /// Whole per-node view (load + link table) in one probe, or nullptr
  /// for a node never reported. Graph construction iterates the link
  /// table directly through this instead of probing link(a, b) for
  /// every candidate pair — O(nodes + links) hash work per cycle
  /// rather than O(n^2).
  const NodeView* find_node(sim::NodeId n) const;

  /// Sequence number of the newest dirty mark (0 = nothing ever moved).
  std::uint64_t dirty_seq() const { return dirty_seq_; }

  /// Appends every link/node marked dirty *after* `since` (a value
  /// previously returned by dirty_seq()). Links are (from, to) node-id
  /// pairs.
  void dirty_since(std::uint64_t since,
                   std::vector<std::pair<sim::NodeId, sim::NodeId>>* links,
                   std::vector<sim::NodeId>* nodes) const;

 private:
  // Thresholds below which a state change is not worth re-routing for.
  static constexpr double kWeightRel = 0.10;  ///< relative link weight change
  static constexpr double kLoadAbs = 0.05;    ///< absolute node-load change

  static std::uint64_t link_key(sim::NodeId a, sim::NodeId b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }
  void mark_link_dirty(sim::NodeId a, sim::NodeId b) {
    dirty_links_[link_key(a, b)] = ++dirty_seq_;
  }
  void mark_node_dirty(sim::NodeId n) { dirty_nodes_[n] = ++dirty_seq_; }

  double threshold_;
  std::unordered_map<sim::NodeId, NodeView> nodes_;

  std::uint64_t dirty_seq_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> dirty_links_;  ///< key->seq
  std::unordered_map<sim::NodeId, std::uint64_t> dirty_nodes_;
};

}  // namespace livenet::brain
