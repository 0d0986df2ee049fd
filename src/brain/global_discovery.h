#pragma once

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
namespace livenet::brain {

/// The real-time overload marks and clears one report or alarm implies.
/// Discovery decides them in one place; the primary Brain applies them
/// to its PIB and ships the same value to every Path Decision replica,
/// so all PIBs agree on which nodes and links are hot.
struct OverloadMarks {
  sim::NodeId node = sim::kNoNode;
  bool mark_node = false;
  bool clear_node = false;
  std::vector<sim::NodeId> mark_links;   ///< peers of links to mark
  std::vector<sim::NodeId> clear_links;  ///< peers of links to clear

  bool empty() const {
    return !mark_node && !clear_node && mark_links.empty() &&
           clear_links.empty();
  }
  void apply(Pib* pib) const;
};

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

  /// What on_report() applies to its PIB: a node below the threshold
  /// and every link reported below it are cleared.
  OverloadMarks overload_marks(const overlay::NodeStateReport& report) const;

  /// What on_alarm() applies to its PIB: the node if its load is at or
  /// above the threshold, and every link the alarm names.
  OverloadMarks overload_marks(const overlay::OverloadAlarm& alarm) const;

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

 private:
  double threshold_;
  std::unordered_map<sim::NodeId, NodeView> nodes_;
};

}  // namespace livenet::brain
