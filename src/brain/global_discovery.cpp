#include "brain/global_discovery.h"

#include <cmath>

namespace livenet::brain {

namespace {

/// Proxy for the abstracted link weight with neutral node utilization;
/// used only for relative-change detection.
double proxy_weight(const LinkState& ls) { return link_weight(ls, 0.0, 0.0); }

}  // namespace

void GlobalDiscovery::on_report(const overlay::NodeStateReport& report,
                                Time now, Pib* pib) {
  auto& view = nodes_[report.node];
  // Node dirtiness: first sighting, a meaningful load move, or an
  // overload-threshold crossing (which flips the routing constraints).
  const bool first_node = view.last_report == kNever;
  const bool load_moved =
      std::abs(report.node_load - view.load) >= kLoadAbs;
  const bool node_crossed = (view.load >= threshold_) !=
                            (report.node_load >= threshold_);
  if (first_node || load_moved || node_crossed) {
    mark_node_dirty(report.node);
  }
  view.load = report.node_load;
  view.last_report = now;
  for (const auto& lr : report.links) {
    LinkState& ls = view.links[lr.to];
    // Link dirtiness: new link, a relative proxy-weight move beyond the
    // threshold, or a utilization crossing of the overload bar.
    bool dirty = !ls.valid;
    if (!dirty) {
      const double before = proxy_weight(ls);
      LinkState next = ls;
      next.rtt = lr.rtt;
      next.loss_rate = lr.loss_rate;
      next.utilization = lr.utilization;
      const double after = proxy_weight(next);
      if (before > 0.0 &&
          std::abs(after - before) / before >= kWeightRel) {
        dirty = true;
      }
      if ((ls.utilization >= threshold_) != (lr.utilization >= threshold_)) {
        dirty = true;
      }
    }
    if (dirty) mark_link_dirty(report.node, lr.to);
    ls.rtt = lr.rtt;
    ls.loss_rate = lr.loss_rate;
    ls.utilization = lr.utilization;
    ls.valid = true;
  }

  if (pib == nullptr) return;
  // A healthy report clears earlier real-time overload marks.
  if (report.node_load < threshold_) {
    pib->clear_node_overloaded(report.node);
  }
  for (const auto& lr : report.links) {
    if (lr.utilization < threshold_) {
      pib->clear_link_overloaded(report.node, lr.to);
    }
  }
}

void GlobalDiscovery::on_alarm(const overlay::OverloadAlarm& alarm,
                               Pib* pib) {
  auto& view = nodes_[alarm.node];
  view.load = alarm.node_load;
  // Alarms always dirty the affected elements: the next routing cycle
  // must reconsider them no matter how small the numeric delta.
  mark_node_dirty(alarm.node);
  for (const sim::NodeId peer : alarm.overloaded_links) {
    mark_link_dirty(alarm.node, peer);
  }
  if (pib == nullptr) return;
  if (alarm.node_load >= threshold_) {
    pib->mark_node_overloaded(alarm.node);
  }
  for (const sim::NodeId peer : alarm.overloaded_links) {
    pib->mark_link_overloaded(alarm.node, peer);
  }
}

double GlobalDiscovery::node_load(sim::NodeId n) const {
  const auto it = nodes_.find(n);
  return it != nodes_.end() ? it->second.load : 0.0;
}

const GlobalDiscovery::NodeView* GlobalDiscovery::find_node(
    sim::NodeId n) const {
  const auto it = nodes_.find(n);
  return it != nodes_.end() ? &it->second : nullptr;
}

const LinkState* GlobalDiscovery::link(sim::NodeId a, sim::NodeId b) const {
  const auto it = nodes_.find(a);
  if (it == nodes_.end()) return nullptr;
  const auto lit = it->second.links.find(b);
  return lit != it->second.links.end() ? &lit->second : nullptr;
}

void GlobalDiscovery::dirty_since(
    std::uint64_t since,
    std::vector<std::pair<sim::NodeId, sim::NodeId>>* links,
    std::vector<sim::NodeId>* nodes) const {
  for (const auto& [key, seq] : dirty_links_) {
    if (seq > since) {
      links->emplace_back(static_cast<sim::NodeId>(key >> 32),
                          static_cast<sim::NodeId>(key & 0xFFFFFFFFu));
    }
  }
  for (const auto& [n, seq] : dirty_nodes_) {
    if (seq > since) nodes->push_back(n);
  }
}

}  // namespace livenet::brain
