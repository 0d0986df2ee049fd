#include "brain/global_discovery.h"

namespace livenet::brain {

void OverloadMarks::apply(Pib* pib) const {
  if (clear_node) pib->clear_node_overloaded(node);
  for (const sim::NodeId peer : clear_links) {
    pib->clear_link_overloaded(node, peer);
  }
  if (mark_node) pib->mark_node_overloaded(node);
  for (const sim::NodeId peer : mark_links) {
    pib->mark_link_overloaded(node, peer);
  }
}

void GlobalDiscovery::on_report(const overlay::NodeStateReport& report,
                                Time now, Pib* pib) {
  auto& view = nodes_[report.node];
  view.load = report.node_load;
  view.last_report = now;
  for (const auto& lr : report.links) {
    LinkState& ls = view.links[lr.to];
    ls.rtt = lr.rtt;
    ls.loss_rate = lr.loss_rate;
    ls.utilization = lr.utilization;
    ls.valid = true;
  }
  if (pib != nullptr) overload_marks(report).apply(pib);
}

void GlobalDiscovery::on_alarm(const overlay::OverloadAlarm& alarm,
                               Pib* pib) {
  nodes_[alarm.node].load = alarm.node_load;
  if (pib != nullptr) overload_marks(alarm).apply(pib);
}

OverloadMarks GlobalDiscovery::overload_marks(
    const overlay::NodeStateReport& report) const {
  // A healthy report clears earlier real-time overload marks.
  OverloadMarks m;
  m.node = report.node;
  m.clear_node = report.node_load < threshold_;
  for (const auto& lr : report.links) {
    if (lr.utilization < threshold_) m.clear_links.push_back(lr.to);
  }
  return m;
}

OverloadMarks GlobalDiscovery::overload_marks(
    const overlay::OverloadAlarm& alarm) const {
  OverloadMarks m;
  m.node = alarm.node;
  m.mark_node = alarm.node_load >= threshold_;
  m.mark_links = alarm.overloaded_links;
  return m;
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

}  // namespace livenet::brain
