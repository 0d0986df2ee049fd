#include "brain/replica.h"

#include <sstream>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace livenet::brain {

std::string ReplicaPibUpdate::describe() const {
  std::ostringstream ss;
  ss << "PIBUPD v" << version << " n=" << entries.size();
  return ss.str();
}

std::string ReplicaSibUpdate::describe() const {
  std::ostringstream ss;
  ss << "SIBUPD s" << stream_id << " prod=" << producer
     << (active ? " up" : " down");
  return ss.str();
}

std::string ReplicaOverloadUpdate::describe() const {
  std::ostringstream ss;
  ss << "OVLUPD n" << marks.node << " +" << marks.mark_links.size() << " -"
     << marks.clear_links.size();
  return ss.str();
}

void PathDecisionReplica::on_message(sim::NodeId from,
                                     const sim::MessagePtr& msg) {
  if (const auto req =
          sim::msg_cast<const overlay::PathRequest>(msg)) {
    handle_path_request(from, *req);
    return;
  }
  if (const auto upd = sim::msg_cast<const ReplicaPibUpdate>(msg)) {
    // Full refresh: consistency with the primary is eventual, bounded
    // by one propagation delay per routing cycle (Paxos-grade
    // replication in production; a reliable control link here).
    pib_.clear();
    for (const auto& e : upd->entries) {
      pib_.set_paths(e.src, e.dst, e.paths);
      if (!e.last_resort.empty()) {
        pib_.set_last_resort(e.src, e.dst, e.last_resort);
      }
    }
    pib_version_ = upd->version;
    return;
  }
  if (const auto sib = sim::msg_cast<const ReplicaSibUpdate>(msg)) {
    if (sib->active) {
      sib_.set_producer(sib->stream_id, sib->producer);
    } else {
      sib_.erase(sib->stream_id);
    }
    return;
  }
  if (const auto ovl =
          sim::msg_cast<const ReplicaOverloadUpdate>(msg)) {
    ovl->marks.apply(&pib_);
    return;
  }
  LIVENET_LOG(kWarn) << "replica: unhandled " << msg->describe();
}

void PathDecisionReplica::handle_path_request(
    sim::NodeId from, const overlay::PathRequest& req) {
  const Time now = net_->loop()->now();
  const Time start = std::max(now, busy_until_);
  busy_until_ = start + cfg_.request_service_time;
  const Duration response_time = busy_until_ - now;

  PathDecision::Lookup lookup =
      path_decision_.get_path(req.stream_id, req.consumer);
  metrics_.path_requests.push_back(BrainMetrics::PathRequestLog{
      now, response_time, lookup.last_resort, lookup.stream_known});
  telemetry::handles().path_requests_served->add();

  auto resp = sim::make_message<overlay::PathResponse>();
  resp->request_id = req.request_id;
  resp->stream_id = req.stream_id;
  resp->paths = std::move(lookup.paths);
  resp->last_resort = lookup.last_resort;
  net_->loop()->schedule_at(busy_until_, [this, from, resp] {
    net_->send(node_id(), from, resp);
  });
}

}  // namespace livenet::brain
