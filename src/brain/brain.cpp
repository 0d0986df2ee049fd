#include "brain/brain.h"

#include "brain/replica.h"

#include <algorithm>
#include <chrono>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace livenet::brain {

using overlay::OverloadAlarm;
using overlay::NodeStateReport;
using overlay::PathRequest;
using overlay::PathResponse;
using overlay::PathPush;
using overlay::StreamRegister;

BrainNode::BrainNode(sim::Network* net, const BrainConfig& cfg)
    : net_(net), cfg_(cfg), discovery_(cfg.routing.overload_threshold),
      routing_(cfg.routing), path_decision_(&pib_, &sib_) {}

BrainNode::~BrainNode() {
  if (routing_timer_ != sim::kInvalidEvent) {
    net_->loop()->cancel(routing_timer_);
  }
}

void BrainNode::set_overlay_nodes(std::vector<sim::NodeId> nodes) {
  overlay_nodes_ = std::move(nodes);
}

void BrainNode::set_last_resort_nodes(std::vector<sim::NodeId> nodes) {
  last_resort_nodes_ = std::move(nodes);
}

void BrainNode::set_replicas(std::vector<sim::NodeId> replicas) {
  replicas_ = std::move(replicas);
}

void BrainNode::sync_replicas_pib() {
  if (replicas_.empty()) return;
  ++pib_version_;
  auto update = sim::make_message<ReplicaPibUpdate>();
  update->version = pib_version_;
  for (const auto& [src, dst] : pib_.pairs()) {
    ReplicaPibUpdate::Entry e;
    e.src = src;
    e.dst = dst;
    if (const auto* paths = pib_.find(src, dst)) e.paths = *paths;
    e.last_resort = pib_.last_resort(src, dst);
    update->entries.push_back(std::move(e));
  }
  for (const auto r : replicas_) {
    net_->send(node_id(), r, update);
  }
}

void BrainNode::mirror_overload(OverloadMarks marks) {
  if (marks.empty()) return;
  auto upd = sim::make_message<ReplicaOverloadUpdate>();
  upd->marks = std::move(marks);
  for (const auto r : replicas_) net_->send(node_id(), r, upd);
}

void BrainNode::start() {
  recompute_routes();
  if (routing_timer_ == sim::kInvalidEvent) {
    routing_timer_ = net_->loop()->schedule_after(
        cfg_.routing_interval, [this] {
          routing_timer_ = sim::kInvalidEvent;
          start();
        });
  }
}

void BrainNode::recompute_routes() {
  const auto wall_start = std::chrono::steady_clock::now();
  metrics_.last_recompute = routing_.recompute(
      discovery_, overlay_nodes_, last_resort_nodes_, &pib_);
  const auto wall_end = std::chrono::steady_clock::now();
  ++metrics_.recomputes;
  const auto& tel = telemetry::handles();
  tel.brain_pairs_solved->add(metrics_.last_recompute.pairs_solved);
  tel.brain_last_resort_pairs->add(
      metrics_.last_recompute.last_resort_pairs);
  tel.brain_recompute_ms->observe(
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count());
  tel.brain_graph_build_ms->observe(metrics_.last_recompute.graph_build_ms);
  tel.brain_solve_ms->observe(metrics_.last_recompute.solve_ms);
  tel.brain_install_ms->observe(metrics_.last_recompute.install_ms);
  tel.brain_threads->set_max(static_cast<double>(cfg_.routing.threads));
  push_popular_paths();
  sync_replicas_pib();
}

void BrainNode::push_popular_paths() {
  const auto popular = stream_mgmt_.popular_streams(cfg_.push_top_n, sib_);
  for (const media::StreamId s : popular) {
    const sim::NodeId producer = sib_.producer_of(s);
    if (producer == sim::kNoNode) continue;
    for (const sim::NodeId node : overlay_nodes_) {
      if (node == producer) continue;
      auto paths = pib_.valid_paths(producer, node);
      if (paths.empty()) continue;
      auto push = sim::make_message<PathPush>();
      push->stream_id = s;
      push->paths = std::move(paths);
      net_->send(node_id(), node, std::move(push));
    }
  }
}

void BrainNode::on_message(sim::NodeId from, const sim::MessagePtr& msg) {
  if (const auto req = sim::msg_cast<const PathRequest>(msg)) {
    handle_path_request(from, *req);
    return;
  }
  if (const auto reg = sim::msg_cast<const StreamRegister>(msg)) {
    stream_mgmt_.on_register(*reg, &sib_);
    for (const auto r : replicas_) {
      auto upd = sim::make_message<ReplicaSibUpdate>();
      upd->stream_id = reg->stream_id;
      upd->producer = reg->producer;
      upd->active = reg->active;
      net_->send(node_id(), r, std::move(upd));
    }
    return;
  }
  if (const auto rep = sim::msg_cast<const NodeStateReport>(msg)) {
    ++metrics_.reports_received;
    discovery_.on_report(*rep, net_->loop()->now(), &pib_);
    if (!replicas_.empty()) mirror_overload(discovery_.overload_marks(*rep));
    return;
  }
  if (const auto alarm = sim::msg_cast<const OverloadAlarm>(msg)) {
    ++metrics_.alarms_received;
    discovery_.on_alarm(*alarm, &pib_);
    if (!replicas_.empty()) {
      mirror_overload(discovery_.overload_marks(*alarm));
    }
    return;
  }
  if (const auto mig =
          sim::msg_cast<const overlay::ProducerMigrate>(msg)) {
    // Broadcaster mobility (§7.1): instruct the old producer to relay
    // from the new one — which is the node that relayed this message
    // (`from`); its StreamRegister may still be in flight, so the SIB
    // is not consulted here. Fresh lookups route to the new producer as
    // soon as the registration lands; existing overlay paths keep
    // flowing through the old node unchanged.
    const sim::NodeId new_producer = from;
    for (const media::StreamId s : mig->streams) {
      if (mig->old_producer == sim::kNoNode ||
          new_producer == mig->old_producer) {
        continue;
      }
      auto instr = sim::make_message<overlay::ProducerRelayInstruction>();
      instr->stream_id = s;
      instr->new_producer = new_producer;
      net_->send(node_id(), mig->old_producer, std::move(instr));
    }
    return;
  }
  LIVENET_LOG(kWarn) << "brain: unhandled " << msg->describe();
}

void BrainNode::handle_path_request(sim::NodeId from,
                                    const PathRequest& req) {
  stream_mgmt_.note_request(req.stream_id);

  // Single-server queue: the request waits behind earlier ones, then
  // takes one service time. The response leaves when service completes.
  const Time now = net_->loop()->now();
  const Time start = std::max(now, busy_until_);
  busy_until_ = start + cfg_.request_service_time;
  const Duration response_time = busy_until_ - now;

  PathDecision::Lookup lookup =
      path_decision_.get_path(req.stream_id, req.consumer);

  metrics_.path_requests.push_back(BrainMetrics::PathRequestLog{
      now, response_time, lookup.last_resort, lookup.stream_known});
  telemetry::handles().path_requests_served->add();

  auto resp = sim::make_message<PathResponse>();
  resp->request_id = req.request_id;
  resp->stream_id = req.stream_id;
  resp->paths = std::move(lookup.paths);
  resp->last_resort = lookup.last_resort;
  net_->loop()->schedule_at(busy_until_, [this, from, resp] {
    net_->send(node_id(), from, resp);
  });
}

}  // namespace livenet::brain
