#include "hier/hier_control.h"

#include <algorithm>

#include "util/logging.h"

namespace livenet::hier {

using sim::NodeId;

void HierControl::on_message(NodeId from, const sim::MessagePtr& msg) {
  const auto req = sim::msg_cast<const MapRequest>(msg);
  if (!req) {
    LIVENET_LOG(kWarn) << "hier control: unhandled " << msg->describe();
    return;
  }
  ++requests_served_;
  const Time now = net_->loop()->now();
  const Time start = std::max(now, busy_until_);
  busy_until_ = start + kRequestServiceTime;

  auto resp = sim::make_message<MapResponse>();
  resp->request_id = req->request_id;
  resp->stream_id = req->stream_id;
  resp->l2 = pick_l2(req->stream_id, req->l1);
  net_->loop()->schedule_at(busy_until_, [this, from, resp] {
    net_->send(node_id(), from, resp);
  });
}

NodeId HierControl::pick_l2(media::StreamId stream, NodeId l1) {
  if (l2s_.empty()) return sim::kNoNode;

  // Latency-aware mapping (VDN-style utility): L1s use their
  // geographically-affine L2 — the distribution tree fans out through
  // nearby infrastructure — unless that L2 is markedly hotter than the
  // least-loaded alternative.
  auto& carrying = stream_l2s_[stream];
  NodeId least = l2s_.front();
  for (const NodeId l2 : l2s_) {
    if (l2_assignments_[l2] < l2_assignments_[least]) least = l2;
  }
  NodeId chosen = least;
  const auto aff = affinity_.find(l1);
  if (aff != affinity_.end() &&
      l2_assignments_[aff->second] <= l2_assignments_[least] + 16) {
    chosen = aff->second;
  }
  ++l2_assignments_[chosen];
  if (std::find(carrying.begin(), carrying.end(), chosen) == carrying.end()) {
    carrying.push_back(chosen);
  }
  return chosen;
}

}  // namespace livenet::hier
