#include "overlay/overlay_node.h"

#include "telemetry/trace.h"
#include "util/logging.h"

namespace livenet::overlay {

using media::RtpPacket;
using media::RtpPacketPtr;
using media::StreamId;
using sim::NodeId;

OverlayNode::OverlayNode(sim::Network* net, OverlayMetrics* metrics,
                         const OverlayNodeConfig& cfg)
    : net_(net),
      metrics_(metrics),
      cfg_(cfg),
      senders_(net, this, cfg_.sender),
      recovery_(net, this,
                RecoveryEngine::Config{cfg_.receiver, cfg_.packet_cache_gops,
                                       cfg_.packet_cache_max_packets,
                                       /*telemetry=*/true,
                                       cfg_.multi_supplier_rtx}),
      forwarding_(&cfg_, &env_, &senders_),
      session_(net, this, metrics,
               SessionConfig{cfg_.fast_proc_delay, cfg_.switch_stall_threshold,
                             cfg_.switch_skip_threshold,
                             /*downgrade_pressure_packets=*/150,
                             /*eager_view_state=*/true},
               &streams_),
      control_(&cfg_, &env_, &streams_, &senders_, &recovery_, &session_,
               &forwarding_) {
  env_.net = net;
  env_.owner = this;
  wire_engines();
}

void OverlayNode::wire_engines() {
  forwarding_.set_session(&session_);
  session_.wire_data_plane(&senders_, &recovery_,
                           &forwarding_.egress_meter());
  SessionLayer::Hooks hooks;
  hooks.carries_stream = [this](StreamId s) {
    return control_.carries_stream(s);
  };
  hooks.maybe_release = [this](StreamId s) { control_.maybe_release_stream(s); };
  hooks.want_stream = [this](StreamId s) { control_.request_path(s); };
  hooks.acquire_local = [this](StreamId s) {
    return control_.acquire_for_view(s);
  };
  hooks.want_stream_for_switch = [this](StreamId s) {
    control_.fetch_for_switch(s);
  };
  hooks.quality_switch = [this](StreamId s) { control_.switch_path(s); };
  hooks.downstream_mask_changed = [this](StreamId s) {
    control_.update_upstream_mask(s);
  };
  session_.set_hooks(std::move(hooks));

  recovery_.set_hooks(
      [this](const RtpPacketPtr& pkt) { on_slow_path_delivery(pkt); },
      [](StreamId) {});
  recovery_.set_supplier_source(
      [this](StreamId s) -> const std::vector<NodeId>* {
        const StreamContext* ctx = streams_.find_context(s);
        return ctx != nullptr ? &ctx->suppliers : nullptr;
      });
}

OverlayNode::~OverlayNode() {
  auto* loop = net_->loop();
  control_.cancel_timers();
  streams_.for_each_context([loop](StreamId, StreamContext& ctx) {
    if (ctx.linger_timer != sim::kInvalidEvent) loop->cancel(ctx.linger_timer);
  });
}

void OverlayNode::set_overlay_peers(std::vector<NodeId> peers) {
  env_.peers = std::move(peers);
  env_.peer_set.clear();
  env_.peer_set.insert(env_.peers.begin(), env_.peers.end());
}

// ----------------------------------------------------------- fault hooks

void OverlayNode::crash() {
  auto* loop = net_->loop();
  control_.crash_reset();
  streams_.for_each_context([loop](StreamId, StreamContext& ctx) {
    if (ctx.linger_timer != sim::kInvalidEvent) loop->cancel(ctx.linger_timer);
  });
  // Everything below is in-memory process state and dies with the
  // process. Downstream nodes notice the silence through their own
  // quality loops and re-route; they are not notified explicitly.
  // (Counters and the egress meter survive, as a node's lifetime
  // totals did before.)
  streams_.clear();
  recovery_.reset();
  forwarding_.reset_fec();
  senders_.clear();
  session_.clear();
}

// --------------------------------------------------------------- dispatch

void OverlayNode::on_message(NodeId from, const sim::MessagePtr& msg) {
  if (const auto rtp = sim::msg_cast<const RtpPacket>(msg)) {
    handle_rtp(from, rtp);
    return;
  }
  if (const auto nack =
          sim::msg_cast<const media::NackMessage>(msg)) {
    LinkSender& snd = senders_.sender_for(from);
    const auto unserved =
        snd.on_nack(nack->stream_id, nack->audio, nack->missing);
    // Paper §3: serve remaining holes from the slow path's cached copy
    // (covers packets this node recovered but never fast-forwarded).
    // Only for overlay peers: client-facing flows use rewritten seq
    // numbers that do not index the cache.
    if (!nack->audio && env_.peer_set.count(from) != 0) {
      const StreamFib::Entry* e = streams_.find(nack->stream_id);
      recovery_.serve_nack_fallback(
          snd, from, nack->stream_id, unserved,
          e != nullptr ? e->node_mask(from) : media::kAllLayers);
    }
    return;
  }
  if (const auto nv = sim::msg_cast<const media::NackVoidMessage>(msg)) {
    // A supplier's answer for holes its mask-filtering created on
    // purpose: convert them to voids on the owning pipeline so the
    // in-order drain stops waiting for an RTX that will never come.
    recovery_.on_void_notice(from, nv->stream_id, nv->audio, nv->voided);
    return;
  }
  if (const auto fb =
          sim::msg_cast<const media::CcFeedbackMessage>(msg)) {
    senders_.sender_for(from).on_cc_feedback(fb->remb_bps, fb->loss_fraction);
    return;
  }
  if (const auto view = sim::msg_cast<const ViewRequest>(msg)) {
    session_.handle_view_request(from, *view);
    return;
  }
  if (const auto stop = sim::msg_cast<const ViewStop>(msg)) {
    session_.handle_view_stop(from, *stop);
    return;
  }
  if (const auto pub = sim::msg_cast<const PublishRequest>(msg)) {
    control_.handle_publish(from, *pub);
    return;
  }
  if (const auto resp = sim::msg_cast<const PathResponse>(msg)) {
    control_.handle_path_response(*resp);
    return;
  }
  if (const auto push = sim::msg_cast<const PathPush>(msg)) {
    control_.handle_path_push(*push);
    return;
  }
  if (const auto sub = sim::msg_cast<const SubscribeRequest>(msg)) {
    control_.handle_subscribe(from, *sub);
    return;
  }
  if (const auto ack = sim::msg_cast<const SubscribeAck>(msg)) {
    control_.handle_subscribe_ack(from, *ack);
    return;
  }
  if (const auto unsub =
          sim::msg_cast<const UnsubscribeRequest>(msg)) {
    control_.handle_unsubscribe(from, *unsub);
    return;
  }
  if (const auto lmu = sim::msg_cast<const LayerMaskUpdate>(msg)) {
    // From a downstream peer: fold into the FIB's node masks; from a
    // viewer: a client-side quality flip handled by the session layer.
    if (env_.peer_set.count(from) != 0) {
      control_.handle_layer_mask_update(from, *lmu);
    } else {
      session_.handle_layer_mask_request(from, *lmu);
    }
    return;
  }
  if (const auto qrep =
          sim::msg_cast<const ClientQualityReport>(msg)) {
    session_.handle_quality_report(from, *qrep);
    return;
  }
  if (const auto pstop = sim::msg_cast<const PublishStop>(msg)) {
    control_.handle_publish_stop(from, *pstop);
    return;
  }
  if (const auto notice =
          sim::msg_cast<const StreamSwitchNotice>(msg)) {
    control_.handle_switch_notice(from, *notice);
    return;
  }
  if (const auto mig = sim::msg_cast<const ProducerMigrate>(msg)) {
    // Arrived from the (re-homed) broadcaster: relay to the Brain.
    if (env_.brain != sim::kNoNode) net_->send(node_id(), env_.brain, mig);
    return;
  }
  if (const auto relay =
          sim::msg_cast<const ProducerRelayInstruction>(msg)) {
    control_.handle_producer_relay(*relay);
    return;
  }
  LIVENET_LOG(kWarn) << "node " << node_id() << ": unhandled "
                     << msg->describe();
}

// -------------------------------------------------------------- data path

void OverlayNode::handle_rtp(NodeId from, const RtpPacketPtr& pkt_in) {
  // The single per-packet table probe: the resolved context rides along
  // the whole fast path (the old split maps paid a second FIB probe
  // inside the forwarding step).
  StreamContext* ctx = streams_.find_context(pkt_in->stream_id());
  if (ctx == nullptr || !ctx->fib_active) {
    return;  // late packet for a released stream
  }

  // Parity packets are link-local redundancy: they feed only the slow
  // path's FEC decoder (which may hand reconstructed media back to the
  // receive buffer). They are never forwarded, stamped, or cached.
  if (pkt_in->is_fec_parity()) {
    recovery_.ingest(from, pkt_in);
    return;
  }

  RtpPacketPtr pkt = pkt_in;
  if (pkt->cdn_ingress_time == kNever && ctx->fib.locally_produced) {
    // CDN ingress (producer role): stamp entry time and reset hop count.
    auto stamped = pkt_in->fork();
    stamped->cdn_ingress_time = net_->loop()->now();
    stamped->cdn_hops = 0;
    pkt = std::move(stamped);
    telemetry::record_hop(pkt->trace_id(), net_->loop()->now(),
                          pkt->stream_id(), pkt->producer_seq(), node_id(),
                          from, telemetry::HopEvent::kIngress);
  }

  if (cfg_.fast_path_enabled) {
    forwarding_.fast_forward(from, pkt, ctx);
  }
  recovery_.ingest(from, pkt);
}

void OverlayNode::on_slow_path_delivery(const RtpPacketPtr& pkt) {
  recovery_.cache().add(pkt);
  control_.ensure_stream(pkt->stream_id());
  session_.maybe_flip_costream(pkt->stream_id());

  // Views that were queued while a locally-cached path was being
  // established attach as soon as content lands (the lookup-based path
  // attaches via handle_path_response instead).
  session_.flush_pending_attach(pkt->stream_id());

  if (!cfg_.fast_path_enabled) {
    // Ablation mode: forward from the ordered output only.
    const StreamContext* ctx = streams_.find_context(pkt->stream_id());
    const NodeId from = ctx != nullptr && ctx->fib_active
                            ? ctx->fib.upstream
                            : sim::kNoNode;
    forwarding_.fast_forward(from, pkt, ctx);
  }
}

}  // namespace livenet::overlay
