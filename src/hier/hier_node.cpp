#include "hier/hier_node.h"

#include "util/logging.h"

namespace livenet::hier {

using media::RtpPacket;
using media::RtpPacketPtr;
using media::StreamId;
using overlay::StreamContext;
using sim::NodeId;

HierNode::HierNode(sim::Network* net, overlay::OverlayMetrics* metrics,
                   const HierNodeConfig& cfg)
    : net_(net), metrics_(metrics), cfg_(cfg),
      senders_(net, this, cfg_.sender),
      recovery_(net, this,
                overlay::RecoveryEngine::Config{.receiver = {},
                                                .telemetry = false,
                                                .multi_supplier = false},
                &streams_),
      session_(net, this, metrics,
               overlay::SessionConfig{
                   .client_extra_delay = 0,
                   // Hier has no simulcast ladder to preserve across a
                   // deferred attach; the view state appears on attach.
                   .eager_view_state = false},
               &streams_) {
  overlay::SessionLayer::Hooks hooks;
  hooks.carries_stream = [this](StreamId s) { return carries_stream(s); };
  hooks.maybe_release = [this](StreamId s) { maybe_release_stream(s); };
  hooks.want_stream = [this](StreamId s) { subscribe_upstream(s); };
  hooks.serve_burst = [this](NodeId client, overlay::ClientViewState& view) {
    serve_client_burst(client, view);
  };
  session_.set_hooks(std::move(hooks));

  recovery_.set_deliver([this](const RtpPacketPtr& pkt) {
    // Hier forwards only the ordered output and serves pending viewers
    // once content lands.
    forward_ordered(pkt);
    session_.flush_pending_attach(pkt->stream_id());
  });
}

HierNode::~HierNode() {
  auto* loop = net_->loop();
  streams_.for_each_context([loop](StreamId, StreamContext& ctx) {
    if (ctx.linger_timer != sim::kInvalidEvent) loop->cancel(ctx.linger_timer);
  });
}

Duration HierNode::hop_processing_delay() const {
  Duration d = cfg_.full_stack_delay;
  if (cfg_.role == HierRole::kCenter) d += cfg_.center_extra_delay;
  return d;
}

void HierNode::on_message(NodeId from, const sim::MessagePtr& msg) {
  if (const auto rtp = sim::msg_cast<const RtpPacket>(msg)) {
    handle_rtp(from, rtp);
    return;
  }
  if (const auto nack =
          sim::msg_cast<const media::NackMessage>(msg)) {
    overlay::LinkSender& snd = senders_.sender_for(from);
    const auto unserved =
        snd.on_nack(nack->stream_id, nack->audio, nack->missing);
    if (!nack->audio) {
      recovery_.serve_nack_fallback(snd, from, nack->stream_id, unserved);
    }
    return;
  }
  if (const auto fb =
          sim::msg_cast<const media::CcFeedbackMessage>(msg)) {
    senders_.sender_for(from).on_cc_feedback(fb->remb_bps, fb->loss_fraction);
    return;
  }
  if (const auto view =
          sim::msg_cast<const overlay::ViewRequest>(msg)) {
    session_.handle_view_request(from, *view);
    return;
  }
  if (const auto stop = sim::msg_cast<const overlay::ViewStop>(msg)) {
    session_.handle_view_stop(from, *stop);
    return;
  }
  if (const auto pub =
          sim::msg_cast<const overlay::PublishRequest>(msg)) {
    handle_publish(from, *pub);
    return;
  }
  if (const auto pstop =
          sim::msg_cast<const overlay::PublishStop>(msg)) {
    release_stream(pstop->stream_id);
    return;
  }
  if (const auto sub = sim::msg_cast<const HierSubscribe>(msg)) {
    handle_subscribe(from, *sub);
    return;
  }
  if (const auto unsub =
          sim::msg_cast<const HierUnsubscribe>(msg)) {
    handle_unsubscribe(from, *unsub);
    return;
  }
  if (const auto map = sim::msg_cast<const MapResponse>(msg)) {
    handle_map_response(*map);
    return;
  }
  if (sim::msg_cast<const overlay::ClientQualityReport>(msg)) {
    return;  // Hier has no quality-driven re-routing
  }
  LIVENET_LOG(kWarn) << "hier node " << node_id() << ": unhandled "
                     << msg->describe();
}

// --------------------------------------------------------------- data path

void HierNode::handle_rtp(NodeId from, const RtpPacketPtr& pkt_in) {
  RtpPacketPtr pkt = pkt_in;
  const overlay::FibEntry* entry = streams_.find(pkt->stream_id());
  if (pkt->cdn_ingress_time == kNever && entry != nullptr &&
      entry->locally_produced) {
    auto stamped = pkt_in->fork();
    stamped->cdn_ingress_time = net_->loop()->now();
    stamped->cdn_hops = 0;
    pkt = std::move(stamped);
  }
  // L2 and the center accept uploads for streams they never subscribed
  // to: in the hierarchical design every upload flows unconditionally
  // toward the center, so the passthrough FIB entry is created on
  // first contact.
  if (cfg_.role != HierRole::kL1 && entry == nullptr) {
    streams_.fib_entry(pkt->stream_id());
  }

  // Full application stack: packets enter the reliable, ordered pipeline
  // and are only forwarded from its in-order output.
  recovery_.ingest(from, pkt);
}

void HierNode::forward_ordered(const RtpPacketPtr& pkt) {
  // Invoked from the receive pipeline's ordered output; the `from` side
  // is encoded in which receiver delivered — recomputed here from roles.
  recovery_.cache().add(pkt);
  if (streams_.find(pkt->stream_id()) == nullptr) return;

  // The packet's position in the tree is recovered from its hop count:
  // 0 = produced at this L1; 1 = upload at L2; 2 = at the center;
  // 3 = distribution at L2; 4 = distribution at the viewer-side L1.
  net_->loop()->schedule_after(hop_processing_delay(), [this,
                                                        pkt] {
    const overlay::FibEntry* e = streams_.find(pkt->stream_id());
    if (e == nullptr) return;
    const Time now = net_->loop()->now();

    // Upload leg: push toward the streaming center.
    const StreamContext* ctx = streams_.find_context(pkt->stream_id());
    const NodeId upstream =
        ctx != nullptr ? ctx->upstream_sub : sim::kNoNode;
    const bool producing_here = e->locally_produced;
    if (cfg_.role == HierRole::kL1 && producing_here &&
        upstream != sim::kNoNode) {
      auto clone = pkt->fork();
      clone->delay_ext_us +=
          hop_processing_delay() +
          overlay::half_rtt_between(net_, node_id(), upstream);
      clone->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
      senders_.sender_for(upstream).send_media(std::move(clone));
    }
    if (cfg_.role == HierRole::kL2 && pkt->cdn_hops == 1 &&
        parent_ != sim::kNoNode) {
      // Upload passing through this L2 toward the center.
      auto clone = pkt->fork();
      clone->delay_ext_us += hop_processing_delay();
      clone->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
      senders_.sender_for(parent_).send_media(std::move(clone));
    }

    // Distribution leg: forward to subscribed downstream nodes.
    if (cfg_.role != HierRole::kL1) {
      const bool distributing =
          (cfg_.role == HierRole::kCenter && pkt->cdn_hops == 2) ||
          (cfg_.role == HierRole::kL2 && pkt->cdn_hops == 3);
      if (distributing) {
        for (const NodeId n : e->subscriber_nodes) {
          auto clone = pkt->fork();
          clone->delay_ext_us += hop_processing_delay();
          clone->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
          senders_.sender_for(n).send_media(std::move(clone));
        }
      }
    }

    // Edge serving: L1 delivers to attached viewers (either the
    // distribution copy after 4 hops, or locally produced content).
    if (cfg_.role == HierRole::kL1) {
      for (const overlay::ClientId c : e->subscriber_clients) {
        overlay::ClientViewState* cv =
            session_.find_view(static_cast<NodeId>(c));
        if (cv == nullptr) continue;
        auto clone = pkt->fork();
        clone->delay_ext_us += hop_processing_delay();
        if (cv->session != nullptr) {
          if (pkt->cdn_ingress_time != kNever) {
            cv->session->cdn_delay_ms.add(
                to_ms(now - pkt->cdn_ingress_time));
            cv->session->path_length = pkt->cdn_hops;
          }
          if (cv->session->first_packet_time == kNever) {
            cv->session->first_packet_time = now;
          }
        }
        senders_.sender_for(static_cast<NodeId>(c), cfg_.client_sender)
            .send_media(std::move(clone));
      }
    }
  });
}

// ------------------------------------------------------------- client side

void HierNode::serve_client_burst(NodeId client,
                                  overlay::ClientViewState& view) {
  const auto burst = recovery_.cache().startup_packets(view.stream);
  if (burst.empty()) return;
  overlay::LinkSender& snd = senders_.sender_for(client, cfg_.client_sender);
  for (const auto& pkt : burst) {
    auto clone = pkt->fork();
    clone->cdn_ingress_time = kNever;
    snd.send_media(std::move(clone));
  }
  if (view.session != nullptr && view.session->first_packet_time == kNever) {
    view.session->first_packet_time = net_->loop()->now();
  }
}

void HierNode::handle_publish(NodeId client,
                              const overlay::PublishRequest& req) {
  (void)client;
  auto& entry = streams_.fib_entry(req.stream_id);
  entry.locally_produced = true;
  // Ask the controller which L2 carries this upload.
  if (controller_ != sim::kNoNode) {
    const std::uint64_t id = next_request_id_++;
    pending_maps_[id] = req.stream_id;
    auto map = sim::make_message<MapRequest>();
    map->request_id = id;
    map->stream_id = req.stream_id;
    map->l1 = node_id();
    net_->send(node_id(), controller_, std::move(map));
  } else if (parent_ != sim::kNoNode) {
    streams_.context(req.stream_id).upstream_sub = parent_;
  }
}

// ------------------------------------------------------------ tree control

void HierNode::subscribe_upstream(StreamId stream) {
  if (has_upstream(stream)) return;  // already subscribing
  if (cfg_.role == HierRole::kL1 && controller_ != sim::kNoNode) {
    // VDN-style: ask the controller for the L2 to use.
    const std::uint64_t id = next_request_id_++;
    pending_maps_[id] = stream;
    auto map = sim::make_message<MapRequest>();
    map->request_id = id;
    map->stream_id = stream;
    map->l1 = node_id();
    net_->send(node_id(), controller_, std::move(map));
    return;
  }
  if (parent_ == sim::kNoNode) return;  // the center has no upstream
  streams_.context(stream).upstream_sub = parent_;
  auto sub = sim::make_message<HierSubscribe>();
  sub->stream_id = stream;
  net_->send(node_id(), parent_, std::move(sub));
}

void HierNode::handle_map_response(const MapResponse& resp) {
  const auto it = pending_maps_.find(resp.request_id);
  if (it == pending_maps_.end()) return;
  const StreamId stream = it->second;
  pending_maps_.erase(it);
  if (resp.l2 == sim::kNoNode) return;
  streams_.context(stream).upstream_sub = resp.l2;

  const overlay::FibEntry* entry = streams_.find(stream);
  if (entry != nullptr && entry->locally_produced) {
    // Upload mapping: data starts flowing on the next ordered packet.
    return;
  }
  auto sub = sim::make_message<HierSubscribe>();
  sub->stream_id = stream;
  net_->send(node_id(), resp.l2, std::move(sub));
}

void HierNode::handle_subscribe(NodeId from, const HierSubscribe& req) {
  streams_.add_node_subscriber(req.stream_id, from);
  senders_.sender_for(from);

  // Serve cached content immediately so the downstream node's GoP cache
  // warms up (hierarchical caching, §2.2).
  if (recovery_.cache().has_content(req.stream_id)) {
    overlay::LinkSender& snd = senders_.sender_for(from);
    for (const auto& pkt : recovery_.cache().startup_packets(req.stream_id)) {
      auto clone = pkt->fork();
      clone->cdn_ingress_time = kNever;
      clone->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
      snd.send_media(std::move(clone));
    }
  }
  if (cfg_.role != HierRole::kCenter) {
    subscribe_upstream(req.stream_id);
  }
}

void HierNode::handle_unsubscribe(NodeId from, const HierUnsubscribe& req) {
  streams_.remove_node_subscriber(req.stream_id, from);
  maybe_release_stream(req.stream_id);
}

void HierNode::maybe_release_stream(StreamId stream) {
  const overlay::FibEntry* entry = streams_.find(stream);
  if (entry == nullptr || entry->locally_produced) return;
  if (entry->has_subscribers()) return;
  if (cfg_.role == HierRole::kCenter) return;  // the center keeps streams
  StreamContext& ctx = streams_.context(stream);
  if (ctx.linger_timer != sim::kInvalidEvent) return;
  ctx.linger_timer = net_->loop()->schedule_after(
      cfg_.unsubscribe_linger, [this, stream] {
        StreamContext* c = streams_.find_context(stream);
        if (c != nullptr) c->linger_timer = sim::kInvalidEvent;
        const overlay::FibEntry* e = streams_.find(stream);
        if (e == nullptr || e->locally_produced || e->has_subscribers()) {
          return;
        }
        release_stream(stream);
      });
}

void HierNode::release_stream(StreamId stream) {
  StreamContext* ctx = streams_.find_context(stream);
  if (ctx != nullptr && ctx->upstream_sub != sim::kNoNode) {
    auto unsub = sim::make_message<HierUnsubscribe>();
    unsub->stream_id = stream;
    net_->send(node_id(), ctx->upstream_sub, std::move(unsub));
    recovery_.forget_upstream(ctx->upstream_sub, stream);
    ctx->upstream_sub = sim::kNoNode;
  }
  senders_.forget_stream(stream);
  recovery_.cache().forget_stream(stream);
  if (ctx != nullptr && ctx->linger_timer != sim::kInvalidEvent) {
    net_->loop()->cancel(ctx->linger_timer);
  }
  // Erasing the context drops the FIB entry, the upstream subscription
  // and any pending views in one stroke.
  streams_.erase(stream);
}

// ---------------------------------------------------------------- plumbing

bool HierNode::carries_stream(StreamId s) const {
  const overlay::FibEntry* e = streams_.find(s);
  if (e != nullptr && e->locally_produced) return true;
  // A FIB entry only appears once the first subscriber attaches; what
  // matters here is the live upstream subscription plus cached content.
  return has_upstream(s) && recovery_.cache().has_content(s);
}

}  // namespace livenet::hier
