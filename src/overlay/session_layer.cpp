#include "overlay/session_layer.h"

#include "overlay/node_env.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace livenet::overlay {

using media::LayerMask;
using media::RtpPacketPtr;
using media::StreamId;
using sim::NodeId;

namespace {

/// The base layer can never be masked off, and an empty request means
/// "everything".
LayerMask sanitize_mask(LayerMask mask) {
  if (mask == 0) return media::kAllLayers;
  return static_cast<LayerMask>(mask | media::layer_bit(0, 0));
}

}  // namespace

void SessionLayer::handle_view_request(NodeId client, const ViewRequest& req) {
  ++view_requests_;
  ViewSession& session = metrics_->new_session();
  session.stream = req.stream_id;
  session.consumer = owner_->node_id();
  session.client = client;
  session.request_time = net_->loop()->now();

  if (cfg_.eager_view_state) {
    // The per-client state is created up front so that the simulcast
    // ladder survives a deferred (pending) attach.
    auto& view = views_[client];
    view.stream = req.stream_id;
    view.ladder.assign(1, req.stream_id);
    view.ladder.insert(view.ladder.end(), req.fallback_versions.begin(),
                       req.fallback_versions.end());
    view.ladder_pos = 0;
    view.pressure_count = 0;
    view.layer_mask = sanitize_mask(req.layer_mask);
    view.pending_mask = 0;
    view.pending_since = kNever;
    view.good_windows = 0;
  }

  // Algorithm 1, line 1: already serving or producing this stream (or a
  // valid path is already cached locally) -> local hit.
  if (hooks_.carries_stream(req.stream_id)) {
    session.local_hit = true;
    attach_client(client, req.stream_id, &session);
    return;
  }
  if (hooks_.acquire_local && hooks_.acquire_local(req.stream_id)) {
    // Path info already on the node (pushed or previously fetched).
    session.local_hit = true;
    table_->context(req.stream_id)
        .pending_views.push_back(PendingView{client, &session});
    return;
  }

  // Miss: queue the view and fetch the stream (overlay: look the path
  // up at the Streaming Brain — concurrent requests for the same
  // stream share a single lookup; Hier: subscribe up the tree).
  table_->context(req.stream_id)
      .pending_views.push_back(PendingView{client, &session});
  hooks_.want_stream(req.stream_id);
}

void SessionLayer::attach_client(NodeId client, StreamId stream,
                                 ViewSession* session) {
  auto& view = views_[client];
  // Seamless switch: the client stays on its previous stream until the
  // new one is actually being served; detach the old one only now.
  if (view.stream != media::kNoStream && view.stream != stream) {
    const StreamId old_stream = view.stream;
    table_->remove_client_subscriber(old_stream, client);
    hooks_.maybe_release(old_stream);
    if (hooks_.downstream_mask_changed) {
      hooks_.downstream_mask_changed(old_stream);
    }
  }
  table_->add_client_subscriber(stream, client);
  if (session != nullptr) view.session = session;
  view.stream = stream;
  sync_fib_client_mask(client, view);
  auto ack = sim::make_message<ViewAck>();
  ack->stream_id = stream;
  ack->ok = true;
  net_->send(owner_->node_id(), client, std::move(ack));
  if (hooks_.serve_burst) {
    hooks_.serve_burst(client, view);
  } else {
    serve_startup_burst(client, view);
  }
}

void SessionLayer::serve_startup_burst(NodeId client, ClientViewState& view) {
  auto burst = recovery_->cache().startup_packets(view.stream);
  // Shrink the seam between the cache head and the live stream: packets
  // already received but blocked behind a recovery hole join the burst
  // (the client's jitter buffer tolerates the remaining holes, which
  // upstream retransmission fills via the fast path).
  const FibEntry* entry = table_->find(view.stream);
  if (entry != nullptr && entry->upstream != sim::kNoNode) {
    for (auto& pkt : recovery_->buffered_packets(entry->upstream,
                                                 view.stream)) {
      burst.push_back(std::move(pkt));
    }
  }
  if (burst.empty()) return;
  LinkSender& snd = senders_->sender_for(client);
  const Time now = net_->loop()->now();
  for (const auto& pkt : burst) {
    // SVC: the burst honours the client's committed mask — a filtered
    // packet is simply not part of this client's flow (no fork).
    if (view.layer_mask != media::kAllLayers &&
        (view.layer_mask & pkt->layer_mask_bit()) == 0) {
      telemetry::handles().layer_filtered->add();
      continue;
    }
    auto clone = pkt->fork();
    // Cached content: exclude from CDN-path-delay sampling (its transit
    // time is dominated by cache residency, not path quality).
    clone->cdn_ingress_time = kNever;
    clone->seq = view.take_seq(clone->is_audio());  // client-facing seq
    egress_meter_->add(now, clone->wire_size());
    telemetry::handles().cache_hits->add();
    telemetry::record_hop(pkt->trace_id(), now, pkt->stream_id(),
                          pkt->producer_seq(), owner_->node_id(), client,
                          telemetry::HopEvent::kCacheHit);
    snd.send_media(std::move(clone));
  }
  if (view.session != nullptr && view.session->first_packet_time == kNever) {
    view.session->first_packet_time = now;
  }
}

void SessionLayer::handle_view_stop(NodeId client, const ViewStop& msg) {
  StreamId current = msg.stream_id;
  const auto it = views_.find(client);
  if (it != views_.end()) {
    if (it->second.session != nullptr) {
      it->second.session->end_time = net_->loop()->now();
    }
    // The consumer may have moved the client to another simulcast
    // version or co-stream; detach whatever is actually being served.
    if (it->second.stream != media::kNoStream) current = it->second.stream;
    views_.erase(it);
  }
  table_->remove_client_subscriber(current, client);
  hooks_.maybe_release(current);
  if (hooks_.downstream_mask_changed) hooks_.downstream_mask_changed(current);
  if (current != msg.stream_id) {
    table_->remove_client_subscriber(msg.stream_id, client);
    hooks_.maybe_release(msg.stream_id);
    if (hooks_.downstream_mask_changed) {
      hooks_.downstream_mask_changed(msg.stream_id);
    }
  }
}

void SessionLayer::handle_quality_report(NodeId client,
                                         const ClientQualityReport& rep) {
  const auto it = views_.find(client);
  if (it == views_.end()) return;
  auto& view = it->second;
  view.stalls_in_window = rep.stalls_since_last;

  // The client cannot tell intentional frame drops (this node's own
  // proactive dropper) from network damage; discount them before using
  // the skip count as a path-quality signal.
  const std::uint64_t dropper_total = view.dropper.total_dropped();
  const std::uint64_t dropped_window =
      dropper_total - view.dropper_total_at_report;
  view.dropper_total_at_report = dropper_total;
  const std::uint32_t net_skips =
      rep.skips_since_last > dropped_window
          ? rep.skips_since_last - static_cast<std::uint32_t>(dropped_window)
          : 0;

  // Poor quality — stalls or unrecoverable network gaps — triggers a
  // switch to an alternative path (§4.4): a burst immediately,
  // sustained degradation after consecutive bad windows.
  const bool bad = rep.stalls_since_last > 0 ||
                   net_skips >= kSwitchSkipThreshold;
  view.bad_quality_windows = bad ? view.bad_quality_windows + 1 : 0;
  if (rep.stalls_since_last >= kSwitchStallThreshold ||
      net_skips >= kSwitchSkipThreshold ||
      view.bad_quality_windows >= 5) {
    view.bad_quality_windows = 0;
    if (hooks_.quality_switch) hooks_.quality_switch(view.stream);
  }

  // SVC up-switch: after enough consecutive clean windows, request the
  // lowest missing lattice layer back. The widen only *commits* at a
  // decodable anchor (maybe_commit_mask), so this is safe to request
  // optimistically.
  const bool clean = rep.stalls_since_last == 0 && net_skips == 0 &&
                     !view.dropper.under_pressure();
  if (clean && !view.client_driven && (view.svc_s > 1 || view.svc_t > 1)) {
    if (++view.good_windows >= 3) {
      view.good_windows = 0;
      const LayerMask lattice = media::lattice_mask(view.svc_s, view.svc_t);
      const LayerMask have = static_cast<LayerMask>(
          (view.layer_mask | view.pending_mask) & lattice);
      const LayerMask missing = static_cast<LayerMask>(lattice & ~have);
      if (missing != 0) {
        const LayerMask lowest = static_cast<LayerMask>(
            missing & static_cast<LayerMask>(-missing));
        set_client_layer_mask(client, view,
                              static_cast<LayerMask>(have | lowest));
      }
    }
  } else if (!clean) {
    view.good_windows = 0;
  }
}

void SessionLayer::handle_layer_mask_request(NodeId client,
                                             const LayerMaskUpdate& msg) {
  const auto it = views_.find(client);
  if (it == views_.end() || it->second.stream != msg.stream_id) return;
  it->second.client_driven = true;
  set_client_layer_mask(client, it->second, msg.layer_mask);
}

void SessionLayer::set_client_layer_mask(NodeId client, ClientViewState& view,
                                         LayerMask mask) {
  mask = sanitize_mask(mask);
  // Narrowing takes effect immediately: dropping layers can never break
  // decodability. Widening goes pending until a decodable anchor.
  const LayerMask narrowed = static_cast<LayerMask>(view.layer_mask & mask);
  const bool changed = narrowed != view.layer_mask;
  if (changed) {
    view.layer_mask = narrowed;
    telemetry::handles().svc_mask_flips->add();
  }
  const LayerMask widen = static_cast<LayerMask>(mask & ~view.layer_mask);
  if (widen != 0) {
    if (view.pending_mask != mask) {
      view.pending_mask = mask;
      view.pending_since = net_->loop()->now();
    }
  } else if (view.pending_mask != 0) {
    view.pending_mask = 0;
    view.pending_since = kNever;
  }
  sync_fib_client_mask(client, view);
  if (changed) notify_client_mask(client, view);
}

bool SessionLayer::narrow_mask_step(NodeId client, ClientViewState& view) {
  if (view.svc_s <= 1 && view.svc_t <= 1) return false;
  const LayerMask lattice = media::lattice_mask(view.svc_s, view.svc_t);
  const LayerMask base = media::layer_bit(0, 0);
  const LayerMask candidates =
      static_cast<LayerMask>(view.layer_mask & lattice & ~base);
  if (candidates == 0) return false;  // already base-only
  int hi = 15;
  while (((candidates >> hi) & 1u) == 0) --hi;
  view.layer_mask = static_cast<LayerMask>(
      ((view.layer_mask & lattice) & ~(LayerMask{1} << hi)) | base);
  // Pressure overrides any widen in flight.
  view.pending_mask = 0;
  view.pending_since = kNever;
  telemetry::handles().svc_mask_flips->add();
  sync_fib_client_mask(client, view);
  notify_client_mask(client, view);
  return true;
}

void SessionLayer::maybe_commit_mask(NodeId client, ClientViewState& view,
                                     const media::RtpPacket& pkt) {
  if (pkt.is_rtx || pkt.is_audio() || pkt.is_fec_parity()) return;
  const LayerMask target = view.pending_mask;
  const LayerMask widen = static_cast<LayerMask>(target & ~view.layer_mask);
  if (widen == 0) {
    view.pending_mask = 0;
    view.pending_since = kNever;
    return;
  }
  // A new spatial column only decodes from a keyframe; a temporal-only
  // widen decodes from any T0 frame of the layers we already have.
  bool new_spatial = false;
  for (std::uint8_t s = 0; s < media::kMaxSpatialLayers; ++s) {
    const LayerMask col = static_cast<LayerMask>(LayerMask{0xF} << (s * 4));
    if ((widen & col) != 0 && (view.layer_mask & col) == 0) new_spatial = true;
  }
  const bool anchored =
      new_spatial ? pkt.is_keyframe_packet() : pkt.layer().temporal == 0;
  if (!anchored) return;
  view.layer_mask = sanitize_mask(target);
  view.pending_mask = 0;
  auto& h = telemetry::handles();
  h.svc_mask_flips->add();
  if (view.pending_since != kNever) {
    h.svc_upswitch_wait_ms->observe(
        to_ms(net_->loop()->now() - view.pending_since));
  }
  view.pending_since = kNever;
  notify_client_mask(client, view);
}

void SessionLayer::notify_client_mask(NodeId client,
                                      const ClientViewState& view) {
  if (view.stream == media::kNoStream) return;
  auto upd = sim::make_message<LayerMaskUpdate>();
  upd->stream_id = view.stream;
  upd->layer_mask = view.layer_mask;
  net_->send(owner_->node_id(), client, std::move(upd));
}

void SessionLayer::sync_fib_client_mask(NodeId client,
                                        const ClientViewState& view) {
  if (view.stream == media::kNoStream || table_->find(view.stream) == nullptr) {
    return;
  }
  // The FIB carries committed|pending: upstream starts shipping the
  // wanted layers early so the anchor this client is waiting on can
  // actually arrive.
  const LayerMask want =
      view.pending_mask != 0
          ? static_cast<LayerMask>(view.layer_mask | view.pending_mask)
          : view.layer_mask;
  table_->fib_entry(view.stream).set_client_mask(client, want);
  if (hooks_.downstream_mask_changed) hooks_.downstream_mask_changed(view.stream);
}

void SessionLayer::switch_client_stream(NodeId client, StreamId new_stream) {
  auto it = views_.find(client);
  if (it == views_.end()) return;
  const StreamId old_stream = it->second.stream;
  if (old_stream == new_stream) return;

  if (hooks_.carries_stream(new_stream)) {
    // attach_client performs the seamless old->new handover.
    attach_client(client, new_stream, it->second.session);
    return;
  }
  // Fetch the new stream first; the client keeps receiving the old one
  // until content lands (the pending-view attach does the handover).
  table_->context(new_stream)
      .pending_views.push_back(PendingView{client, it->second.session});
  if (hooks_.want_stream_for_switch) hooks_.want_stream_for_switch(new_stream);
}

void SessionLayer::maybe_flip_costream(StreamId new_stream) {
  StreamContext* ctx = table_->find_context(new_stream);
  if (ctx == nullptr || ctx->costream_from == media::kNoStream) return;
  if (recovery_ == nullptr || !recovery_->cache().has_content(new_stream)) {
    return;  // wait for a GoP
  }
  const StreamId old_stream = ctx->costream_from;
  ctx->costream_from = media::kNoStream;

  std::vector<NodeId> to_flip;
  const FibEntry* old_entry = table_->find(old_stream);
  if (old_entry != nullptr) {
    to_flip.assign(old_entry->subscriber_clients.begin(),
                   old_entry->subscriber_clients.end());
  }
  for (const NodeId c : to_flip) {
    const auto cv = views_.find(c);
    if (cv != views_.end() && cv->second.session != nullptr) {
      ++cv->second.session->costream_switches;
    }
    switch_client_stream(c, new_stream);
  }
}

void SessionLayer::flush_pending_attach(StreamId stream) {
  StreamContext* ctx = table_->find_context(stream);
  if (ctx == nullptr || ctx->pending_views.empty()) return;
  if (!hooks_.carries_stream(stream)) return;
  auto waiting = std::move(ctx->pending_views);
  ctx->pending_views.clear();
  for (auto& pv : waiting) {
    attach_client(pv.client, stream, pv.session);
  }
}

void SessionLayer::fail_pending(StreamId stream, Duration rtt) {
  StreamContext* ctx = table_->find_context(stream);
  if (ctx == nullptr || ctx->pending_views.empty()) return;
  auto waiting = std::move(ctx->pending_views);
  ctx->pending_views.clear();
  for (auto& pv : waiting) {
    pv.session->failed = true;
    pv.session->path_response_rtt = rtt;
    auto ack = sim::make_message<ViewAck>();
    ack->stream_id = stream;
    ack->ok = false;
    net_->send(owner_->node_id(), pv.client, std::move(ack));
  }
}

void SessionLayer::attach_pending(StreamId stream, Duration rtt,
                                  bool last_resort) {
  StreamContext* ctx = table_->find_context(stream);
  if (ctx == nullptr || ctx->pending_views.empty()) return;
  auto waiting = std::move(ctx->pending_views);
  ctx->pending_views.clear();
  for (auto& pv : waiting) {
    pv.session->path_response_rtt = rtt;
    pv.session->last_resort = last_resort;
    attach_client(pv.client, stream, pv.session);
  }
}

void SessionLayer::deliver_to_client(NodeId client, const RtpPacketPtr& pkt) {
  const auto cv = views_.find(client);
  if (cv == views_.end()) return;
  send_to_client(client, cv->second, pkt);
}

void SessionLayer::send_to_client(NodeId client, ClientViewState& view,
                                  const RtpPacketPtr& pkt) {
  LinkSender& snd = senders_->sender_for(client);

  // SVC: latch the stream's lattice shape, commit any pending widen at
  // its decodable anchor, then apply the committed mask. A filtered
  // packet is never forked — the client's seq space skips it entirely,
  // so its NACK machinery never asks for it.
  if (pkt->is_svc() && !pkt->is_audio()) {
    view.svc_s = pkt->spatial_layers();
    view.svc_t = pkt->temporal_layers();
    if (view.pending_mask != 0) maybe_commit_mask(client, view, *pkt);
  }
  if (view.layer_mask != media::kAllLayers &&
      (view.layer_mask & pkt->layer_mask_bit()) == 0) {
    telemetry::handles().layer_filtered->add();
    telemetry::record_hop(pkt->trace_id(), net_->loop()->now(),
                          pkt->stream_id(), pkt->producer_seq(),
                          owner_->node_id(), client,
                          telemetry::HopEvent::kDrop,
                          telemetry::DropReason::kLayerFiltered);
    return;
  }

  const telemetry::DropReason drop_reason =
      view.dropper.decide(*pkt, snd.queue_drain_time());
  const bool forward = drop_reason == telemetry::DropReason::kNone;

  // Delegated bitrate selection (§5.2): a consistently building queue
  // means the last mile cannot sustain this version. For SVC streams
  // the first response is a mask flip — shed the highest enhancement
  // layer; only when the client is already at base-only does the
  // simulcast ladder take over. Pressure accrues on every packet
  // offered (dropped ones included — sustained dropping IS pressure).
  if (view.dropper.under_pressure()) {
    if (++view.pressure_count >
        static_cast<int>(kDowngradePressurePackets)) {
      view.pressure_count = 0;
      if (!narrow_mask_step(client, view) &&
          view.ladder_pos + 1 < view.ladder.size()) {
        ++view.ladder_pos;
        if (view.session != nullptr) ++view.session->bitrate_downgrades;
        switch_client_stream(client, view.ladder[view.ladder_pos]);
        return;
      }
    }
  } else {
    view.pressure_count = 0;
  }
  if (!forward) {
    // Proactively dropped (B -> P -> GoP escalation).
    telemetry::record_hop(pkt->trace_id(), net_->loop()->now(),
                          pkt->stream_id(), pkt->producer_seq(),
                          owner_->node_id(), client,
                          telemetry::HopEvent::kDrop, drop_reason);
    return;
  }
  auto clone = pkt->fork();
  clone->delay_ext_us +=
      cfg_.client_extra_delay + half_rtt_between(net_, owner_->node_id(),
                                                 client);
  clone->seq = view.take_seq(clone->is_audio());  // client-facing seq space
  telemetry::handles().client_forwards->add();
  telemetry::record_hop(pkt->trace_id(), net_->loop()->now(),
                        pkt->stream_id(), pkt->producer_seq(),
                        owner_->node_id(), client,
                        telemetry::HopEvent::kClientForward);

  // Consumer-node log: per-packet CDN path delay + observed path length.
  if (view.session != nullptr) {
    if (pkt->cdn_ingress_time != kNever) {
      const double delay_ms =
          to_ms(net_->loop()->now() - pkt->cdn_ingress_time);
      view.session->cdn_delay_ms.add(delay_ms);
      telemetry::handles().cdn_path_delay_ms->observe(delay_ms);
      view.session->path_length = pkt->cdn_hops;
    }
    if (view.session->first_packet_time == kNever) {
      view.session->first_packet_time = net_->loop()->now();
    }
  }
  egress_meter_->add(net_->loop()->now(), clone->wire_size());
  snd.send_media(std::move(clone));
}

void SessionLayer::note_path_switch(StreamId stream) {
  for (auto& [client, view] : views_) {
    if (view.stream == stream && view.session != nullptr) {
      ++view.session->path_switches;
    }
  }
}

}  // namespace livenet::overlay
