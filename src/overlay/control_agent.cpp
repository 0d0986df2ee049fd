#include "overlay/control_agent.h"

#include <algorithm>

#include "overlay/overlay_node.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace livenet::overlay {

using media::LayerMask;
using media::StreamId;
using sim::NodeId;

namespace {

/// The base layer can never be masked off; an empty mask means "all".
LayerMask sanitize_mask(LayerMask mask) {
  if (mask == 0) return media::kAllLayers;
  return static_cast<LayerMask>(mask | media::layer_bit(0, 0));
}

}  // namespace

// ------------------------------------------------------------ stream state

StreamContext& ControlAgent::ensure_stream(StreamId s) {
  return table_->context(s);
}

bool ControlAgent::paths_fresh(const StreamContext& ctx) const {
  return ctx.paths_fetched != kNever &&
         env_->net->loop()->now() - ctx.paths_fetched <= cfg_->path_cache_ttl;
}

bool ControlAgent::carries_stream(StreamId s) const {
  const StreamFib::Entry* e = table_->find(s);
  if (e == nullptr) return false;
  if (e->locally_produced) return true;
  return e->upstream != sim::kNoNode && recovery_->cache().has_content(s);
}

void ControlAgent::set_primary_supplier(StreamContext& st, NodeId n) {
  auto& v = st.suppliers;
  v.erase(std::remove(v.begin(), v.end(), n), v.end());
  v.insert(v.begin(), n);
}

void ControlAgent::remove_supplier(StreamContext& st, NodeId n) {
  auto& v = st.suppliers;
  v.erase(std::remove(v.begin(), v.end(), n), v.end());
  auto& p = st.pending_standbys;
  p.erase(std::remove(p.begin(), p.end(), n), p.end());
}

// ---------------------------------------------------- SVC mask aggregation

LayerMask ControlAgent::downstream_aggregate(const StreamFib::Entry& e) const {
  // Standby (RTX-only) downstreams are served from the local cache and
  // may NACK any layer; their presence pins the aggregate wide open.
  // So does an empty edge — release handles the no-subscriber case.
  if (!e.rtx_only_nodes.empty()) return media::kAllLayers;
  if (e.subscriber_nodes.empty() && e.subscriber_clients.empty()) {
    return media::kAllLayers;
  }
  LayerMask agg = 0;
  for (const NodeId n : e.subscriber_nodes) {
    agg = static_cast<LayerMask>(agg | e.node_mask(n));
    if (agg == media::kAllLayers) return agg;
  }
  for (const ClientId c : e.subscriber_clients) {
    agg = static_cast<LayerMask>(agg | e.client_mask(c));
    if (agg == media::kAllLayers) return agg;
  }
  return sanitize_mask(agg);
}

void ControlAgent::update_upstream_mask(StreamId stream) {
  const StreamFib::Entry* e = table_->find(stream);
  if (e == nullptr || e->locally_produced || e->upstream == sim::kNoNode) {
    return;
  }
  StreamContext* st = table_->find_context(stream);
  if (st == nullptr) return;
  const LayerMask agg = downstream_aggregate(*e);
  if (agg == st->upstream_mask_sent) return;
  st->upstream_mask_sent = agg;
  auto upd = sim::make_message<LayerMaskUpdate>();
  upd->stream_id = stream;
  upd->layer_mask = agg;
  env_->net->send(env_->self(), e->upstream, std::move(upd));
}

void ControlAgent::handle_layer_mask_update(NodeId from,
                                            const LayerMaskUpdate& msg) {
  StreamContext* ctx = table_->find_context(msg.stream_id);
  if (ctx == nullptr || !ctx->fib_active) return;
  if (ctx->fib.subscriber_nodes.count(from) == 0) return;
  ctx->fib.set_node_mask(from, sanitize_mask(msg.layer_mask));
  update_upstream_mask(msg.stream_id);
}

double ControlAgent::node_load() const {
  const double rate_load =
      forwarding_->egress_meter().rate_bps(env_->net->loop()->now()) /
      cfg_->node_capacity_bps;
  const double stream_load = static_cast<double>(table_->stream_count()) /
                             static_cast<double>(cfg_->max_streams);
  return std::min(1.0, std::max(rate_load, stream_load));
}

// ------------------------------------------------------------- publishing

void ControlAgent::handle_publish(NodeId client, const PublishRequest& req) {
  auto& entry = table_->fib_entry(req.stream_id);
  entry.locally_produced = true;
  entry.upstream = sim::kNoNode;
  (void)client;

  if (env_->brain != sim::kNoNode) {
    auto reg = sim::make_message<StreamRegister>();
    reg->stream_id = req.stream_id;
    reg->producer = env_->self();
    reg->active = true;
    env_->net->send(env_->self(), env_->brain, std::move(reg));
  }
}

void ControlAgent::handle_publish_stop(NodeId client, const PublishStop& msg) {
  (void)client;
  const StreamFib::Entry* entry = table_->find(msg.stream_id);
  if (entry == nullptr || !entry->locally_produced) return;
  if (env_->brain != sim::kNoNode) {
    auto reg = sim::make_message<StreamRegister>();
    reg->stream_id = msg.stream_id;
    reg->producer = env_->self();
    reg->active = false;
    env_->net->send(env_->self(), env_->brain, std::move(reg));
  }
  release_stream(msg.stream_id);
}

void ControlAgent::handle_producer_relay(const ProducerRelayInstruction& msg) {
  // §7.1: the broadcaster moved to another producer. This node stops
  // being the producer and becomes a relay fed by the new one; its
  // existing downstream subscribers and viewers are untouched.
  auto& entry = table_->fib_entry(msg.stream_id);
  if (!entry.locally_produced) return;
  entry.locally_produced = false;
  entry.upstream = msg.new_producer;
  auto& st = ensure_stream(msg.stream_id);
  st.establishing = true;
  set_primary_supplier(st, msg.new_producer);
  auto sub = sim::make_message<SubscribeRequest>();
  sub->stream_id = msg.stream_id;
  env_->net->send(env_->self(), msg.new_producer, std::move(sub));
}

void ControlAgent::handle_switch_notice(NodeId from,
                                        const StreamSwitchNotice& msg) {
  // A notice arriving from a client (the broadcaster app) is fanned out
  // across the overlay: the producer relays it to every CDN node.
  if (env_->peer_set.count(from) == 0 && from != env_->brain) {
    for (const NodeId peer : env_->peers) {
      if (peer == env_->self()) continue;
      auto copy = sim::make_message<StreamSwitchNotice>(msg);
      env_->net->send(env_->self(), peer, std::move(copy));
    }
  }
  // Only consumers with viewers on the old stream act on it.
  const StreamFib::Entry* entry = table_->find(msg.from_stream);
  if (entry == nullptr || entry->subscriber_clients.empty()) return;
  table_->context(msg.to_stream).costream_from = msg.from_stream;

  // Subscribe to the new stream on the clients' behalf.
  if (!carries_stream(msg.to_stream)) {
    const StreamContext* ctx = table_->find_context(msg.to_stream);
    const bool can_establish = ctx != nullptr && paths_fresh(*ctx) &&
                               !ctx->cached_paths.empty();
    if (can_establish) {
      try_establish(msg.to_stream);
    } else {
      request_path(msg.to_stream);
    }
  } else {
    session_->maybe_flip_costream(msg.to_stream);
  }
}

// ------------------------------------------------------------ path lookup

bool ControlAgent::acquire_for_view(StreamId stream) {
  const StreamContext* ctx = table_->find_context(stream);
  if (ctx == nullptr) return false;
  if (!ctx->establishing &&
      !(paths_fresh(*ctx) && !ctx->cached_paths.empty())) {
    return false;
  }
  if (!ctx->establishing) try_establish(stream);
  return true;
}

void ControlAgent::fetch_for_switch(StreamId stream) {
  const StreamContext* ctx = table_->find_context(stream);
  const bool can_establish = ctx != nullptr && paths_fresh(*ctx) &&
                             !ctx->cached_paths.empty();
  if (can_establish) {
    if (!ctx->establishing) try_establish(stream);
  } else {
    request_path(stream);
  }
}

void ControlAgent::request_path(StreamId stream) {
  StreamContext& ctx = table_->context(stream);
  if (ctx.path_request_sent != kNever) return;  // lookup in flight
  const NodeId svc = env_->lookup_service();
  if (svc == sim::kNoNode) return;
  const std::uint64_t id = next_request_id_++;
  pending_path_reqs_[id] = stream;
  ctx.path_request_sent = env_->net->loop()->now();
  auto req = sim::make_message<PathRequest>();
  req->request_id = id;
  req->stream_id = stream;
  req->consumer = env_->self();
  env_->net->send(env_->self(), svc, std::move(req));

  // A request (or its response) lost on the wire — a controller outage,
  // a flapping link — would otherwise wedge the stream forever: the
  // in-flight guard above dedupes every later attempt against a lookup
  // that can no longer complete. Time the request out and retry while
  // anything still wants the stream.
  env_->net->loop()->schedule_after(
      cfg_->path_request_timeout, [this, id, stream] {
        const auto idit = pending_path_reqs_.find(id);
        if (idit == pending_path_reqs_.end() || idit->second != stream) {
          return;  // answered (or swept by release/crash) in the meantime
        }
        pending_path_reqs_.erase(idit);
        StreamContext* ctx2 = table_->find_context(stream);
        if (ctx2 != nullptr) ctx2->path_request_sent = kNever;
        if (!stream_still_wanted(stream)) return;
        request_path(stream);
      });
}

bool ControlAgent::stream_still_wanted(StreamId stream) const {
  const StreamContext* ctx = table_->find_context(stream);
  if (ctx != nullptr &&
      (!ctx->pending_views.empty() || ctx->switch_pending ||
       ctx->costream_from != media::kNoStream)) {
    return true;
  }
  const StreamFib::Entry* e = table_->find(stream);
  return e != nullptr && !e->locally_produced && e->has_subscribers() &&
         e->upstream == sim::kNoNode;
}

void ControlAgent::handle_path_response(const PathResponse& resp) {
  const auto idit = pending_path_reqs_.find(resp.request_id);
  if (idit == pending_path_reqs_.end()) return;
  const StreamId stream = idit->second;
  pending_path_reqs_.erase(idit);

  StreamContext& st = ensure_stream(stream);
  Duration rtt = kNever;
  if (st.path_request_sent != kNever) {
    rtt = env_->net->loop()->now() - st.path_request_sent;
    st.path_request_sent = kNever;
  }

  if (resp.paths.empty()) {
    // No viable path: fail all waiting views.
    session_->fail_pending(stream, rtt);
    maybe_release_stream(stream);
    return;
  }

  st.cached_paths = resp.paths;
  st.paths_fetched = env_->net->loop()->now();
  st.next_backup = 1;

  // A quality-triggered switch was waiting for fresh candidates; the
  // new best path (index 0) is considered too.
  if (st.switch_pending) {
    st.switch_pending = false;
    st.next_backup = 0;
    st.last_switch = kNever;  // the cooldown was consumed pre-lookup
    switch_path(stream);
    if (st.switch_pending && !st.cached_paths.empty()) {
      // Even the refreshed candidates all funnel through the current
      // upstream, so switch_path skipped every one of them. If the feed
      // died because that hop lost its state (crash + restart), only a
      // re-subscription through it can revive the stream — re-establish
      // over the best path; a healthy upstream treats it as a refresh.
      st.switch_pending = false;
      st.last_switch = env_->net->loop()->now();
      establish_via_path(stream, st.cached_paths.front());
    }
  }

  session_->attach_pending(stream, rtt, resp.last_resort);
  if (!carries_stream(stream) && !st.establishing) {
    try_establish(stream);
  }
}

void ControlAgent::handle_path_push(const PathPush& push) {
  auto& st = ensure_stream(push.stream_id);
  st.cached_paths = push.paths;
  st.paths_fetched = env_->net->loop()->now();
  st.next_backup = 1;
}

// --------------------------------------------------------- establishment

bool ControlAgent::try_establish(StreamId stream) {
  auto& st = ensure_stream(stream);
  if (!paths_fresh(st) || st.cached_paths.empty()) return false;
  establish_via_path(stream, st.cached_paths.front());
  return true;
}

void ControlAgent::establish_via_path(StreamId stream, const Path& path,
                                      bool keep_prev_supplier) {
  if (path.size() < 2) {
    // 0-length path: this node is the producer; nothing to establish.
    return;
  }
  if (path.back() != env_->self()) {
    LIVENET_LOG(kWarn) << "node " << env_->self()
                       << ": path does not end here: " << to_string(path);
    return;
  }
  auto& entry = table_->fib_entry(stream);
  auto& st = ensure_stream(stream);
  const NodeId upstream = path[path.size() - 2];
  if (!keep_prev_supplier && entry.upstream != sim::kNoNode &&
      entry.upstream != upstream) {
    // Re-establish over a different hop without make-before-break
    // grace: the old upstream is gone (dead feed / lost state) — sweep
    // it so multi-supplier NACKs stop racing toward a corpse.
    remove_supplier(st, entry.upstream);
  }
  entry.upstream = upstream;
  st.establishing = true;
  set_primary_supplier(st, upstream);

  auto req = sim::make_message<SubscribeRequest>();
  req->stream_id = stream;
  // Remaining reverse route for the upstream hop: next hops toward the
  // producer, nearest first.
  for (std::size_t i = path.size() - 2; i-- > 0;) {
    req->remaining_reverse_path.push_back(path[i]);
  }
  // Carry the current downstream SVC aggregate so the new upstream
  // filters from the first packet (no separate LayerMaskUpdate race).
  req->layer_mask = downstream_aggregate(entry);
  st.upstream_mask_sent = req->layer_mask;
  env_->net->send(env_->self(), upstream, std::move(req));
}

void ControlAgent::handle_subscribe(NodeId from, const SubscribeRequest& req) {
  if (req.rtx_only) {
    handle_standby_subscribe(from, req);
    return;
  }
  table_->add_node_subscriber(req.stream_id, from);
  senders_->sender_for(from);  // make sure the hop sender exists

  auto& entry = table_->fib_entry(req.stream_id);
  entry.set_node_mask(from, sanitize_mask(req.layer_mask));
  const bool anchored = entry.locally_produced ||
                        entry.upstream != sim::kNoNode;

  auto ack = sim::make_message<SubscribeAck>();
  ack->stream_id = req.stream_id;
  ack->ok = true;

  if (anchored) {
    // Cache hit (§4.4): stop backtracking; serve from here. This is the
    // source of the long-chain problem when our own upstream chain is
    // longer than the path the Brain returned to the requester.
    ack->cache_hit = !entry.locally_produced;
    env_->net->send(env_->self(), from, std::move(ack));

    // Burst cached content so the downstream node fills its GoP cache.
    if (recovery_->cache().has_content(req.stream_id)) {
      LinkSender& snd = senders_->sender_for(from);
      const Time now = env_->net->loop()->now();
      for (const auto& pkt :
           recovery_->cache().startup_packets(req.stream_id)) {
        auto clone = pkt->fork();
        clone->cdn_ingress_time = kNever;  // cached: not a path-delay sample
        clone->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
        forwarding_->egress_meter().add(now, clone->wire_size());
        telemetry::handles().cache_hits->add();
        telemetry::record_hop(pkt->trace_id(), now, pkt->stream_id(),
                              pkt->producer_seq(), env_->self(), from,
                              telemetry::HopEvent::kCacheHit);
        snd.send_media(std::move(clone));
      }
    }
    // The new subscriber may widen (or narrow) our downstream aggregate.
    update_upstream_mask(req.stream_id);
    return;
  }

  // Not carrying the stream: continue backtracking toward the producer.
  if (req.remaining_reverse_path.empty()) {
    ack->ok = false;
    env_->net->send(env_->self(), from, std::move(ack));
    table_->remove_node_subscriber(req.stream_id, from);
    maybe_release_stream(req.stream_id);
    return;
  }
  env_->net->send(env_->self(), from, std::move(ack));

  auto& st = ensure_stream(req.stream_id);
  const NodeId upstream = req.remaining_reverse_path.front();
  entry.upstream = upstream;
  st.establishing = true;
  set_primary_supplier(st, upstream);
  auto fwd = sim::make_message<SubscribeRequest>();
  fwd->stream_id = req.stream_id;
  fwd->remaining_reverse_path.assign(req.remaining_reverse_path.begin() + 1,
                                     req.remaining_reverse_path.end());
  fwd->layer_mask = downstream_aggregate(entry);
  st.upstream_mask_sent = fwd->layer_mask;
  env_->net->send(env_->self(), upstream, std::move(fwd));
}

void ControlAgent::handle_standby_subscribe(NodeId from,
                                            const SubscribeRequest& req) {
  // Standby (RTX-only) subscription: the requester wants NACK service,
  // not media. Register it outside subscriber_nodes so the fast path
  // never fans out to it, and skip the startup burst — a standby's
  // holes are filled one NACK at a time.
  auto& entry = table_->fib_entry(req.stream_id);
  entry.rtx_only_nodes.insert(from);
  senders_->sender_for(from);  // make sure the hop sender exists

  const bool anchored =
      entry.locally_produced || entry.upstream != sim::kNoNode;
  auto ack = sim::make_message<SubscribeAck>();
  ack->stream_id = req.stream_id;
  ack->ok = true;
  ack->rtx_only = true;
  ack->cache_hit = anchored && !entry.locally_produced;
  env_->net->send(env_->self(), from, std::move(ack));
  // A standby may NACK any layer: its arrival pins our upstream edge
  // wide open (and its departure re-narrows it, via unsubscribe).
  update_upstream_mask(req.stream_id);

  if (!anchored) {
    // Not carrying the stream yet: pull it with a normal subscription
    // of our own, so the cache can actually answer the standby's NACKs.
    auto& st = ensure_stream(req.stream_id);
    if (!st.establishing && !try_establish(req.stream_id)) {
      request_path(req.stream_id);
    }
  }
}

void ControlAgent::handle_subscribe_ack(NodeId from, const SubscribeAck& ack) {
  auto& st = ensure_stream(ack.stream_id);
  if (ack.rtx_only) {
    // A standby answered. It never touches establishing/upstream —
    // only the supplier set the NACK router races across.
    auto& pend = st.pending_standbys;
    pend.erase(std::remove(pend.begin(), pend.end(), from), pend.end());
    if (ack.ok &&
        std::find(st.suppliers.begin(), st.suppliers.end(), from) ==
            st.suppliers.end()) {
      st.suppliers.push_back(from);
    }
    return;
  }
  st.establishing = false;
  if (!ack.ok) {
    // Upstream could not anchor the subscription; retry via lookup.
    remove_supplier(st, from);
    auto& entry = table_->fib_entry(ack.stream_id);
    entry.upstream = sim::kNoNode;
    if (table_->find(ack.stream_id) != nullptr &&
        table_->find(ack.stream_id)->has_subscribers()) {
      request_path(ack.stream_id);
    }
    return;
  }
  if (cfg_->standby_suppliers > 0) establish_standbys(ack.stream_id);
}

void ControlAgent::establish_standbys(StreamId stream) {
  StreamContext* stp = table_->find_context(stream);
  const StreamFib::Entry* entry = table_->find(stream);
  if (stp == nullptr || entry == nullptr || entry->locally_produced) return;
  auto& st = *stp;

  // Standbys already live (suppliers beyond the primary) or in flight.
  std::size_t have =
      st.suppliers.empty() ? 0 : st.suppliers.size() - 1;
  have += st.pending_standbys.size();

  for (const Path& p : st.cached_paths) {
    if (have >= cfg_->standby_suppliers) break;
    if (p.size() < 2 || p.back() != env_->self()) continue;
    const NodeId cand = p[p.size() - 2];
    if (cand == entry->upstream) continue;
    if (std::find(st.suppliers.begin(), st.suppliers.end(), cand) !=
        st.suppliers.end()) {
      continue;
    }
    if (std::find(st.pending_standbys.begin(), st.pending_standbys.end(),
                  cand) != st.pending_standbys.end()) {
      continue;
    }
    st.pending_standbys.push_back(cand);
    auto req = sim::make_message<SubscribeRequest>();
    req->stream_id = stream;
    req->rtx_only = true;
    env_->net->send(env_->self(), cand, std::move(req));
    ++have;
  }
}

void ControlAgent::handle_unsubscribe(NodeId from,
                                      const UnsubscribeRequest& req) {
  table_->remove_node_subscriber(req.stream_id, from);
  StreamContext* ctx = table_->find_context(req.stream_id);
  if (ctx != nullptr) ctx->fib.rtx_only_nodes.erase(from);
  update_upstream_mask(req.stream_id);
  maybe_release_stream(req.stream_id);
}

// ---------------------------------------------------------- stream release

void ControlAgent::maybe_release_stream(StreamId stream) {
  const StreamFib::Entry* entry = table_->find(stream);
  if (entry == nullptr || entry->locally_produced) return;
  if (entry->has_subscribers()) return;

  auto& st = ensure_stream(stream);
  if (st.linger_timer != sim::kInvalidEvent) return;  // already scheduled
  st.linger_timer = env_->net->loop()->schedule_after(
      cfg_->unsubscribe_linger, [this, stream] {
        StreamContext* ctx = table_->find_context(stream);
        if (ctx != nullptr) ctx->linger_timer = sim::kInvalidEvent;
        const StreamFib::Entry* e = table_->find(stream);
        if (e == nullptr || e->locally_produced || e->has_subscribers()) {
          return;  // a subscriber came back during the linger window
        }
        release_stream(stream);
      });
}

void ControlAgent::release_stream(StreamId stream) {
  // Unsubscribe from every supplier: the primary upstream first, then
  // standby (RTX-only) upstreams and half-established standbys. With
  // multi-supplier off this is exactly the old single-upstream unsub.
  const StreamFib::Entry* entry = table_->find(stream);
  std::vector<NodeId> ups;
  if (entry != nullptr && entry->upstream != sim::kNoNode) {
    ups.push_back(entry->upstream);
  }
  if (const StreamContext* c = table_->find_context(stream)) {
    for (const NodeId n : c->suppliers) {
      if (std::find(ups.begin(), ups.end(), n) == ups.end()) ups.push_back(n);
    }
    for (const NodeId n : c->pending_standbys) {
      if (std::find(ups.begin(), ups.end(), n) == ups.end()) ups.push_back(n);
    }
  }
  for (const NodeId up : ups) {
    auto unsub = sim::make_message<UnsubscribeRequest>();
    unsub->stream_id = stream;
    env_->net->send(env_->self(), up, std::move(unsub));
    recovery_->forget_upstream(up, stream);
  }
  senders_->forget_stream(stream);
  recovery_->cache().forget_stream(stream);
  // Sweep the in-flight path lookup too: a released stream must not be
  // resurrected by a late response, and the lookup's retry timer has to
  // find nothing and die. (The old split-map code leaked both, keeping
  // a retry loop alive forever — see tests/test_stream_context.cpp.)
  for (auto it = pending_path_reqs_.begin();
       it != pending_path_reqs_.end();) {
    it = it->second == stream ? pending_path_reqs_.erase(it) : ++it;
  }
  StreamContext* ctx = table_->find_context(stream);
  if (ctx != nullptr && ctx->linger_timer != sim::kInvalidEvent) {
    env_->net->loop()->cancel(ctx->linger_timer);
  }
  // Erasing the context drops the FIB entry, the path cache, pending
  // views and the switch/costream flags in one stroke.
  table_->erase(stream);
}

// ----------------------------------------------------------- path switch

void ControlAgent::switch_path(StreamId stream) {
  StreamContext* stp = table_->find_context(stream);
  if (stp == nullptr) return;
  auto& st = *stp;
  const StreamFib::Entry* entry = table_->find(stream);
  if (entry == nullptr || entry->locally_produced) return;

  // Hysteresis: switching tears the stream down and back up; never flap
  // faster than the cooldown.
  const Time now = env_->net->loop()->now();
  if (st.last_switch != kNever &&
      now - st.last_switch < cfg_->switch_cooldown) {
    return;
  }

  // Find the next backup candidate that actually changes the upstream
  // hop (candidates sharing the bad upstream gain nothing).
  if (paths_fresh(st)) {
    const NodeId old_upstream = entry->upstream;
    while (st.next_backup < st.cached_paths.size()) {
      const Path next = st.cached_paths[st.next_backup++];
      if (next.size() >= 2 && next[next.size() - 2] == old_upstream) {
        continue;
      }
      st.last_switch = now;
      // Make-before-break (§7.1): establish the new path first; the old
      // subscription lingers for a grace period so content never gaps.
      // It stays a supplier for the same window — racing NACKs to it is
      // exactly what the grace period is for.
      establish_via_path(stream, next, /*keep_prev_supplier=*/true);
      if (old_upstream != sim::kNoNode) {
        env_->net->loop()->schedule_after(
            3 * kSec, [this, stream, old_upstream] {
              const StreamFib::Entry* e = table_->find(stream);
              if (e == nullptr || e->upstream == old_upstream) return;
              auto unsub = sim::make_message<UnsubscribeRequest>();
              unsub->stream_id = stream;
              env_->net->send(env_->self(), old_upstream, std::move(unsub));
              recovery_->forget_upstream(old_upstream, stream);
              StreamContext* c2 = table_->find_context(stream);
              if (c2 != nullptr) remove_supplier(*c2, old_upstream);
            });
      }
      session_->note_path_switch(stream);
      return;
    }
  }
  // Out of usable candidates: ask the Brain for the current best and
  // complete the switch when the response lands.
  st.switch_pending = true;
  request_path(stream);
}

// ------------------------------------------------------ discovery reports

void ControlAgent::start_reporting() {
  if (report_timer_ == sim::kInvalidEvent) {
    report_state();  // reports immediately, then self-rearms
  }
  if (overload_timer_ == sim::kInvalidEvent) {
    overload_timer_ = env_->net->loop()->schedule_after(
        cfg_->overload_check_interval, [this] { check_overload(); });
  }
}

void ControlAgent::report_state() {
  report_timer_ = env_->net->loop()->schedule_after(
      cfg_->report_interval, [this] { report_state(); });
  if (env_->brain == sim::kNoNode) return;
  if (!rng_seeded_) {
    rng_.reseed(0xD15C0 + static_cast<std::uint64_t>(env_->self()));
    rng_seeded_ = true;
  }
  auto report = sim::make_message<NodeStateReport>();
  report->node = env_->self();
  report->node_load = node_load();
  report->links.reserve(env_->peers.size());
  for (const NodeId peer : env_->peers) {
    if (peer == env_->self()) continue;
    const sim::Link* l = env_->net->link(env_->self(), peer);
    if (l == nullptr) continue;
    LinkReport lr;
    lr.to = peer;
    // §4.2: links that carried traffic recently report transport-layer
    // statistics (near ground truth); idle links are actively probed
    // with a few UDP-ping packets, a noisier estimate.
    lr.actively_measured = l->stats().packets_sent == 0;
    const double rtt_noise =
        lr.actively_measured ? rng_.uniform(0.95, 1.08) : 1.0;
    lr.rtt = static_cast<Duration>(
        static_cast<double>(l->base_rtt()) * rtt_noise);
    // A few-packet ping cannot observe sub-percent loss at all. Loaded
    // links report what the wire currently does to packets — including
    // any injected degradation — not the nominal configuration.
    lr.loss_rate = lr.actively_measured ? 0.0 : l->effective_loss_rate();
    lr.utilization = l->utilization();
    report->links.push_back(lr);
  }
  env_->net->send(env_->self(), env_->brain, std::move(report));
}

void ControlAgent::check_overload() {
  overload_timer_ = env_->net->loop()->schedule_after(
      cfg_->overload_check_interval, [this] { check_overload(); });
  if (env_->brain == sim::kNoNode) return;

  const double load = node_load();
  std::vector<NodeId> hot_links;
  for (const NodeId peer : env_->peers) {
    if (peer == env_->self()) continue;
    const sim::Link* l = env_->net->link(env_->self(), peer);
    if (l != nullptr && l->utilization() >= cfg_->overload_threshold) {
      hot_links.push_back(peer);
    }
  }
  const bool overloaded =
      load >= cfg_->overload_threshold || !hot_links.empty();
  if (overloaded && !overload_alarm_active_) {
    overload_alarm_active_ = true;
    auto alarm = sim::make_message<OverloadAlarm>();
    alarm->node = env_->self();
    alarm->node_load = load;
    alarm->overloaded_links = std::move(hot_links);
    env_->net->send(env_->self(), env_->brain, std::move(alarm));
  } else if (!overloaded && load < 0.9 * cfg_->overload_threshold) {
    overload_alarm_active_ = false;  // hysteresis re-arm
  }
}

// ------------------------------------------------------------ fault hooks

void ControlAgent::crash_reset() {
  cancel_timers();
  report_timer_ = sim::kInvalidEvent;
  overload_timer_ = sim::kInvalidEvent;
  pending_path_reqs_.clear();
  overload_alarm_active_ = false;
}

void ControlAgent::cancel_timers() {
  auto* loop = env_->net->loop();
  if (report_timer_ != sim::kInvalidEvent) loop->cancel(report_timer_);
  if (overload_timer_ != sim::kInvalidEvent) loop->cancel(overload_timer_);
}

}  // namespace livenet::overlay
