#include "overlay/forwarding_engine.h"

#include <limits>
#include <utility>

#include "overlay/overlay_node.h"
#include "overlay/session_layer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace livenet::overlay {

using media::RtpPacketPtr;
using sim::NodeId;

void ForwardingEngine::fast_forward(NodeId from, const RtpPacketPtr& pkt,
                                    const StreamContext* ctx) {
  if (ctx == nullptr || !ctx->fib_active) return;
  const FibEntry& entry = ctx->fib;
  // During a make-before-break path switch both upstreams deliver for a
  // grace period; only the current upstream's copies are forwarded (the
  // other still feeds the slow path for caching and recovery).
  if (!entry.locally_produced && env_->peer_set.count(from) != 0 &&
      from != entry.upstream) {
    return;
  }
  if (entry.subscriber_nodes.empty() && entry.subscriber_clients.empty()) {
    return;
  }

  // Snapshot targets now; fan out after the fast-path processing delay.
  sim::EventLoop* loop = env_->net->loop();
  const std::uint32_t slot = acquire_slot();
  Fanout& f = pool_[slot];
  f.pkt = pkt;
  f.from = from;
  if (entry.any_layer_filter()) {
    // SVC filter: decided here, at snapshot time, so a filtered target
    // is never forked at all — the zero-copy fast path stays zero-copy.
    // Masked-link seq history also advances here because snapshots (not
    // deferred fan-outs) see packets in arrival order.
    const media::LayerMask bit = pkt->layer_mask_bit();
    const media::Seq s = pkt->producer_seq();
    for (const NodeId n : entry.subscriber_nodes) {
      const media::LayerMask mask =
          n == from ? media::kAllLayers : entry.node_mask(n);
      if (mask == media::kAllLayers) {  // dense link (or echo: flush skips)
        f.nodes.push_back(n);
        f.prevs.push_back(0);
        continue;
      }
      LinkSeqState& ls = link_seq_[{pkt->stream_id(), n}];
      const bool in_order = s > ls.last_seen;
      // An arrival gap vouched by the packet's own prev_link_seq is an
      // upstream hop's filtering, not damage — without honoring it, the
      // voucher chain breaks at the second filtering hop and every
      // downstream receiver NACKs seqs nobody can retransmit.
      const bool gap_vouched =
          pkt->prev_link_seq != 0 && pkt->prev_link_seq <= ls.last_seen;
      if ((mask & bit) != 0) {
        media::Seq prev = 0;
        if (in_order) {
          if (ls.last_seen != 0 && s != ls.last_seen + 1 && !gap_vouched) {
            ls.clean = false;
          }
          if (ls.clean && ls.last_fwd != 0 && s != ls.last_fwd + 1) {
            prev = ls.last_fwd;
          }
          ls.last_fwd = s;
          ls.last_seen = s;
          ls.clean = true;
        }
        f.nodes.push_back(n);
        f.prevs.push_back(prev);
      } else {
        if (in_order) {
          if (ls.last_seen != 0 && s != ls.last_seen + 1 && !gap_vouched) {
            ls.clean = false;
          }
          ls.last_seen = s;
        }
        f.nodes.push_back(n);
        f.prevs.push_back(kSkipEntry);
        telemetry::handles().layer_filtered->add();
        telemetry::record_hop(pkt->trace_id(), loop->now(), pkt->stream_id(),
                              s, env_->self(), n, telemetry::HopEvent::kDrop,
                              telemetry::DropReason::kLayerFiltered);
      }
    }
  } else {
    f.nodes.assign(entry.subscriber_nodes.begin(),
                   entry.subscriber_nodes.end());
  }
  f.clients.assign(entry.subscriber_clients.begin(),
                   entry.subscriber_clients.end());
  loop->schedule_after(kFastProcDelay, [this, slot] { flush(slot); });
}

void ForwardingEngine::feed_fec(const RtpPacketPtr& pkt, NodeId n, Time now) {
  FecLinkState& st = fec_links_[{pkt->stream_id(), n}];
  st.enc.set_k(cfg_->fec_group_packets);
  std::optional<media::RtpBody> parity = st.enc.add(pkt->body());
  if (!parity) return;

  // Probe rate: fixed, or adapted to the loss the link's peer last
  // reported (heavy loss -> every group, light loss -> every other
  // group, clean link -> no parity at all).
  LinkSender& snd = senders_->sender_for(n);
  double rate = cfg_->fec_rate;
  if (cfg_->fec_adaptive) {
    const double loss = snd.last_loss_fraction();
    rate = loss >= 0.02 ? 1.0 : (loss > 0.0 ? 0.5 : 0.0);
  }
  st.err_accum += rate;
  if (st.err_accum < 1.0) return;
  st.err_accum -= 1.0;

  // Budget clamp: parity output on this link stays under a fixed
  // fraction of the link's current pacing rate.
  const double budget = kFecBudgetFraction * snd.pacer().rate_bps();
  if (st.parity_meter.valid(now) && st.parity_meter.rate_bps(now) > budget) {
    return;
  }
  media::RtpPacketMut pp = media::RtpPacket::make(std::move(*parity));
  pp->delay_ext_us = pkt->delay_ext_us + kFastProcDelay +
                     half_rtt_between(env_->net, env_->self(), n);
  pp->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
  st.parity_meter.add(now, pp->wire_size());
  egress_meter_.add(now, pp->wire_size());
  ++fec_parity_sent_;
  telemetry::handles().fec_parity_sent->add();
  snd.send_parity(std::move(pp));
}

void ForwardingEngine::feed_fec_skip(const RtpPacketPtr& pkt, NodeId n) {
  // Only an already-open group cares; never create state for a link the
  // packet was filtered off of.
  const auto it = fec_links_.find({pkt->stream_id(), n});
  if (it != fec_links_.end()) it->second.enc.skip(pkt->producer_seq());
}

void ForwardingEngine::forget_stream(media::StreamId stream) {
  auto it = fec_links_.lower_bound(
      {stream, std::numeric_limits<sim::NodeId>::min()});
  while (it != fec_links_.end() && it->first.first == stream) {
    it = fec_links_.erase(it);
  }
  auto ls = link_seq_.lower_bound(
      {stream, std::numeric_limits<sim::NodeId>::min()});
  while (ls != link_seq_.end() && ls->first.first == stream) {
    ls = link_seq_.erase(ls);
  }
}

std::size_t ForwardingEngine::link_states(media::StreamId stream) const {
  std::size_t n = 0;
  for (const auto& [key, st] : fec_links_) n += key.first == stream;
  for (const auto& [key, st] : link_seq_) n += key.first == stream;
  return n;
}

std::uint32_t ForwardingEngine::acquire_slot() {
  if (free_slots_.empty()) {
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void ForwardingEngine::flush(std::uint32_t slot) {
  Fanout& f = pool_[slot];
  const RtpPacketPtr& pkt = f.pkt;
  const Time now = env_->net->loop()->now();
  std::uint64_t forwards = 0;
  for (std::size_t i = 0; i < f.nodes.size(); ++i) {
    const NodeId n = f.nodes[i];
    media::Seq prev = 0;
    if (!f.prevs.empty()) {  // stream had a layer filter
      prev = f.prevs[i];
      if (prev == kSkipEntry) {
        // Filtered at snapshot time: no fork, no send — only the FEC
        // group on the link learns the seq is intentionally absent.
        if ((cfg_->fec_rate > 0.0 || cfg_->fec_adaptive) &&
            !pkt->is_audio()) {
          feed_fec_skip(pkt, n);
        }
        continue;
      }
    }
    if (n == f.from) continue;  // never echo upstream
    auto clone = pkt->fork();
    clone->prev_link_seq = prev;
    clone->delay_ext_us +=
        kFastProcDelay + half_rtt_between(env_->net, env_->self(), n);
    clone->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
    egress_meter_.add(now, clone->wire_size());
    ++forwards;
    telemetry::record_hop(pkt->trace_id(), now, pkt->stream_id(),
                          pkt->producer_seq(), env_->self(), n,
                          telemetry::HopEvent::kForward);
    senders_->sender_for(n).send_media(std::move(clone));
    if ((cfg_->fec_rate > 0.0 || cfg_->fec_adaptive) && !pkt->is_audio()) {
      feed_fec(pkt, n, now);
    }
  }
  for (const ClientId c : f.clients) {
    session_->deliver_to_client(static_cast<NodeId>(c), pkt);
  }
  fast_forwards_ += forwards;
  if (forwards != 0) telemetry::handles().fast_forwards->add(forwards);
  f.pkt = nullptr;
  f.nodes.clear();
  f.clients.clear();
  f.prevs.clear();
  free_slots_.push_back(slot);
}

}  // namespace livenet::overlay
