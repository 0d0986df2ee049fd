#include "overlay/recovery_engine.h"

#include <algorithm>
#include <limits>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace livenet::overlay {

LinkReceiver& RecoveryEngine::receiver_for(sim::NodeId peer) {
  auto it = receivers_.find(peer);
  if (it == receivers_.end()) {
    LinkReceiver::Config rc = cfg_.receiver;
    rc.telemetry = cfg_.telemetry;
    rc.buffer.telemetry = cfg_.telemetry;
    it = receivers_
             .emplace(peer, std::make_unique<LinkReceiver>(
                                net_, owner_->node_id(), peer, deliver_,
                                [](media::StreamId) {}, rc))
             .first;
    if (cfg_.multi_supplier) {
      LinkReceiver* rx = it->second.get();
      rx->set_nack_route([this, peer](media::StreamId stream, bool audio,
                                      const std::vector<media::Seq>& m) {
        route_nack(peer, stream, audio, m);
      });
    }
  }
  return *it->second;
}

void RecoveryEngine::note_alt_rtx_arrival(
    sim::NodeId from, const media::RtpPacketPtr& pkt) const {
  if (!cfg_.telemetry) return;
  telemetry::record_hop(pkt->trace_id(), net_->loop()->now(),
                        pkt->stream_id(), pkt->producer_seq(), from,
                        owner_->node_id(), telemetry::HopEvent::kAltRtx);
}

Duration RecoveryEngine::rtt_to(sim::NodeId peer) const {
  const sim::Link* l = net_->link(peer, owner_->node_id());
  return l != nullptr ? l->base_rtt()
                      : std::numeric_limits<Duration>::max() / 4;
}

void RecoveryEngine::send_nack_to(sim::NodeId target, sim::NodeId primary,
                                  media::StreamId stream, bool audio,
                                  const std::vector<media::Seq>& seqs) {
  if (target != primary) {
    // The alternate's RTX must land in the primary pipeline whose holes
    // it fills; register redirects before the NACK leaves.
    for (const media::Seq s : seqs) {
      rtx_redirects_[{stream, s}] = primary;
    }
    while (rtx_redirects_.size() > kMaxRedirects) {
      rtx_redirects_.erase(rtx_redirects_.begin());
    }
    if (cfg_.telemetry) {
      telemetry::handles().alt_supplier_rtx->add(seqs.size());
    }
  }
  auto nack = sim::make_message<media::NackMessage>();
  nack->stream_id = stream;
  nack->audio = audio;
  nack->missing = seqs;
  net_->send(owner_->node_id(), target, std::move(nack));
}

void RecoveryEngine::route_nack(sim::NodeId primary, media::StreamId stream,
                                bool audio,
                                const std::vector<media::Seq>& missing) {
  const StreamContext* ctx = streams_->find_context(stream);
  if (!cfg_.multi_supplier || ctx == nullptr || ctx->suppliers.size() < 2) {
    send_nack_to(primary, primary, stream, audio, missing);
    return;
  }
  // Race to the lowest-RTT supplier; remember the runner-up for the
  // staggered escalation.
  std::vector<sim::NodeId> order(ctx->suppliers);
  std::sort(order.begin(), order.end(),
            [this](sim::NodeId a, sim::NodeId b) {
              const Duration ra = rtt_to(a), rb = rtt_to(b);
              return ra != rb ? ra < rb : a < b;
            });
  const sim::NodeId best = order.front();
  const sim::NodeId next = order[1];
  send_nack_to(best, primary, stream, audio, missing);

  // Staggered fallback: if the holes survive a best-supplier round trip
  // (plus slack), escalate the survivors to the next supplier.
  const Duration stagger = rtt_to(best) + kStaggerExtra;
  const sim::EventId id = net_->loop()->schedule_after(
      stagger, [this, primary, next, stream, audio, missing] {
        const LinkReceiver* rx = find_receiver(primary);
        if (rx == nullptr) return;
        const std::vector<media::Seq> still =
            rx->missing_subset(stream, audio, missing);
        if (!still.empty()) {
          send_nack_to(next, primary, stream, audio, still);
        }
      });
  stagger_timers_.insert(id);
  // Bound the timer set: drop bookkeeping for long-fired events (the
  // loop ignores cancel() of an already-fired id, so stale entries are
  // harmless but unbounded growth is not).
  if (stagger_timers_.size() > 4096) {
    stagger_timers_.clear();
    stagger_timers_.insert(id);
  }
}

void RecoveryEngine::on_void_notice(sim::NodeId from, media::StreamId stream,
                                    bool audio,
                                    const std::vector<media::Seq>& voided) {
  // Group per owning pipeline: each seq belongs to the pipeline the
  // NACK named (the redirect registered when it was raced to an
  // alternate supplier), defaulting to the notice's sender.
  for (const media::Seq s : voided) {
    sim::NodeId origin = from;
    if (!rtx_redirects_.empty()) {
      const auto it = rtx_redirects_.find({stream, s});
      if (it != rtx_redirects_.end()) {
        origin = it->second;
        rtx_redirects_.erase(it);
      }
    }
    const auto rx = receivers_.find(origin);
    if (rx != receivers_.end()) {
      rx->second->void_seqs(stream, audio, {s});
    }
  }
}

void RecoveryEngine::cancel_staggers() {
  for (const sim::EventId id : stagger_timers_) {
    net_->loop()->cancel(id);
  }
  stagger_timers_.clear();
}

void RecoveryEngine::serve_nack_fallback(
    LinkSender& snd, sim::NodeId to, media::StreamId stream,
    const std::vector<media::Seq>& unserved, media::LayerMask mask) {
  // Collect cache hits first so base-layer holes can be served before
  // enhancement-layer ones (the stable sort is a no-op for non-SVC
  // content, whose packets all sit at layer {0,0}).
  std::vector<media::RtpPacketPtr> hits;
  std::vector<media::Seq> voided;
  hits.reserve(unserved.size());
  for (const media::Seq seq : unserved) {
    auto cached = packet_cache_.find_packet(stream, seq);
    if (!cached) {
      // Not in history, not in cache — but if an ingress pipeline
      // recorded the seq as a void, it was layer-filtered before it
      // ever reached this node: vouch for the void downstream, the
      // relay is the only one who still knows.
      for (const auto& [peer, rx] : receivers_) {
        if (rx->buffer().was_voided(stream, /*audio=*/false, seq)) {
          voided.push_back(seq);
          break;
        }
      }
      continue;
    }
    // Never retransmit a layer the requester's mask filters out: the
    // hole is intentional on that link, not a loss — vouch for the void
    // instead so the requester stops hoping (and NACKing) for it.
    if ((mask & cached->layer_mask_bit()) == 0) {
      voided.push_back(seq);
      continue;
    }
    hits.push_back(std::move(cached));
  }
  if (!voided.empty()) {
    if (cfg_.telemetry) {
      telemetry::handles().svc_nack_voids->add(voided.size());
    }
    auto notice = sim::make_message<media::NackVoidMessage>();
    notice->stream_id = stream;
    notice->audio = false;
    notice->voided = std::move(voided);
    net_->send(owner_->node_id(), to, std::move(notice));
  }
  std::stable_sort(hits.begin(), hits.end(),
                   [](const media::RtpPacketPtr& a,
                      const media::RtpPacketPtr& b) {
                     return media::layer_bit(a->layer()) <
                            media::layer_bit(b->layer());
                   });
  for (const auto& cached : hits) {
    if (cfg_.telemetry) {
      telemetry::handles().cache_hits->add();
      telemetry::record_hop(cached->trace_id(), net_->loop()->now(),
                            cached->stream_id(), cached->producer_seq(),
                            owner_->node_id(), to,
                            telemetry::HopEvent::kCacheHit);
    }
    snd.send_rtx(cached);
  }
}

}  // namespace livenet::overlay
