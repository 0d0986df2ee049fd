#include "overlay/link_receiver.h"

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace livenet::overlay {

LinkReceiver::LinkReceiver(sim::Network* net, sim::NodeId self,
                           sim::NodeId peer, DeliverFn deliver, GapFn gap,
                           const Config& cfg)
    : net_(net), self_(self), peer_(peer), cfg_(cfg),
      gcc_(kGccStartRateBps),
      buffer_(
          net->loop(), std::move(deliver), std::move(gap),
          [this](media::StreamId stream, bool audio,
                 const std::vector<media::Seq>& m) {
            if (nack_route_) {
              nack_route_(stream, audio, m);
              return;
            }
            auto nack = sim::make_message<media::NackMessage>();
            nack->stream_id = stream;
            nack->audio = audio;
            nack->missing = m;
            net_->send(self_, peer_, std::move(nack));
          },
          cfg.buffer) {
  // Re-NACK holdoff needs the upstream round trip; without a link
  // (unit tests wiring buffers directly) the hint stays 0 and the
  // holdoff degrades to the scan interval.
  if (const sim::Link* l = net->link(peer, self)) {
    buffer_.set_rtt_hint(l->base_rtt());
  }
}

LinkReceiver::~LinkReceiver() {
  if (feedback_timer_ != sim::kInvalidEvent) {
    net_->loop()->cancel(feedback_timer_);
  }
}

void LinkReceiver::on_rtp(const media::RtpPacketPtr& pkt) {
  const Time now = net_->loop()->now();
  if (pkt->is_fec_parity()) {
    // Parity stops here: no GCC sample, no seq-space entry. Either it
    // closes a one-hole group now or it is held for a later re-arm.
    inject_recovered(fec_.on_parity(*pkt));
    return;
  }
  if (pkt->hop_send_time != kNever) {
    gcc_.on_packet(pkt->hop_send_time, now, pkt->wire_size());
  }
  if (fec_.active()) {
    // Record this arrival's parity contribution; an RTX landing in a
    // held two-loss group can re-arm it down to one hole.
    inject_recovered(fec_.on_media(*pkt));
  }
  buffer_.on_packet(pkt);
  if (feedback_timer_ == sim::kInvalidEvent) {
    feedback_timer_ = net_->loop()->schedule_after(
        kFeedbackInterval, [this] { send_feedback(); });
  }
}

void LinkReceiver::inject_recovered(media::RtpPacketMut rec) {
  // A reconstruction can cascade: registering the recovered packet may
  // re-arm another held group down to one hole.
  while (rec != nullptr) {
    media::RtpPacketMut next = fec_.on_media(*rec);
    if (!buffer_.would_accept(rec->stream_id(), rec->is_audio(), rec->seq)) {
      rec = std::move(next);
      continue;  // RTX beat us to it; never inject a duplicate
    }
    if (cfg_.telemetry) {
      telemetry::handles().fec_recovered->add();
      telemetry::record_hop(rec->trace_id(), net_->loop()->now(),
                            rec->stream_id(), rec->producer_seq(), self_,
                            peer_, telemetry::HopEvent::kFecRecovered);
    }
    buffer_.on_packet(rec);
    rec = std::move(next);
  }
}

void LinkReceiver::send_feedback() {
  feedback_timer_ = sim::kInvalidEvent;
  auto fb = sim::make_message<media::CcFeedbackMessage>();
  fb->remb_bps = gcc_.remb_bps();
  fb->loss_fraction = buffer_.take_loss_fraction();
  net_->send(self_, peer_, std::move(fb));
  // Keep reporting while the link is active; the timer re-arms on the
  // next packet if we stop here after an idle interval.
  feedback_timer_ = net_->loop()->schedule_after(kFeedbackInterval,
                                                 [this] { send_feedback(); });
}

}  // namespace livenet::overlay
