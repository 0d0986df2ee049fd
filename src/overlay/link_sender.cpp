#include "overlay/link_sender.h"

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace livenet::overlay {

namespace {

// One retransmission observation: the registry counter plus, for
// traced packets, a kRtx hop record.
void note_rtx(const media::RtpPacket& pkt, Time now, sim::NodeId self,
              sim::NodeId peer) {
  telemetry::handles().rtx_sent->add();
  telemetry::record_hop(pkt.trace_id(), now, pkt.stream_id(),
                        pkt.producer_seq(), self, peer,
                        telemetry::HopEvent::kRtx);
}

}  // namespace

LinkSender::LinkSender(sim::Network* net, sim::NodeId self, sim::NodeId peer,
                       const Config& cfg)
    : net_(net), self_(self), peer_(peer), gcc_(cfg.gcc),
      pacer_(net->loop(), transport::Pacer::SendFn{}, cfg.pacer) {
  // Direct wire sink: the pacer stamps the per-hop departure time for
  // the peer's GCC delay estimator and hands the packet to the network
  // without an indirection per packet.
  pacer_.set_wire(net_, self_, peer_);
  pacer_.set_rate_bps(gcc_.pacing_rate_bps());
}

void LinkSender::send_media(const media::RtpPacketPtr& pkt) {
  history_.record(pkt, net_->loop()->now());
  pacer_.enqueue(pkt);
}

std::vector<media::Seq> LinkSender::on_nack(
    media::StreamId stream, bool audio,
    const std::vector<media::Seq>& seqs) {
  std::vector<media::Seq> unserved;
  const Time now = net_->loop()->now();
  for (const media::Seq seq : seqs) {
    const media::RtpPacketPtr orig = history_.lookup(stream, audio, seq, now);
    if (!orig) {
      unserved.push_back(seq);
      continue;
    }
    auto rtx = orig->fork();
    rtx->is_rtx = true;
    ++rtx_sent_;
    note_rtx(*rtx, now, self_, peer_);
    pacer_.enqueue(std::move(rtx));
  }
  return unserved;
}

void LinkSender::send_rtx(const media::RtpPacketPtr& pkt) {
  auto rtx = pkt->fork();
  rtx->is_rtx = true;
  ++rtx_sent_;
  note_rtx(*rtx, net_->loop()->now(), self_, peer_);
  pacer_.enqueue(std::move(rtx));
}

void LinkSender::send_parity(media::RtpPacketPtr pkt) {
  pacer_.enqueue(std::move(pkt));
}

void LinkSender::on_cc_feedback(double remb_bps, double loss_fraction) {
  last_loss_fraction_ = loss_fraction;
  gcc_.on_feedback(remb_bps, loss_fraction);
  pacer_.set_rate_bps(gcc_.pacing_rate_bps());
}

}  // namespace livenet::overlay
