#pragma once

#include <memory>
#include <vector>

#include "media/rtp.h"
#include "sim/network.h"
#include "transport/gcc.h"
#include "transport/pacer.h"
#include "transport/send_history.h"

// Sender half of one overlay hop (this node -> one downstream peer,
// which may be another overlay node or a client): the fast path's send
// queue + pacer, the slow path's send-side loss recovery (answering
// NACKs from history) and the GCC sender that converts receiver
// feedback into the pacing rate.
namespace livenet::overlay {

class LinkSender {
 public:
  struct Config {
    transport::Pacer::Config pacer;
    transport::GccSender::Config gcc;
  };

  LinkSender(sim::Network* net, sim::NodeId self, sim::NodeId peer)
      : LinkSender(net, self, peer, Config()) {}
  LinkSender(sim::Network* net, sim::NodeId self, sim::NodeId peer,
             const Config& cfg);

  /// Fast-path enqueue: records the packet for possible retransmission
  /// and hands it to the pacer.
  void send_media(const media::RtpPacketPtr& pkt);

  /// Slow-path loss recovery: answers a NACK by retransmitting from
  /// history with elevated priority. Returns the seqs NOT found in the
  /// send history — the caller may serve those from the node's
  /// slow-path GoP cache (paper §3: B answers C's NACK from the copy
  /// its own slow path recovered).
  std::vector<media::Seq> on_nack(media::StreamId stream, bool audio,
                                  const std::vector<media::Seq>& seqs);

  /// Retransmits an explicit packet (slow-path cache fallback).
  void send_rtx(const media::RtpPacketPtr& pkt);

  /// Enqueues an FEC parity packet. Parity is never recorded in the
  /// send history (it is not NACKable — losing redundancy costs
  /// nothing) and rides the pacer's lowest-priority queue.
  void send_parity(media::RtpPacketPtr pkt);

  /// GCC feedback from the peer; updates the pacing rate.
  void on_cc_feedback(double remb_bps, double loss_fraction);

  void forget_stream(media::StreamId stream) {
    history_.forget_stream(stream);
  }

  sim::NodeId peer() const { return peer_; }
  const transport::Pacer& pacer() const { return pacer_; }
  double pacing_rate_bps() const { return gcc_.pacing_rate_bps(); }
  const transport::GccSender& gcc() const { return gcc_; }
  Duration queue_drain_time() const { return pacer_.drain_time(); }
  std::uint64_t rtx_sent() const { return rtx_sent_; }
  /// Loss fraction the peer reported in its most recent CC feedback —
  /// the adaptive FEC probe rate keys off this.
  double last_loss_fraction() const { return last_loss_fraction_; }

 private:
  sim::Network* net_;
  sim::NodeId self_;
  sim::NodeId peer_;
  transport::SendHistory history_;
  transport::GccSender gcc_;
  transport::Pacer pacer_;  // wired straight to net_ (set_wire in ctor)
  std::uint64_t rtx_sent_ = 0;
  double last_loss_fraction_ = 0.0;
};

}  // namespace livenet::overlay
