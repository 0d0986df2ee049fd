#pragma once

#include <functional>
#include <memory>

#include "media/fec.h"
#include "media/rtp.h"
#include "sim/network.h"
#include "transport/gcc.h"
#include "transport/receive_buffer.h"

// Receiver half of one overlay hop (one upstream peer -> this node):
// the slow path's receive buffer (ordering, hole detection, NACK
// emission), the link-local FEC decoder (parity-group reconstruction —
// the recovery tier that beats a NACK by a full RTT), and the receiver
// side of GCC, which periodically feeds a REMB + loss feedback message
// back to the upstream sender.
namespace livenet::overlay {

class LinkReceiver {
 public:
  struct Config {
    transport::ReceiveBuffer::Config buffer;
    bool telemetry = true;  ///< FEC-recovery counters + hop records
  };

  /// `deliver` receives packets in seq order per stream (the slow-path
  /// output that feeds framing + GoP caching); `gap` signals an
  /// unrecoverable hole in a stream.
  using DeliverFn = std::function<void(const media::RtpPacketPtr&)>;
  using GapFn = std::function<void(media::StreamId)>;
  /// NACK routing override: when installed (multi-supplier mode), hole
  /// lists go to the recovery engine's supplier router instead of
  /// straight to this link's upstream peer.
  using NackRouteFn = std::function<void(media::StreamId, bool,
                                         const std::vector<media::Seq>&)>;

  LinkReceiver(sim::Network* net, sim::NodeId self, sim::NodeId peer,
               DeliverFn deliver, GapFn gap)
      : LinkReceiver(net, self, peer, std::move(deliver), std::move(gap),
                     Config()) {}
  LinkReceiver(sim::Network* net, sim::NodeId self, sim::NodeId peer,
               DeliverFn deliver, GapFn gap, const Config& cfg);
  ~LinkReceiver();
  LinkReceiver(const LinkReceiver&) = delete;
  LinkReceiver& operator=(const LinkReceiver&) = delete;

  /// Slow-path entry: feeds GCC, the FEC decoder, and the receive
  /// buffer. Parity packets stop at the decoder — they never enter the
  /// media seq space (no GCC sample, no hole accounting).
  void on_rtp(const media::RtpPacketPtr& pkt);

  /// Install the multi-supplier NACK router (see NackRouteFn).
  void set_nack_route(NackRouteFn route) { nack_route_ = std::move(route); }

  void forget_stream(media::StreamId stream) {
    buffer_.forget_stream(stream);
  }

  /// Supplier-vouched voids (NackVoid answer): see
  /// ReceiveBuffer::void_seqs.
  void void_seqs(media::StreamId stream, bool audio,
                 const std::vector<media::Seq>& seqs) {
    buffer_.void_seqs(stream, audio, seqs);
  }

  sim::NodeId peer() const { return peer_; }
  const transport::ReceiveBuffer& buffer() const { return buffer_; }
  const media::FecDecoder& fec() const { return fec_; }
  std::vector<media::RtpPacketPtr> buffered_packets(
      media::StreamId stream) const {
    return buffer_.buffered_packets(stream);
  }
  double remb_bps() const { return gcc_.remb_bps(); }
  /// Still-missing subset probe for the staggered supplier fallback.
  std::vector<media::Seq> missing_subset(
      media::StreamId stream, bool audio,
      const std::vector<media::Seq>& seqs) const {
    return buffer_.missing_subset(stream, audio, seqs);
  }

 private:
  static constexpr Duration kFeedbackInterval = 100 * kMs;
  static constexpr double kGccStartRateBps = 20e6;

  void send_feedback();
  void inject_recovered(media::RtpPacketMut rec);

  sim::Network* net_;
  sim::NodeId self_;
  sim::NodeId peer_;
  Config cfg_;
  transport::GccReceiver gcc_;
  transport::ReceiveBuffer buffer_;
  media::FecDecoder fec_;
  NackRouteFn nack_route_;
  sim::EventId feedback_timer_ = sim::kInvalidEvent;
};

}  // namespace livenet::overlay
