#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "media/rtp.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/time.h"

// Priority-aware pacer (paper §5.2, "Priority-Aware Data Sending").
//
// One pacer drives each outgoing link of an overlay node. The fast path
// enqueues packets here; the slow path's GCC instance sets the pacing
// rate. Priorities: audio first (avoids head-of-line blocking behind
// large video frames), then retransmissions ("retransmitted packets
// have a higher sending priority than the packets in the send queue"),
// then video. I-frame packets are sent with a pacing gain of 1.5 to
// drain the large keyframe quickly.
namespace livenet::transport {

class Pacer {
 public:
  struct Config {
    double rate_bps = 10e6;
    double i_frame_gain = 1.5;  ///< pacing gain while sending I frames
    std::size_t max_queue_bytes = 8 * 1024 * 1024;  ///< hard cap; drops video
  };

  /// By-value so the drain path can move the packet all the way to the
  /// wire (fire() relinquishes its reference; a callee that forwards
  /// with std::move pays zero refcount traffic per packet). Callables
  /// taking `const RtpPacketPtr&` still wrap fine.
  using SendFn = std::function<void(media::RtpPacketPtr)>;

  /// A queued packet plus its wire size, captured at enqueue so the
  /// drain path never re-derives it (wire_size() chases the shared
  /// body pointer).
  struct Queued {
    media::RtpPacketPtr pkt;
    std::uint32_t bytes = 0;
  };

  /// Power-of-two ring-buffer FIFO. A std::deque here paid a malloc /
  /// free every block crossing on the enqueue→send cycle; the ring
  /// reallocates only on growth and stays allocation-free in steady
  /// state.
  class PacketFifo {
   public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }
    void push_back(Queued q) {
      if (tail_ - head_ == buf_.size()) grow();
      buf_[tail_++ & (buf_.size() - 1)] = std::move(q);
    }
    Queued pop_front() {
      Queued q = std::move(buf_[head_++ & (buf_.size() - 1)]);
      if (head_ == tail_) head_ = tail_ = 0;
      return q;
    }

   private:
    void grow();
    std::vector<Queued> buf_;
    std::size_t head_ = 0;  ///< monotonic; masked into buf_
    std::size_t tail_ = 0;
  };

  Pacer(sim::EventLoop* loop, SendFn send) : Pacer(loop, std::move(send), Config()) {}
  Pacer(sim::EventLoop* loop, SendFn send, const Config& cfg);
  ~Pacer();
  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  /// Enqueues a packet; priority class is derived from the packet
  /// (audio / rtx / video).
  void enqueue(media::RtpPacketPtr pkt);

  /// Wires the pacer straight into the network: fire() stamps the
  /// packet's hop departure time and calls net->send(src, dst, ...)
  /// directly instead of going through the SendFn std::function — one
  /// predicted branch instead of a double-indirect call per packet.
  void set_wire(sim::Network* net, sim::NodeId src, sim::NodeId dst) {
    net_ = net;
    wire_src_ = src;
    wire_dst_ = dst;
  }

  /// Updates the pacing rate (called by the GCC sender on feedback).
  void set_rate_bps(double bps);
  double rate_bps() const { return cfg_.rate_bps; }

  /// Total bytes waiting across all priority queues.
  std::size_t queue_bytes() const { return queue_bytes_; }
  std::size_t queue_packets() const {
    return audio_q_.size() + rtx_q_.size() + video_q_.size() +
           parity_q_.size();
  }

  /// Time to drain the current queue at the current rate — the signal
  /// the consumer's frame dropper watches.
  Duration drain_time() const;

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t parity_enqueued() const { return parity_enqueued_; }
  std::uint64_t parity_dropped() const { return parity_dropped_; }

 private:
  void arm();
  void fire();
  Queued pop_next();

  sim::EventLoop* loop_;
  SendFn send_;
  sim::Network* net_ = nullptr;  ///< non-null: direct wire (set_wire)
  sim::NodeId wire_src_ = sim::kNoNode;
  sim::NodeId wire_dst_ = sim::kNoNode;
  Config cfg_;
  PacketFifo audio_q_;
  PacketFifo rtx_q_;
  PacketFifo video_q_;
  /// FEC parity rides below video: redundancy must never displace the
  /// media it protects. Parity is also rejected early (at 3/4 of the
  /// byte cap) so a congested link sheds redundancy first.
  PacketFifo parity_q_;
  std::size_t queue_bytes_ = 0;
  Time next_send_ok_ = 0;
  /// Last computed pacing interval and its inputs (see fire()).
  std::size_t memo_bytes_ = 0;
  double memo_gain_ = 0.0;
  double memo_rate_ = 0.0;
  Duration memo_interval_ = 0;
  sim::EventId timer_ = sim::kInvalidEvent;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t parity_enqueued_ = 0;
  std::uint64_t parity_dropped_ = 0;
};

}  // namespace livenet::transport
