#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "media/rtp.h"
#include "sim/event_loop.h"
#include "util/time.h"

// Slow-path RTP receive buffer with hole detection (paper §5.1): "each
// node examines holes in the sequence numbers of the received RTP
// packets every 50 ms and sends the sequence numbers of the lost
// packets to the upstream node in RTCP NACK messages."
//
// One ReceiveBuffer instance handles all streams arriving from one
// upstream neighbor. It delivers packets to the framing layer in seq
// order, emits NACK lists on a 50 ms scan, and gives up on holes older
// than a deadline (delivering a gap notification so framing can discard
// the damaged frame).
namespace livenet::transport {

class ReceiveBuffer {
 public:
  struct Config {
    Duration nack_interval = 50 * kMs;  ///< hole scan period
    Duration giveup_after = 500 * kMs;  ///< abandon recovery beyond this
    int max_nacks_per_seq = 8;          ///< retry bound per missing seq
    std::size_t max_buffered = 4096;    ///< out-of-order packets per stream
    /// Extra slack on top of the upstream RTT before a NACKed seq may be
    /// re-NACKed (see set_rtt_hint): covers pacer queueing on the
    /// retransmission path.
    Duration rtx_holdoff_margin = 10 * kMs;
    /// Record hole-fill recovery latencies into the metrics registry.
    bool telemetry = false;
  };

  /// Ordered delivery upcall (packet is the original or a recovered
  /// retransmission). Ordering is per flow: audio and video of a stream
  /// are independent RTP flows with their own sequence spaces.
  using DeliverFn = std::function<void(const media::RtpPacketPtr&)>;
  /// Unrecoverable hole: the (video or audio) flow skipped ahead.
  using GapFn = std::function<void(media::StreamId)>;
  /// NACK transmission upcall: send `missing` of the given flow
  /// (audio=true/false) to the upstream node.
  using NackFn = std::function<void(media::StreamId, bool,
                                    const std::vector<media::Seq>&)>;

  ReceiveBuffer(sim::EventLoop* loop, DeliverFn deliver, GapFn gap,
                NackFn nack)
      : ReceiveBuffer(loop, std::move(deliver), std::move(gap),
                      std::move(nack), Config()) {}
  ReceiveBuffer(sim::EventLoop* loop, DeliverFn deliver, GapFn gap,
                NackFn nack, const Config& cfg);
  ~ReceiveBuffer();
  ReceiveBuffer(const ReceiveBuffer&) = delete;
  ReceiveBuffer& operator=(const ReceiveBuffer&) = delete;

  void on_packet(const media::RtpPacketPtr& pkt);

  /// Upstream-link RTT hint. A NACKed seq is not re-NACKed until the
  /// requested retransmission had a full round trip (plus
  /// rtx_holdoff_margin) to arrive. Without this, any link whose RTT
  /// exceeds nack_interval re-requested every scan while the RTX was
  /// still in flight — duplicate retransmissions of the same seq.
  void set_rtt_hint(Duration rtt) { rtt_hint_ = rtt < 0 ? 0 : rtt; }

  /// Would this seq be new to the given flow (not already delivered or
  /// buffered)? Used to gate out-of-band recovery injections (FEC
  /// reconstruction) so they never regress to duplicates.
  bool would_accept(media::StreamId stream, bool audio, media::Seq seq) const;

  /// Supplier-vouched voids (a NackVoid answer): the listed seqs were
  /// layer-filtered upstream on purpose and will never be retransmitted.
  /// Converts tracked holes into voids and drains past them — the
  /// counterpart of the in-band prev_link_seq voucher for the case where
  /// the voucher itself was lost and the hole already triggered a NACK.
  void void_seqs(media::StreamId stream, bool audio,
                 const std::vector<media::Seq>& seqs);

  /// Was this seq ever recorded as a void on this flow (pending or
  /// already drained past)? Lets a relay answer a downstream NACK for a
  /// seq that was filtered before it ever reached this node.
  bool was_voided(media::StreamId stream, bool audio, media::Seq seq) const;

  /// The subset of `seqs` still tracked as missing on this flow —
  /// the staggered multi-supplier fallback re-checks before escalating
  /// a NACK to the next supplier.
  std::vector<media::Seq> missing_subset(
      media::StreamId stream, bool audio,
      const std::vector<media::Seq>& seqs) const;

  /// Drops all state for a stream.
  void forget_stream(media::StreamId stream);

  /// Packets buffered beyond the in-order head (both flows, seq order):
  /// content that has arrived but is blocked behind a recovery hole.
  /// Used to shrink the cache-burst seam when serving new subscribers.
  std::vector<media::RtpPacketPtr> buffered_packets(
      media::StreamId stream) const;

  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t gaps() const { return gaps_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }

  /// Loss fraction observed since the last call (holes first detected /
  /// packets expected); used for CC feedback.
  double take_loss_fraction();

 private:
  struct MissInfo {
    Time first_missed = 0;
    Time last_nack = kNever;
    int nacks = 0;
  };
  /// Packets that arrived but are not yet delivered, keyed by seq: a
  /// power-of-two ring indexed by `seq & mask` whose slots are tagged by
  /// their packet's own seq. A packet landing on an occupied slot
  /// doubles the ring, so nothing is overwritten; the ring grows to the
  /// span of buffered seqs, which stays near the reorder depth.
  class SeqRing {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    /// The buffered packet with this seq, or nullptr.
    const media::RtpPacketPtr* find(media::Seq seq) const;
    bool contains(media::Seq seq) const { return find(seq) != nullptr; }
    /// Precondition: !contains(pkt->seq).
    void insert(const media::RtpPacketPtr& pkt);
    void erase(media::Seq seq);
    /// Highest / lowest buffered seq; precondition: !empty().
    media::Seq last() const { return last_; }
    media::Seq first() const;
    /// Buffered packets in seq order.
    void append_in_order(std::vector<media::RtpPacketPtr>& out) const;

   private:
    std::vector<media::RtpPacketPtr> slots_;  ///< empty until first insert
    std::size_t count_ = 0;
    media::Seq last_ = 0;
  };
  struct StreamState {
    bool started = false;
    media::Seq next_expected = 0;
    SeqRing buffered;
    std::map<media::Seq, MissInfo> missing;
    /// Seqs the upstream declared intentionally absent on this link
    /// (layer-filtered; see RtpPacket::prev_link_seq). Never NACKed,
    /// never a gap: drain steps over them as if delivered.
    std::set<media::Seq> voids;
    /// Voids the drain already stepped over, kept (bounded) so a
    /// downstream NACK for a seq this node never had can still be
    /// answered as a void instead of left to time out.
    std::set<media::Seq> void_history;
  };

  void scan();
  void drain_in_order(StreamState& st);

  /// Flow key: stream id + media kind (audio/video are separate flows).
  static std::uint64_t flow_key(media::StreamId s, bool audio) {
    return s * 2 + (audio ? 1 : 0);
  }

  sim::EventLoop* loop_;
  DeliverFn deliver_;
  GapFn gap_;
  NackFn nack_;
  Config cfg_;
  Duration rtt_hint_ = 0;
  std::unordered_map<std::uint64_t, StreamState> streams_;
  sim::EventId scan_timer_ = sim::kInvalidEvent;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t gaps_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t holes_since_fb_ = 0;
  std::uint64_t received_since_fb_ = 0;
};

}  // namespace livenet::transport
