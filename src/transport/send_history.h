#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "media/rtp.h"
#include "util/time.h"

// Bounded history of recently sent packets, used by the slow path's
// loss-recovery module to answer NACKs from the downstream node
// (paper §5.1: "The lost packets will then be retransmitted by the loss
// recovery module in the upstream node").
//
// Each flow (stream + audio/video) keeps a power-of-two ring indexed by
// `seq & mask`; a slot is tagged with its seq, so record and lookup are
// one slot access. An entry is live while it is younger than `max_age`
// and among the last `max_packets` records of the whole history. A
// record that lands on a different seq's live entry doubles the ring
// instead of overwriting it, so sparse (layer-filtered) and
// out-of-order seqs lose nothing; only a flow whose live seqs span more
// than max(max_packets, 65536) overwrites. A per-ring cursor walks up
// from the lowest seq on every record and clears dead entries, and a
// sweep every `max_age` drops the rings of flows that stopped
// recording, so memory stays at about `max_age` worth of packets.
namespace livenet::transport {

class SendHistory {
 public:
  struct Config {
    Duration max_age = 2 * kSec;        ///< drop entries older than this
    /// Only the latest this-many records (all flows) are live.
    std::size_t max_packets = 100000;
  };

  SendHistory() : SendHistory(Config()) {}
  explicit SendHistory(const Config& cfg);
  // cached_ points into this object's own flows_.
  SendHistory(const SendHistory&) = delete;
  SendHistory& operator=(const SendHistory&) = delete;

  /// Records a sent packet (keyed by stream + flow kind + seq).
  void record(const media::RtpPacketPtr& pkt, Time now);

  /// Looks up a packet for retransmission; nullptr if expired/unknown.
  media::RtpPacketPtr lookup(media::StreamId stream, bool audio,
                             media::Seq seq, Time now);

  /// Drops all state for a stream (unsubscribe / stream end).
  void forget_stream(media::StreamId stream);

  /// Entries held, including dead ones the expiry walk has not reached
  /// yet (an upper bound on what lookup can return).
  std::size_t size() const;

 private:
  struct Slot {
    media::Seq seq = 0;
    Time sent = 0;
    std::uint64_t index = 0;  ///< position in the record sequence
    media::RtpPacketPtr pkt;  ///< null: empty slot
  };
  struct Ring {
    std::vector<Slot> slots;  ///< empty until the flow's first record
    media::Seq lo = 0;        ///< no held entry has a lower seq
    media::Seq hi = 0;        ///< one past the highest seq held
    std::size_t held = 0;
  };
  using FlowRings = std::array<Ring, 2>;  ///< [video, audio]

  Time cutoff(Time now) const {
    // now < max_age: no record can be stale yet.
    return now >= cfg_.max_age ? now - cfg_.max_age : 0;
  }
  bool live(const Slot& s, Time cutoff) const {
    return s.pkt && s.sent >= cutoff &&
           s.index + cfg_.max_packets >= records_;
  }
  FlowRings* find(media::StreamId stream);
  void expire(Ring& r, Time cutoff);
  void rescan(Ring& r, Time cutoff);
  void grow(Ring& r, Time cutoff);
  void sweep(Time cutoff);

  Config cfg_;
  std::size_t max_slots_;
  std::uint64_t records_ = 0;
  Time next_sweep_ = 0;
  std::unordered_map<media::StreamId, FlowRings> flows_;
  media::StreamId cached_stream_ = 0;
  FlowRings* cached_ = nullptr;  ///< flows_ entry of cached_stream_
};

}  // namespace livenet::transport
