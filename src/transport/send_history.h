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
// one slot access. A slot holds what a retransmission needs, not the
// hop's packet: the send time, a reference to the shared body and the
// hop's trailer by value (64 B). The sent packet itself is freed as
// soon as the wire is done with it, and lookup() rebuilds a packet equal
// to the one recorded (same body, same trailer fields). An entry is live while it is younger than kMaxAge.
// A record that lands on a different seq's live entry doubles the ring
// instead of overwriting it, so sparse (layer-filtered) and
// out-of-order seqs lose nothing; only a flow whose live seqs span more
// than kMaxSlots overwrites. A per-ring cursor walks up from the lowest
// seq on every record and clears dead entries, and a sweep every
// kMaxAge drops the rings of flows that stopped recording, so memory
// stays at about kMaxAge worth of packets.
namespace livenet::transport {

class SendHistory {
 public:
  /// Entries older than this are dead.
  static constexpr Duration kMaxAge = 2 * kSec;
  /// Ring size cap per flow: far beyond kMaxAge of the fastest flow, so
  /// only a seq jump this large makes a record overwrite a live entry.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 16;

  SendHistory() = default;
  // cached_ points into this object's own flows_.
  SendHistory(const SendHistory&) = delete;
  SendHistory& operator=(const SendHistory&) = delete;

  /// Records a sent packet (keyed by stream + flow kind + seq).
  void record(const media::RtpPacketPtr& pkt, Time now);

  /// Looks up a packet for retransmission; nullptr if expired/unknown.
  /// The result is a new packet sharing the recorded packet's body, with
  /// the trailer fields it had when recorded.
  media::RtpPacketPtr lookup(media::StreamId stream, bool audio,
                             media::Seq seq, Time now);

  /// Drops all state for a stream (unsubscribe / stream end).
  void forget_stream(media::StreamId stream);

  /// Entries held, including dead ones the expiry walk has not reached
  /// yet (an upper bound on what lookup can return).
  std::size_t size() const;

 private:
  struct Slot {
    Time sent = 0;
    media::BodyRef body;    ///< null: empty slot
    media::HopTrailer hop;  ///< hop.seq tags the slot
  };
  struct Ring {
    std::vector<Slot> slots;  ///< empty until the flow's first record
    media::Seq lo = 0;        ///< no held entry has a lower seq
    media::Seq hi = 0;        ///< one past the highest seq held
    std::size_t held = 0;
  };
  using FlowRings = std::array<Ring, 2>;  ///< [video, audio]

  static Time cutoff(Time now) {
    // now < kMaxAge: no record can be stale yet.
    return now >= kMaxAge ? now - kMaxAge : 0;
  }
  static bool live(const Slot& s, Time cutoff) {
    return s.body && s.sent >= cutoff;
  }
  FlowRings* find(media::StreamId stream);
  void expire(Ring& r, Time cutoff);
  void rescan(Ring& r, Time cutoff);
  void grow(Ring& r, Time cutoff);
  void sweep(Time cutoff);

  Time next_sweep_ = 0;
  std::unordered_map<media::StreamId, FlowRings> flows_;
  media::StreamId cached_stream_ = 0;
  FlowRings* cached_ = nullptr;  ///< flows_ entry of cached_stream_
};

}  // namespace livenet::transport
