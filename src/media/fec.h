#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "media/rtp.h"

// Link-local XOR/parity FEC (paper §5.2 loss-recovery tier; medooze-style
// one-dimensional parity groups).
//
// The sender side of an overlay link groups K consecutive media packets
// of a stream and emits one parity packet per group; the receiver can
// reconstruct any SINGLE missing packet of a group from the parity plus
// the K-1 packets it did receive — no upstream signaling, no RTT. Two or
// more losses in one group exceed the code's correction power: the group
// is held briefly (an RTX may refill one hole and re-arm it) and
// otherwise abandoned to the NACK tier.
//
// The simulator models packets as metadata, so "XOR of payloads" becomes
// a field-wise XOR of the body metadata (FecXor in rtp.h). Group
// geometry is carried in-band: fec_base_seq + fec_group_count on the
// parity body; the missing packet's seq is derived from the hole
// position, so it is never part of the aggregate.
namespace livenet::media {

/// Sender side: accumulates one parity group for one (stream, link).
/// Feed every media packet forwarded on the link in order; add()
/// returns a complete parity body every K packets. Non-contiguous input
/// (a hole in what we forwarded, e.g. after upstream loss) restarts the
/// group — parity over a broken range would mis-describe its coverage.
class FecGroupEncoder {
 public:
  explicit FecGroupEncoder(std::uint32_t k = 10) : k_(k < 2 ? 2 : k) {}

  /// New K takes effect when the next group starts.
  void set_k(std::uint32_t k) { k_ = k < 2 ? 2 : k; }
  std::uint32_t k() const { return k_; }

  /// Abandon the in-flight group (stream teardown / path switch).
  void reset() { count_ = 0; }

  /// Accumulate one forwarded media packet (caller skips audio + RTX).
  /// Returns the parity body when this packet completes a group.
  std::optional<RtpBody> add(const RtpBody& b);

  /// Declare `seq` intentionally absent on this link (a layer the
  /// subscriber filtered out). The group stays open and spends no
  /// parity on the skipped seq; its membership travels in the parity's
  /// fec_seq_bitmap so the decoder knows the gap is not a loss. A
  /// group whose seq span outgrows the 64-bit bitmap restarts.
  void skip(Seq seq);

 private:
  std::uint32_t k_;
  std::uint32_t count_ = 0;   ///< packets in the open group
  std::uint32_t open_k_ = 0;  ///< K latched at group start
  Seq base_seq_ = 0;
  Seq next_seq_ = 0;          ///< contiguity check
  std::uint64_t bitmap_ = 0;  ///< members relative to base_seq_
  FecXor acc_;
  std::uint64_t max_payload_ = 0;
  std::uint64_t last_frame_id_ = 0;
  std::uint64_t last_gop_id_ = 0;
  Time last_capture_ = 0;
};

/// Receiver side: one per upstream link. Tracks recent media arrivals
/// per stream and held parity groups; reconstructs the missing body
/// when a group has exactly one hole. Self-activates on the first
/// parity packet seen, so a FEC-off world pays nothing here beyond one
/// branch per packet.
class FecDecoder {
 public:
  bool active() const { return active_; }

  /// Record a received media packet (original, RTX, or a NACK-fallback
  /// serve — anything that fills the seq). If the arrival re-arms a held
  /// parity group down to one hole, returns the reconstructed packet.
  RtpPacketMut on_media(const RtpPacket& pkt);

  /// Handle a parity packet. Returns the reconstructed packet when the
  /// group has exactly one hole; holds the group when it has two or
  /// more (a later RTX may re-arm it via on_media).
  RtpPacketMut on_parity(const RtpPacket& pkt);

  std::uint64_t reconstructed() const { return reconstructed_; }
  std::uint64_t groups_abandoned() const { return groups_abandoned_; }

 private:
  struct Group {
    std::uint32_t k = 0;
    std::uint64_t bitmap = 0;  ///< sparse membership; 0 = dense legacy
    FecXor parity;
    std::size_t parity_payload = 0;
    // Trailer context copied from the parity packet so the
    // reconstruction carries plausible per-hop measurement fields.
    Duration delay_ext_us = 0;
    Time cdn_ingress_time = kNever;
    std::uint8_t cdn_hops = 0;
  };
  struct StreamFec {
    std::map<Seq, FecXor> window;  ///< seq -> that body's own contribution
    std::map<Seq, Group> pending;  ///< base_seq -> held parity
  };

  static constexpr std::size_t kMaxWindow = 512;  ///< recent media per stream
  static constexpr std::size_t kMaxGroups = 64;  ///< held (>=2-loss) groups

  RtpPacketMut try_resolve(StreamId stream, Seq base, const Group& g);
  void prune(StreamFec& sf);

  bool active_ = false;
  std::uint64_t reconstructed_ = 0;
  std::uint64_t groups_abandoned_ = 0;
  std::map<StreamId, StreamFec> streams_;
};

}  // namespace livenet::media
