#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "media/rtp.h"

// Packet-granularity GoP cache. It holds the actual RTP packets (in
// seq order, as delivered by the slow path) so that a node can
// burst everything from the latest I-frame boundary to a new subscriber
// — the fast-startup mechanism of §5.1 and the cache-hit response
// during path establishment in §4.4.
namespace livenet::overlay {

class PacketGopCache {
 public:
  /// Keeps packets covering at most `max_gops` GoP boundaries, and never
  /// more than `max_packets` per stream (the hard cap protects against
  /// mid-GoP joins where no keyframe boundary has been cached yet, which
  /// would otherwise grow without bound).
  explicit PacketGopCache(std::size_t max_gops = 2,
                          std::size_t max_packets = 4096)
      : max_gops_(max_gops), max_packets_(max_packets) {}

  /// Adds a packet. Delivery is normally in seq order (slow path), but
  /// reordered arrivals are inserted at their sorted position and exact
  /// duplicates dropped, preserving the invariant find_packet's binary
  /// search depends on.
  void add(const media::RtpPacketPtr& pkt);

  /// True once at least one keyframe boundary is cached for the stream.
  bool has_content(media::StreamId stream) const;

  /// Packets from the newest I-frame start through the newest packet.
  std::vector<media::RtpPacketPtr> startup_packets(
      media::StreamId stream) const;

  /// Looks up a cached packet by sequence number (binary search over
  /// the seq-ordered cache). Serves NACK-recovery fallbacks.
  media::RtpPacketPtr find_packet(media::StreamId stream,
                                  media::Seq seq) const;

  void forget_stream(media::StreamId stream) { streams_.erase(stream); }

  std::size_t cached_packets(media::StreamId stream) const;

 private:
  struct StreamCache {
    std::deque<media::RtpPacketPtr> packets;  // seq order
    std::deque<std::size_t> keyframe_starts;  // indices into packets
  };

  void prune(StreamCache& sc);
  static void drop_front(StreamCache& sc, std::size_t n);

  std::size_t max_gops_;
  std::size_t max_packets_;
  std::unordered_map<media::StreamId, StreamCache> streams_;
};

}  // namespace livenet::overlay
