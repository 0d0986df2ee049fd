#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "media/frame.h"
#include "sim/message.h"
#include "util/pool.h"
#include "util/time.h"

// RTP/RTCP packet model.
//
// RtpPacket mirrors the on-wire unit the paper's overlay forwards: an
// RTP packet carrying one fragment of a frame, extended with the delay
// header extension the paper uses to measure streaming delay (§6.1: the
// broadcaster seeds the field; every hop adds its processing time plus
// half the next hop's RTT; the client adds buffering and decode time).
//
// Zero-copy layout (paper §5: nodes forward the *same* packet to many
// subscribers): the packet is split into
//   - RtpBody: everything the producer wrote — stream/frame identity,
//     fragment geometry, payload size, capture timestamp. Immutable
//     after packetization and shared across every hop and subscriber
//     via a non-atomic intrusive refcount.
//   - HopTrailer, the RtpPacket's plain-data base: the fields a
//     forwarding hop rewrites — delay extension, hop count, RTX flag,
//     client-facing sequence number, pacer send timestamp. 48 B,
//     pool-allocated with the packet, copied per subscriber in lieu of
//     a header rewrite on a real wire packet.
// fork() is the fan-out primitive: a new trailer sharing the same
// body. Copying an RtpPacket never copies its body; RtpBody's copy
// constructor counts invocations so tests can assert the fast path
// performs zero deep copies.
namespace livenet::media {

inline constexpr std::size_t kRtpHeaderBytes = 12 + 8;  // header + delay ext
inline constexpr std::size_t kMtuPayloadBytes = 1200;

using Seq = std::uint64_t;  ///< per-stream RTP sequence number

/// XOR aggregate of the covered bodies' fields, carried by a parity
/// packet. The simulator models packets as metadata, so "payload XOR"
/// becomes a field-wise XOR of the metadata a receiver must be able to
/// reconstruct. The missing packet's seq is NOT part of the aggregate:
/// the decoder derives it from group geometry (base_seq + hole index).
struct FecXor {
  std::uint64_t frame_id = 0;
  std::uint64_t gop_id = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t capture_time = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 0;
  std::uint8_t frame_type = 0;
  std::uint8_t referenced = 0;
  // SVC lattice coordinates, XOR-carried like every other body field so
  // a reconstructed enhancement packet still filters correctly.
  std::uint8_t layer_spatial = 0;
  std::uint8_t layer_temporal = 0;
  std::uint8_t spatial_layers = 0;
  std::uint8_t temporal_layers = 0;
  std::uint8_t discardable = 0;

  void accumulate(const struct RtpBody& b);
  /// XOR-merge another aggregate (peeling received packets off a
  /// parity: parity ^ received... leaves the missing packet).
  void merge(const FecXor& o) {
    frame_id ^= o.frame_id;
    gop_id ^= o.gop_id;
    payload_bytes ^= o.payload_bytes;
    capture_time ^= o.capture_time;
    trace_id ^= o.trace_id;
    frag_index ^= o.frag_index;
    frag_count ^= o.frag_count;
    frame_type ^= o.frame_type;
    referenced ^= o.referenced;
    layer_spatial ^= o.layer_spatial;
    layer_temporal ^= o.layer_temporal;
    spatial_layers ^= o.spatial_layers;
    temporal_layers ^= o.temporal_layers;
    discardable ^= o.discardable;
  }
  bool operator==(const FecXor&) const = default;
};

/// Immutable, refcount-shared packet body (identity + payload).
struct RtpBody {
  StreamId stream_id = kNoStream;
  Seq seq = 0;             ///< per-stream, assigned by the producer
  std::uint64_t frame_id = 0;
  std::uint64_t gop_id = 0;
  FrameType frame_type = FrameType::kP;
  bool referenced = true;  ///< from the carried frame
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 1;
  std::size_t payload_bytes = 0;
  Time capture_time = 0;   ///< broadcaster capture timestamp
  /// Telemetry trace id stamped at packetization on a sampled fraction
  /// of packets; 0 = untraced. Shared by every fork of this body, so
  /// one stamp follows the packet across all hops. Observation-only:
  /// no forwarding decision reads it.
  std::uint64_t trace_id = 0;
  /// FEC parity marker: > 0 on link-local parity packets, covering
  /// fec_group_count media packets starting at fec_base_seq on the link
  /// that generated it. Media packets always carry 0. A parity body's
  /// own payload_bytes models its wire size (max payload in the group);
  /// the XOR aggregate of the covered bodies travels in fec.
  std::uint32_t fec_group_count = 0;
  Seq fec_base_seq = 0;
  FecXor fec;
  /// Group membership bitmap for parity over a layer-filtered link: bit
  /// i set = fec_base_seq + i belongs to the group. 0 = the legacy
  /// dense group [fec_base_seq, fec_base_seq + fec_group_count).
  std::uint64_t fec_seq_bitmap = 0;

  // SVC lattice coordinates of the carried frame (see media::Frame).
  LayerId layer;
  std::uint8_t spatial_layers = 1;
  std::uint8_t temporal_layers = 1;
  bool discardable = false;

  RtpBody() = default;
  /// Deep copy. Never taken on the forwarding fast path — counted so
  /// tests can assert exactly that.
  RtpBody(const RtpBody& o)
      : stream_id(o.stream_id), seq(o.seq), frame_id(o.frame_id),
        gop_id(o.gop_id), frame_type(o.frame_type), referenced(o.referenced),
        frag_index(o.frag_index), frag_count(o.frag_count),
        payload_bytes(o.payload_bytes), capture_time(o.capture_time),
        trace_id(o.trace_id), fec_group_count(o.fec_group_count),
        fec_base_seq(o.fec_base_seq), fec(o.fec),
        fec_seq_bitmap(o.fec_seq_bitmap), layer(o.layer),
        spatial_layers(o.spatial_layers), temporal_layers(o.temporal_layers),
        discardable(o.discardable) {
    ++deep_copies_;
  }
  /// Moves don't count: make() moves the caller's staging body into
  /// the pool exactly once per produced packet.
  RtpBody(RtpBody&& o) noexcept
      : stream_id(o.stream_id), seq(o.seq), frame_id(o.frame_id),
        gop_id(o.gop_id), frame_type(o.frame_type), referenced(o.referenced),
        frag_index(o.frag_index), frag_count(o.frag_count),
        payload_bytes(o.payload_bytes), capture_time(o.capture_time),
        trace_id(o.trace_id), fec_group_count(o.fec_group_count),
        fec_base_seq(o.fec_base_seq), fec(o.fec),
        fec_seq_bitmap(o.fec_seq_bitmap), layer(o.layer),
        spatial_layers(o.spatial_layers), temporal_layers(o.temporal_layers),
        discardable(o.discardable) {}
  RtpBody& operator=(const RtpBody&) = delete;

  /// Total body deep copies since process start (forward-path copies
  /// would show up here; the zero-copy invariant keeps this flat).
  /// Summed across all shard threads: the counter is atomic because
  /// shard-boundary clones run concurrently — never on the fast path,
  /// which shares bodies and thus never touches it.
  static std::uint64_t deep_copy_count() {
    return deep_copies_.load(std::memory_order_relaxed);
  }

  // Intrusive refcount (single-threaded, like sim::Message's).
  void body_add_ref() const noexcept { ++refs_; }
  void body_release() const noexcept {
    if (--refs_ == 0) util::pool_delete(const_cast<RtpBody*>(this));
  }

 private:
  mutable std::uint32_t refs_ = 0;
  static std::atomic<std::uint64_t> deep_copies_;
};

inline void FecXor::accumulate(const RtpBody& b) {
  frame_id ^= b.frame_id;
  gop_id ^= b.gop_id;
  payload_bytes ^= static_cast<std::uint64_t>(b.payload_bytes);
  capture_time ^= static_cast<std::uint64_t>(b.capture_time);
  trace_id ^= b.trace_id;
  frag_index ^= b.frag_index;
  frag_count ^= b.frag_count;
  frame_type ^= static_cast<std::uint8_t>(b.frame_type);
  referenced ^= static_cast<std::uint8_t>(b.referenced);
  layer_spatial ^= b.layer.spatial;
  layer_temporal ^= b.layer.temporal;
  spatial_layers ^= b.spatial_layers;
  temporal_layers ^= b.temporal_layers;
  discardable ^= static_cast<std::uint8_t>(b.discardable);
}

/// Refcounted handle to a shared immutable body.
class BodyRef {
 public:
  BodyRef() = default;
  /// Adopts a pool-allocated body (takes one reference).
  explicit BodyRef(const RtpBody* b) : p_(b) {
    if (p_ != nullptr) p_->body_add_ref();
  }
  BodyRef(const BodyRef& o) : p_(o.p_) {
    if (p_ != nullptr) p_->body_add_ref();
  }
  BodyRef(BodyRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  BodyRef& operator=(BodyRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~BodyRef() {
    if (p_ != nullptr) p_->body_release();
  }
  const RtpBody* operator->() const { return p_; }
  const RtpBody& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  const RtpBody* p_ = nullptr;
};

class RtpPacket;
using RtpPacketMut = sim::IntrusivePtr<RtpPacket>;
using RtpPacketPtr = sim::IntrusivePtr<const RtpPacket>;

/// Per-hop trailer: the fields a forwarding hop owns and rewrites.
/// Plain data, so SendHistory keeps it by value next to the shared
/// body and rebuilds an equal packet when a NACK asks for one.
struct HopTrailer {
  Seq seq = 0;                ///< as sent on this hop (client-facing seq
                              ///< rewrite happens at the edge)
  Duration delay_ext_us = 0;  ///< accumulated delay header extension
  /// Layer-filtered links are sparse in producer-seq space: the sender
  /// stamps the previous producer seq it forwarded on this hop, so the
  /// receive buffer treats the gap (prev_link_seq, producer_seq) as
  /// intentionally absent (no NACKs for filtered layers). 0 = dense
  /// hop or unknown (RTX, parity, legacy sender) — plain hole logic.
  Seq prev_link_seq = 0;

  // Measurement fields (stand-ins for per-hop log correlation in the
  // production system; they do not influence forwarding decisions).
  Time cdn_ingress_time = kNever;  ///< producer stamped CDN entry time

  /// Per-hop departure timestamp used by the receiver-side GCC delay
  /// estimator (the abs-send-time RTP extension in WebRTC). Mutable
  /// because the sending pacer stamps it at the instant of transmission;
  /// by then each hop's trailer is owned by exactly one sender pipeline.
  mutable Time hop_send_time = kNever;

  bool is_rtx = false;         ///< retransmission of an earlier packet
  bool fec_recovered = false;  ///< reconstructed from a parity group at
                               ///< this hop (never crossed the wire)
  std::uint8_t cdn_hops = 0;   ///< overlay hops traversed so far

  bool operator==(const HopTrailer&) const = default;
};

class RtpPacket final : public sim::Message, public HopTrailer {
 public:
  /// Builds a fresh producer packet: pools the body, seeds the trailer
  /// seq from the body seq.
  static RtpPacketMut make(RtpBody body) {
    BodyRef ref(util::pool_new<RtpBody>(std::move(body)));
    return sim::make_message<RtpPacket>(std::move(ref));
  }

  /// Fan-out primitive: new pool-allocated trailer sharing this body.
  /// prev_link_seq is a link-local annotation of the hop that stamped
  /// it — a fork is the start of a new hop, so it resets to dense (a
  /// stale value would make the next receiver void genuine losses).
  RtpPacketMut fork() const {
    RtpPacketMut copy = sim::make_message<RtpPacket>(*this);
    copy->prev_link_seq = 0;
    return copy;
  }

  /// Copies this packet adjusting the delay extension; used by
  /// forwarding hops (the body is shared — the trailer copy stands in
  /// for the header rewrite a real node performs).
  RtpPacketMut clone_with_delay(Duration added_delay) const {
    RtpPacketMut copy = fork();
    copy->delay_ext_us += added_delay;
    return copy;
  }

  /// This hop's trailer fields.
  const HopTrailer& trailer() const { return *this; }
  /// A counted reference to the body, for stores that outlive the
  /// packet (SendHistory).
  const BodyRef& body_ref() const { return body_; }

  // ---- Shared-body accessors. ----
  /// The shared immutable body (FEC encoders aggregate its fields).
  const RtpBody& body() const { return *body_; }
  StreamId stream_id() const { return body_->stream_id; }
  /// The producer-assigned sequence number (survives edge seq rewrite).
  Seq producer_seq() const { return body_->seq; }
  std::uint64_t frame_id() const { return body_->frame_id; }
  std::uint64_t gop_id() const { return body_->gop_id; }
  FrameType frame_type() const { return body_->frame_type; }
  bool referenced() const { return body_->referenced; }
  std::uint32_t frag_index() const { return body_->frag_index; }
  std::uint32_t frag_count() const { return body_->frag_count; }
  std::size_t payload_bytes() const { return body_->payload_bytes; }
  Time capture_time() const { return body_->capture_time; }
  std::uint64_t trace_id() const { return body_->trace_id; }
  LayerId layer() const { return body_->layer; }
  std::uint8_t spatial_layers() const { return body_->spatial_layers; }
  std::uint8_t temporal_layers() const { return body_->temporal_layers; }
  bool discardable() const { return body_->discardable; }
  bool is_svc() const {
    return body_->spatial_layers > 1 || body_->temporal_layers > 1;
  }
  /// The mask bit this packet needs to pass a subscriber's layer
  /// filter. Audio and parity ride every mask (parity coverage is
  /// decided at the encoder, not per packet).
  LayerMask layer_mask_bit() const {
    return is_audio() || is_fec_parity() ? kAllLayers
                                         : layer_bit(body_->layer);
  }

  bool marker() const { return frag_index() + 1 == frag_count(); }
  bool is_audio() const { return frame_type() == FrameType::kAudio; }
  bool is_keyframe_packet() const { return frame_type() == FrameType::kI; }

  // ---- FEC parity accessors (see RtpBody::fec_group_count). ----
  bool is_fec_parity() const { return body_->fec_group_count > 0; }
  std::uint32_t fec_group_count() const { return body_->fec_group_count; }
  Seq fec_base_seq() const { return body_->fec_base_seq; }
  const FecXor& fec_xor() const { return body_->fec; }
  std::uint64_t fec_seq_bitmap() const { return body_->fec_seq_bitmap; }

  std::size_t wire_size() const override {
    return kRtpHeaderBytes + payload_bytes();
  }
  std::string describe() const override;
  TraceTag trace_tag() const override {
    return TraceTag{body_->trace_id, body_->stream_id, body_->seq};
  }

  /// Shard-boundary clone: the shared body makes the trailer-only copy
  /// of fork() unsafe across threads (the body refcount is non-atomic),
  /// so crossing a shard deep-copies the body — the counted copy, so
  /// tests can assert how many packets paid it — and replicates the
  /// trailer. transfer_safe() stays false for the same reason: even a
  /// sole-reference trailer may share its body with the sending shard.
  sim::IntrusivePtr<const sim::Message> clone_message() const override {
    return sim::make_message<RtpPacket>(
        BodyRef(util::pool_new<RtpBody>(*body_)), trailer());
  }

  /// Trailer copy sharing the body (make_message / fork use this; a
  /// direct copy never duplicates the body).
  RtpPacket(const RtpPacket&) = default;

  explicit RtpPacket(BodyRef body) : body_(std::move(body)) {
    seq = body_->seq;
  }

  /// A packet with the given body and trailer: the shard-boundary clone
  /// and SendHistory's rebuilt retransmission source.
  RtpPacket(BodyRef body, const HopTrailer& trailer)
      : HopTrailer(trailer), body_(std::move(body)) {}

 private:
  BodyRef body_;
};

/// RTCP NACK: sequence numbers of detected holes, sent to the upstream
/// node which retransmits from its send history (§5.1, 50 ms scan).
/// Audio and video are separate RTP flows with independent sequence
/// spaces (as in WebRTC), so the NACK names the flow kind.
class NackMessage final : public sim::CloneableMessage<NackMessage> {
 public:
  StreamId stream_id = kNoStream;
  bool audio = false;
  std::vector<Seq> missing;

  std::size_t wire_size() const override { return 16 + 4 * missing.size(); }
  std::string describe() const override;
};

/// NACK answer for holes that are voids, not losses: the supplier
/// vouches that these seqs were excluded by the requester's SVC layer
/// mask and will never be retransmitted. The receiver folds them into
/// its void set, unblocking the in-order drain immediately instead of
/// burning the NACK retry budget on an unfillable hole (which starves
/// every downstream viewer of the stream until the give-up timeout).
class NackVoidMessage final : public sim::CloneableMessage<NackVoidMessage> {
 public:
  StreamId stream_id = kNoStream;
  bool audio = false;
  std::vector<Seq> voided;

  std::size_t wire_size() const override { return 16 + 4 * voided.size(); }
  std::string describe() const override;
};

/// RTCP receiver feedback for congestion control, one per upstream
/// neighbor (not per stream): carries the delay-based rate estimate
/// computed on the receiver side of GCC (REMB-style) and the measured
/// loss fraction for the sender-side loss-based controller.
class CcFeedbackMessage final : public sim::CloneableMessage<CcFeedbackMessage> {
 public:
  double remb_bps = 0.0;       ///< receiver-estimated max bitrate
  double loss_fraction = 0.0;  ///< loss observed since last feedback
  std::uint64_t packets_observed = 0;

  std::size_t wire_size() const override { return 24; }
  std::string describe() const override;
};

}  // namespace livenet::media
