#include "media/fec.h"

#include <algorithm>

namespace livenet::media {

namespace {

/// Visit each member seq of a parity group. A zero bitmap is the legacy
/// dense encoding (base..base+k-1); otherwise bit i marks base+i.
template <typename Fn>
void for_each_member(Seq base, std::uint32_t k, std::uint64_t bitmap,
                     Fn&& fn) {
  if (bitmap == 0) {
    for (Seq s = base; s < base + k; ++s) fn(s);
    return;
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    if (bitmap & (std::uint64_t{1} << i)) fn(base + i);
  }
}

bool is_member(Seq base, std::uint32_t k, std::uint64_t bitmap, Seq seq) {
  if (seq < base) return false;
  if (bitmap == 0) return seq < base + k;
  const Seq off = seq - base;
  return off < 64 && (bitmap & (std::uint64_t{1} << off)) != 0;
}

}  // namespace

std::optional<RtpBody> FecGroupEncoder::add(const RtpBody& b) {
  if (count_ > 0 && b.seq != next_seq_) count_ = 0;  // hole: restart group
  // Skipped-layer gaps stretch the group's seq span; past the bitmap's
  // reach the membership can no longer be described, so start over.
  if (count_ > 0 && b.seq - base_seq_ > 63) count_ = 0;
  if (count_ == 0) {
    base_seq_ = b.seq;
    open_k_ = k_;
    acc_ = FecXor{};
    bitmap_ = 0;
    max_payload_ = 0;
  }
  acc_.accumulate(b);
  bitmap_ |= std::uint64_t{1} << (b.seq - base_seq_);
  max_payload_ = std::max<std::uint64_t>(max_payload_, b.payload_bytes);
  last_frame_id_ = b.frame_id;
  last_gop_id_ = b.gop_id;
  last_capture_ = b.capture_time;
  ++count_;
  next_seq_ = b.seq + 1;
  if (count_ < open_k_) return std::nullopt;

  RtpBody parity;
  parity.stream_id = b.stream_id;
  // Parity never enters the media seq space (it is gated out of the
  // receive buffer before loss accounting); base_seq doubles as its seq
  // so describe()/traces stay legible.
  parity.seq = base_seq_;
  parity.frame_id = last_frame_id_;
  parity.gop_id = last_gop_id_;
  parity.frame_type = FrameType::kP;
  parity.referenced = false;
  parity.frag_index = 0;
  parity.frag_count = 1;
  parity.payload_bytes = static_cast<std::size_t>(max_payload_);
  parity.capture_time = last_capture_;
  parity.fec_group_count = open_k_;
  parity.fec_base_seq = base_seq_;
  // Dense groups keep the legacy zero encoding, so a run with no layer
  // filtering emits byte-identical parity.
  const std::uint64_t dense =
      open_k_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << open_k_) - 1;
  parity.fec_seq_bitmap = bitmap_ == dense ? 0 : bitmap_;
  parity.fec = acc_;
  count_ = 0;
  return parity;
}

void FecGroupEncoder::skip(Seq seq) {
  if (count_ == 0) return;  // no open group: nothing to describe
  if (seq != next_seq_) {   // unexpected reordering: play safe, restart
    count_ = 0;
    return;
  }
  next_seq_ = seq + 1;
  // The next member would land past the bitmap's reach: give up early
  // rather than accumulating packets add() must discard anyway.
  if (next_seq_ - base_seq_ > 63) count_ = 0;
}

RtpPacketMut FecDecoder::on_media(const RtpPacket& pkt) {
  if (!active_ || pkt.is_audio() || pkt.is_fec_parity()) return nullptr;
  auto& sf = streams_[pkt.stream_id()];
  const Seq seq = pkt.producer_seq();
  FecXor contrib;
  // Reconstructed packets re-enter here via the delivery path; their
  // contribution is identical to the original's, so the map dedup below
  // keeps everything consistent either way.
  RtpBody shadow;
  shadow.frame_id = pkt.frame_id();
  shadow.gop_id = pkt.gop_id();
  shadow.payload_bytes = pkt.payload_bytes();
  shadow.capture_time = pkt.capture_time();
  shadow.trace_id = pkt.trace_id();
  shadow.frag_index = pkt.frag_index();
  shadow.frag_count = pkt.frag_count();
  shadow.frame_type = pkt.frame_type();
  shadow.referenced = pkt.referenced();
  shadow.layer = pkt.layer();
  shadow.spatial_layers = pkt.spatial_layers();
  shadow.temporal_layers = pkt.temporal_layers();
  shadow.discardable = pkt.discardable();
  contrib.accumulate(shadow);
  if (!sf.window.emplace(seq, contrib).second) return nullptr;  // duplicate
  prune(sf);

  // Did this arrival re-arm a held group down to one hole?
  for (auto it = sf.pending.begin(); it != sf.pending.end(); ++it) {
    const Seq base = it->first;
    const Group& g = it->second;
    if (!is_member(base, g.k, g.bitmap, seq)) continue;
    RtpPacketMut rec = try_resolve(pkt.stream_id(), base, g);
    if (rec != nullptr) {
      sf.pending.erase(it);
      return rec;
    }
    // Fully received now? Drop the held parity.
    std::size_t have = 0;
    for_each_member(base, g.k, g.bitmap,
                    [&](Seq s) { have += sf.window.count(s); });
    if (have == g.k) sf.pending.erase(it);
    return nullptr;
  }
  return nullptr;
}

RtpPacketMut FecDecoder::on_parity(const RtpPacket& pkt) {
  active_ = true;
  auto& sf = streams_[pkt.stream_id()];
  Group g;
  g.k = pkt.fec_group_count();
  g.bitmap = pkt.fec_seq_bitmap();
  g.parity = pkt.fec_xor();
  g.parity_payload = pkt.payload_bytes();
  g.delay_ext_us = pkt.delay_ext_us;
  g.cdn_ingress_time = pkt.cdn_ingress_time;
  g.cdn_hops = pkt.cdn_hops;
  const Seq base = pkt.fec_base_seq();
  if (g.k == 0) return nullptr;

  RtpPacketMut rec = try_resolve(pkt.stream_id(), base, g);
  if (rec != nullptr) return rec;

  // Zero holes (nothing to do) or >=2 holes (beyond correction power):
  // hold the group — an RTX may refill one hole and re-arm it — unless
  // it is already fully received.
  std::size_t have = 0;
  for_each_member(base, g.k, g.bitmap,
                  [&](Seq s) { have += sf.window.count(s); });
  if (have >= g.k) return nullptr;
  sf.pending.emplace(base, g);
  while (sf.pending.size() > kMaxGroups) {
    sf.pending.erase(sf.pending.begin());
    ++groups_abandoned_;
  }
  return nullptr;
}

RtpPacketMut FecDecoder::try_resolve(StreamId stream, Seq base,
                                     const Group& g) {
  auto& sf = streams_[stream];
  Seq missing = 0;
  std::size_t holes = 0;
  for_each_member(base, g.k, g.bitmap, [&](Seq s) {
    if (sf.window.count(s) == 0) {
      missing = s;
      ++holes;
    }
  });
  if (holes != 1) return nullptr;

  // Peel every received packet of the group off the parity aggregate;
  // what remains is exactly the missing body's contribution.
  FecXor x = g.parity;
  for_each_member(base, g.k, g.bitmap, [&](Seq s) {
    if (s != missing) x.merge(sf.window.at(s));
  });
  RtpBody body;
  body.stream_id = stream;
  body.seq = missing;
  body.frame_id = x.frame_id;
  body.gop_id = x.gop_id;
  body.frame_type = static_cast<FrameType>(x.frame_type);
  body.referenced = x.referenced != 0;
  body.frag_index = x.frag_index;
  body.frag_count = x.frag_count;
  body.payload_bytes = static_cast<std::size_t>(x.payload_bytes);
  body.capture_time = static_cast<Time>(x.capture_time);
  body.trace_id = x.trace_id;
  body.layer = media::LayerId{x.layer_spatial, x.layer_temporal};
  body.spatial_layers = x.spatial_layers == 0 ? 1 : x.spatial_layers;
  body.temporal_layers = x.temporal_layers == 0 ? 1 : x.temporal_layers;
  body.discardable = x.discardable != 0;
  RtpPacketMut pkt = RtpPacket::make(std::move(body));
  pkt->fec_recovered = true;
  // Never crossed the wire at this hop: no abs-send-time for GCC.
  pkt->hop_send_time = kNever;
  pkt->delay_ext_us = g.delay_ext_us;
  pkt->cdn_ingress_time = g.cdn_ingress_time;
  pkt->cdn_hops = g.cdn_hops;
  ++reconstructed_;
  return pkt;
}

void FecDecoder::prune(StreamFec& sf) {
  while (sf.window.size() > kMaxWindow) sf.window.erase(sf.window.begin());
}

}  // namespace livenet::media
