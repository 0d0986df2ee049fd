#include "transport/send_history.h"

#include <algorithm>
#include <bit>

namespace livenet::transport {

namespace {
/// A new flow's ring; doubles on the first live collision.
constexpr std::size_t kInitialSlots = 16;
/// Seq span a ring may always grow to cover, whatever max_packets is:
/// far beyond max_age of the fastest flow, so only a seq jump this
/// large can make a record overwrite a live entry.
constexpr std::size_t kMinSpanSlots = std::size_t{1} << 16;
}  // namespace

SendHistory::SendHistory(const Config& cfg)
    : cfg_(cfg),
      max_slots_(std::bit_ceil(std::max(cfg.max_packets, kMinSpanSlots))) {}

void SendHistory::record(const media::RtpPacketPtr& pkt, Time now) {
  const Time cut = cutoff(now);
  const std::uint64_t index = records_++;
  if (now >= next_sweep_) {
    sweep(cut);
    next_sweep_ = now + cfg_.max_age;
  }
  const media::StreamId stream = pkt->stream_id();
  if (cached_ == nullptr || cached_stream_ != stream) {
    cached_ = &flows_[stream];
    cached_stream_ = stream;
  }
  Ring& r = (*cached_)[pkt->is_audio() ? 1 : 0];
  const media::Seq seq = pkt->seq;

  if (r.slots.empty()) r.slots.resize(std::min(kInitialSlots, max_slots_));
  expire(r, cut);
  if (r.held == 0) r.lo = r.hi = seq;

  Slot* s = &r.slots[seq & (r.slots.size() - 1)];
  while (s->pkt && s->seq != seq && live(*s, cut) &&
         r.slots.size() < max_slots_) {
    grow(r, cut);
    s = &r.slots[seq & (r.slots.size() - 1)];
  }
  if (!s->pkt) ++r.held;
  *s = Slot{seq, now, index, pkt};
  r.lo = std::min(r.lo, seq);
  r.hi = std::max(r.hi, seq + 1);
}

media::RtpPacketPtr SendHistory::lookup(media::StreamId stream, bool audio,
                                        media::Seq seq, Time now) {
  const FlowRings* flow = find(stream);
  if (flow == nullptr) return nullptr;
  const Ring& r = (*flow)[audio ? 1 : 0];
  if (r.slots.empty()) return nullptr;
  const Slot& s = r.slots[seq & (r.slots.size() - 1)];
  if (s.seq != seq || !live(s, cutoff(now))) return nullptr;
  return s.pkt;
}

void SendHistory::forget_stream(media::StreamId stream) {
  if (flows_.erase(stream) != 0 && cached_stream_ == stream) {
    cached_ = nullptr;
  }
}

std::size_t SendHistory::size() const {
  std::size_t n = 0;
  for (const auto& [stream, flow] : flows_) {
    n += flow[0].held + flow[1].held;
  }
  return n;
}

SendHistory::FlowRings* SendHistory::find(media::StreamId stream) {
  if (cached_ != nullptr && cached_stream_ == stream) return cached_;
  const auto it = flows_.find(stream);
  return it == flows_.end() ? nullptr : &it->second;
}

void SendHistory::expire(Ring& r, Time cutoff) {
  const std::size_t mask = r.slots.size() - 1;
  while (r.held > 0) {
    Slot& s = r.slots[r.lo & mask];
    if (s.pkt && s.seq == r.lo) {
      if (live(s, cutoff)) return;
      s.pkt.reset();
      --r.held;
    } else if (r.hi - r.lo > r.slots.size()) {
      // The held seqs span more than the ring: stepping seq by seq
      // could take arbitrarily long, so visit each slot once instead.
      rescan(r, cutoff);
      return;
    }
    ++r.lo;
  }
}

void SendHistory::rescan(Ring& r, Time cutoff) {
  media::Seq lo = r.hi;
  for (Slot& s : r.slots) {
    if (!s.pkt) continue;
    if (live(s, cutoff)) {
      lo = std::min(lo, s.seq);
    } else {
      s.pkt.reset();
      --r.held;
    }
  }
  r.lo = lo;
}

void SendHistory::grow(Ring& r, Time cutoff) {
  std::vector<Slot> bigger(r.slots.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  // Live entries never collide after doubling: distinct residues
  // modulo n stay distinct modulo 2n.
  for (Slot& s : r.slots) {
    if (!s.pkt) continue;
    if (live(s, cutoff)) {
      bigger[s.seq & mask] = std::move(s);
    } else {
      --r.held;
    }
  }
  r.slots.swap(bigger);
}

void SendHistory::sweep(Time cutoff) {
  // Flows that stopped recording (a downstream unsubscribed while the
  // stream lives on) are never walked by record(); drop their packets.
  for (auto it = flows_.begin(); it != flows_.end();) {
    for (Ring& r : it->second) {
      if (!r.slots.empty()) expire(r, cutoff);
    }
    if (it->second[0].held == 0 && it->second[1].held == 0) {
      if (cached_ == &it->second) cached_ = nullptr;
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace livenet::transport
