#include "transport/receive_buffer.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace livenet::transport {

using media::RtpPacketPtr;
using media::Seq;
using media::StreamId;

namespace {
/// Drained voids kept per flow for relayed NACK-void answers. The
/// window only needs to cover a few NACK round trips of seqs.
constexpr std::size_t kVoidHistoryCap = 1024;
/// A flow's first reorder ring; doubles on the first collision.
constexpr std::size_t kInitialReorderSlots = 16;
}  // namespace

const RtpPacketPtr* ReceiveBuffer::SeqRing::find(Seq seq) const {
  if (count_ == 0) return nullptr;
  const RtpPacketPtr& p = slots_[seq & (slots_.size() - 1)];
  return p && p->seq == seq ? &p : nullptr;
}

void ReceiveBuffer::SeqRing::insert(const RtpPacketPtr& pkt) {
  if (slots_.empty()) slots_.resize(kInitialReorderSlots);
  while (slots_[pkt->seq & (slots_.size() - 1)]) {
    // Distinct residues modulo n stay distinct modulo 2n, so re-homing
    // into the doubled ring never collides.
    std::vector<RtpPacketPtr> bigger(slots_.size() * 2);
    for (RtpPacketPtr& p : slots_) {
      if (p) bigger[p->seq & (bigger.size() - 1)] = std::move(p);
    }
    slots_.swap(bigger);
  }
  slots_[pkt->seq & (slots_.size() - 1)] = pkt;
  last_ = count_ == 0 ? pkt->seq : std::max(last_, pkt->seq);
  ++count_;
}

void ReceiveBuffer::SeqRing::erase(Seq seq) {
  slots_[seq & (slots_.size() - 1)].reset();
  --count_;
}

Seq ReceiveBuffer::SeqRing::first() const {
  Seq lo = last_;
  for (const RtpPacketPtr& p : slots_) {
    if (p) lo = std::min(lo, p->seq);
  }
  return lo;
}

void ReceiveBuffer::SeqRing::append_in_order(
    std::vector<RtpPacketPtr>& out) const {
  const std::size_t begin = out.size();
  for (const RtpPacketPtr& p : slots_) {
    if (p) out.push_back(p);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end(),
            [](const RtpPacketPtr& a, const RtpPacketPtr& b) {
              return a->seq < b->seq;
            });
}

ReceiveBuffer::ReceiveBuffer(sim::EventLoop* loop, DeliverFn deliver,
                             GapFn gap, NackFn nack, const Config& cfg)
    : loop_(loop), deliver_(std::move(deliver)), gap_(std::move(gap)),
      nack_(std::move(nack)), cfg_(cfg) {}

ReceiveBuffer::~ReceiveBuffer() {
  if (scan_timer_ != sim::kInvalidEvent) loop_->cancel(scan_timer_);
}

void ReceiveBuffer::on_packet(const RtpPacketPtr& pkt) {
  ++received_since_fb_;
  auto& st = streams_[flow_key(pkt->stream_id(), pkt->is_audio())];
  if (!st.started) {
    // First packet of this stream from this upstream: sync to it.
    st.started = true;
    st.next_expected = pkt->seq;
  }
  if (pkt->seq < st.next_expected) {
    ++duplicates_;
    return;
  }
  if (st.buffered.contains(pkt->seq)) {
    ++duplicates_;
    return;
  }

  if (pkt->prev_link_seq != 0 && pkt->seq > st.next_expected &&
      pkt->seq > pkt->prev_link_seq &&
      pkt->seq - pkt->prev_link_seq <= cfg_.max_buffered) {
    // The sender vouches that (prev_link_seq, seq) was filtered out on
    // purpose: record the seqs as voids, not holes, and cancel any hole
    // already marked there by an out-of-order arrival.
    for (Seq s = std::max(st.next_expected, pkt->prev_link_seq + 1);
         s < pkt->seq; ++s) {
      if (st.buffered.contains(s)) continue;
      if (st.missing.erase(s) != 0 && holes_since_fb_ > 0) --holes_since_fb_;
      st.voids.insert(s);
    }
  }
  if (pkt->seq > st.next_expected) {
    // Mark newly discovered holes.
    const Seq scan_from =
        st.buffered.empty() ? st.next_expected
                            : std::max(st.next_expected,
                                       st.buffered.last() + 1);
    for (Seq s = scan_from; s < pkt->seq; ++s) {
      if (!st.buffered.contains(s) && st.missing.count(s) == 0 &&
          st.voids.count(s) == 0) {
        st.missing.emplace(s, MissInfo{loop_->now(), kNever, 0});
        ++holes_since_fb_;
      }
    }
  }
  // A recovered packet (RTX or FEC reconstruction) filling a tracked
  // hole implicitly cancels any in-flight re-request for that seq (the
  // hole record goes away), and its hole age is the recovery latency.
  const auto miss_it = st.missing.find(pkt->seq);
  if (miss_it != st.missing.end()) {
    if (cfg_.telemetry && (pkt->is_rtx || pkt->fec_recovered)) {
      const double ms =
          static_cast<double>(loop_->now() - miss_it->second.first_missed) /
          static_cast<double>(kMs);
      const auto& h = telemetry::handles();
      h.recovery_ms->observe(ms);
      if (pkt->fec_recovered) {
        h.recovery_fec_ms->observe(ms);
      } else {
        h.recovery_rtx_ms->observe(ms);
      }
    }
    st.missing.erase(miss_it);
  }
  st.buffered.insert(pkt);
  drain_in_order(st);

  // Bound the out-of-order buffer: if it overflows, force-skip to its
  // start (treat the unrecovered range as a gap).
  if (st.buffered.size() > cfg_.max_buffered) {
    const Seq first_buffered = st.buffered.first();
    for (Seq s = st.next_expected; s < first_buffered; ++s) {
      st.missing.erase(s);
    }
    st.voids.erase(st.voids.begin(), st.voids.lower_bound(first_buffered));
    st.next_expected = first_buffered;
    ++gaps_;
    gap_(pkt->stream_id());
    drain_in_order(st);
  }

  if (scan_timer_ == sim::kInvalidEvent) {
    scan_timer_ = loop_->schedule_after(cfg_.nack_interval, [this] {
      scan_timer_ = sim::kInvalidEvent;
      scan();
    });
  }
}

void ReceiveBuffer::drain_in_order(StreamState& st) {
  for (;;) {
    if (const RtpPacketPtr* slot = st.buffered.find(st.next_expected)) {
      // The packet stays buffered during the upcall: a startup burst
      // served from inside it reads buffered_packets(). The copy keeps
      // it alive if the upcall grows the ring.
      const RtpPacketPtr pkt = *slot;
      deliver_(pkt);
      ++delivered_;
      st.buffered.erase(st.next_expected);
      ++st.next_expected;
      continue;
    }
    // A voided seq was filtered upstream on purpose: step over it as if
    // delivered — no gap, no NACK. Remember it (bounded) so a relay can
    // still vouch for the void if a downstream node NACKs the seq.
    if (!st.voids.empty() && st.voids.erase(st.next_expected) != 0) {
      st.void_history.insert(st.next_expected);
      while (st.void_history.size() > kVoidHistoryCap) {
        st.void_history.erase(st.void_history.begin());
      }
      ++st.next_expected;
      continue;
    }
    break;
  }
}

void ReceiveBuffer::scan() {
  const Time now = loop_->now();
  // Re-NACK holdoff: a requested retransmission needs a full upstream
  // round trip (plus pacer slack) to arrive. Re-requesting every
  // nack_interval — the old behaviour — duplicated every RTX on links
  // whose RTT exceeds the scan period.
  const Duration holdoff =
      std::max(cfg_.nack_interval, rtt_hint_ + kRtxHoldoffMargin);
  bool any_pending = false;
  for (auto& [key, st] : streams_) {
    const media::StreamId stream = key / 2;
    const bool audio = (key & 1) != 0;
    std::vector<Seq> to_nack;
    std::vector<Seq> to_abandon;
    for (auto& [seq, info] : st.missing) {
      if (now - info.first_missed >= cfg_.giveup_after ||
          info.nacks >= cfg_.max_nacks_per_seq) {
        to_abandon.push_back(seq);
        continue;
      }
      if (info.last_nack == kNever || now - info.last_nack >= holdoff) {
        to_nack.push_back(seq);
        info.last_nack = now;
        ++info.nacks;
      }
    }
    if (!to_nack.empty()) {
      ++nacks_sent_;
      nack_(stream, audio, to_nack);
    }
    if (!to_abandon.empty()) {
      // Skip over abandoned holes: advance next_expected past each
      // abandoned seq when it is the blocking one.
      for (Seq s : to_abandon) st.missing.erase(s);
      bool skipped = false;
      while (!st.missing.empty() || !st.buffered.empty()) {
        if (st.buffered.contains(st.next_expected) ||
            st.voids.count(st.next_expected) != 0) {
          drain_in_order(st);
          continue;
        }
        if (st.missing.count(st.next_expected) != 0) break;  // still hoping
        // next_expected is neither buffered nor tracked-missing: it was
        // abandoned; skip it.
        if (st.buffered.empty()) break;
        ++st.next_expected;
        skipped = true;
      }
      if (skipped) {
        ++gaps_;
        gap_(stream);
      }
    }
    if (!st.missing.empty()) any_pending = true;
  }
  if (any_pending && scan_timer_ == sim::kInvalidEvent) {
    scan_timer_ = loop_->schedule_after(cfg_.nack_interval, [this] {
      scan_timer_ = sim::kInvalidEvent;
      scan();
    });
  }
}

bool ReceiveBuffer::was_voided(StreamId stream, bool audio, Seq seq) const {
  const auto it = streams_.find(flow_key(stream, audio));
  if (it == streams_.end()) return false;
  const StreamState& st = it->second;
  return st.voids.count(seq) != 0 || st.void_history.count(seq) != 0;
}

void ReceiveBuffer::void_seqs(StreamId stream, bool audio,
                              const std::vector<Seq>& seqs) {
  const auto it = streams_.find(flow_key(stream, audio));
  if (it == streams_.end()) return;
  StreamState& st = it->second;
  if (!st.started) return;
  for (const Seq s : seqs) {
    if (s < st.next_expected || st.buffered.contains(s)) continue;
    if (st.missing.erase(s) != 0 && holes_since_fb_ > 0) --holes_since_fb_;
    st.voids.insert(s);
  }
  drain_in_order(st);
}

std::vector<RtpPacketPtr> ReceiveBuffer::buffered_packets(
    StreamId stream) const {
  std::vector<RtpPacketPtr> out;
  for (const bool audio : {false, true}) {
    const auto it = streams_.find(flow_key(stream, audio));
    if (it != streams_.end()) it->second.buffered.append_in_order(out);
  }
  return out;
}

bool ReceiveBuffer::would_accept(StreamId stream, bool audio,
                                 Seq seq) const {
  const auto it = streams_.find(flow_key(stream, audio));
  if (it == streams_.end()) return true;
  const StreamState& st = it->second;
  if (!st.started) return true;
  if (seq < st.next_expected) return false;
  // A voided seq was layer-filtered upstream: an out-of-band recovery
  // injecting it would resurrect the filtered layer.
  if (st.voids.count(seq) != 0) return false;
  return !st.buffered.contains(seq);
}

std::vector<Seq> ReceiveBuffer::missing_subset(
    StreamId stream, bool audio, const std::vector<Seq>& seqs) const {
  std::vector<Seq> out;
  const auto it = streams_.find(flow_key(stream, audio));
  if (it == streams_.end()) return out;
  for (const Seq s : seqs) {
    if (it->second.missing.count(s) != 0) out.push_back(s);
  }
  return out;
}

void ReceiveBuffer::forget_stream(StreamId stream) {
  streams_.erase(flow_key(stream, false));
  streams_.erase(flow_key(stream, true));
}

double ReceiveBuffer::take_loss_fraction() {
  const std::uint64_t expected = received_since_fb_ + holes_since_fb_;
  const double frac =
      expected > 0
          ? static_cast<double>(holes_since_fb_) / static_cast<double>(expected)
          : 0.0;
  holes_since_fb_ = 0;
  received_since_fb_ = 0;
  return frac;
}

}  // namespace livenet::transport
