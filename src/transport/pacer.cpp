#include "transport/pacer.h"

#include <algorithm>

namespace livenet::transport {

using media::RtpPacketPtr;

void Pacer::PacketFifo::grow() {
  const std::size_t n = tail_ - head_;
  std::vector<Queued> next(buf_.empty() ? 16 : buf_.size() * 2);
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
  }
  buf_.swap(next);
  head_ = 0;
  tail_ = n;
}

Pacer::Pacer(sim::EventLoop* loop, SendFn send, const Config& cfg)
    : loop_(loop), send_(std::move(send)), cfg_(cfg) {}

Pacer::~Pacer() {
  if (timer_ != sim::kInvalidEvent) loop_->cancel(timer_);
}

void Pacer::enqueue(RtpPacketPtr pkt) {
  const std::size_t sz = pkt->wire_size();
  const bool parity = pkt->is_fec_parity();
  if (parity && queue_bytes_ + sz > cfg_.max_queue_bytes * 3 / 4) {
    // Redundancy is shed first: a congested link keeps its media budget.
    ++parity_dropped_;
    return;
  }
  if (queue_bytes_ + sz > cfg_.max_queue_bytes && !pkt->is_audio()) {
    // Overflow: video (and rtx) beyond the cap is dropped; loss recovery
    // upstream of the receiver deals with the hole.
    ++packets_dropped_;
    return;
  }
  queue_bytes_ += sz;
  Queued q{std::move(pkt), static_cast<std::uint32_t>(sz)};
  if (parity) {
    ++parity_enqueued_;
    parity_q_.push_back(std::move(q));
  } else if (q.pkt->is_audio()) {
    audio_q_.push_back(std::move(q));
  } else if (q.pkt->is_rtx) {
    rtx_q_.push_back(std::move(q));
  } else {
    video_q_.push_back(std::move(q));
  }
  arm();
}

void Pacer::set_rate_bps(double bps) {
  cfg_.rate_bps = std::max(bps, 1e3);
}

Duration Pacer::drain_time() const {
  return static_cast<Duration>(static_cast<double>(queue_bytes_) * 8.0 /
                               cfg_.rate_bps * static_cast<double>(kSec));
}

Pacer::Queued Pacer::pop_next() {
  auto take = [this](PacketFifo& q) {
    Queued e = q.pop_front();
    queue_bytes_ -= e.bytes;
    return e;
  };
  if (!audio_q_.empty()) return take(audio_q_);
  if (!rtx_q_.empty()) return take(rtx_q_);
  if (!video_q_.empty()) return take(video_q_);
  if (!parity_q_.empty()) return take(parity_q_);
  return Queued{};
}

void Pacer::arm() {
  if (timer_ != sim::kInvalidEvent) return;
  if (queue_packets() == 0) return;
  timer_ = loop_->schedule_at(std::max(next_send_ok_, loop_->now()), [this] {
    timer_ = sim::kInvalidEvent;
    fire();
  });
}

void Pacer::fire() {
  const Time now = loop_->now();
  // No idle credit: a quiet pacer restarts its send clock at `now`.
  if (next_send_ok_ < now) next_send_ok_ = now;
  Queued e = pop_next();
  RtpPacketPtr& pkt = e.pkt;
  if (!pkt) return;  // queue drained; nothing to re-arm
  const double gain =
      pkt->frame_type() == media::FrameType::kI ? cfg_.i_frame_gain : 1.0;
  // Memoized pacing interval: consecutive packets almost always share
  // (wire size, gain, rate), so the divide chain is replaced by three
  // compares on the hot path. Bit-identical — a miss runs the exact
  // same expression.
  const std::size_t wsz = e.bytes;
  Duration interval;
  if (wsz == memo_bytes_ && gain == memo_gain_ &&
      cfg_.rate_bps == memo_rate_) {
    interval = memo_interval_;
  } else {
    interval = static_cast<Duration>(
        static_cast<double>(wsz) * 8.0 /
        (cfg_.rate_bps * gain) * static_cast<double>(kSec));
    memo_bytes_ = wsz;
    memo_gain_ = gain;
    memo_rate_ = cfg_.rate_bps;
    memo_interval_ = interval;
  }
  next_send_ok_ += interval;
  ++packets_sent_;
  if (net_ != nullptr) {
    // Direct wire: stamp the per-hop departure time for the peer's GCC
    // delay estimator, then hand the packet to the network.
    pkt->hop_send_time = now;
    net_->send(wire_src_, wire_dst_, std::move(pkt));
  } else {
    send_(std::move(pkt));
  }
  arm();
}

}  // namespace livenet::transport
