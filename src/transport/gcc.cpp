#include "transport/gcc.h"

#include <algorithm>
#include <cmath>

namespace livenet::transport {

// ---------------------------------------------------------------- RateMeter

void RateMeter::add(Time now, std::size_t bytes) {
  if (first_sample_ == kNever) first_sample_ = now;
  samples_.emplace_back(now, bytes);
  bytes_in_window_ += bytes;
  evict(now);
}

void RateMeter::evict(Time now) const {
  // Guard the cutoff computation against now < window_ (the first
  // window of a run): every sample timestamp is >= 0, so nothing can
  // be stale yet, and an unsigned Time representation would wrap
  // `now - window_` here and evict the entire window at sim start.
  if (now < window_) return;
  const Time cutoff = now - window_;
  while (!samples_.empty() && samples_.front().first < cutoff) {
    bytes_in_window_ -= samples_.front().second;
    samples_.pop_front();
  }
}

double RateMeter::rate_bps(Time now) const {
  evict(now);
  if (samples_.empty()) return 0.0;
  // During ramp-up the nominal window is mostly empty, and dividing by
  // all of it underestimates throughput (which AIMD then latches onto
  // when it caps the send rate against the incoming rate). Divide by
  // the span observed since the meter first saw traffic instead, capped
  // at the window; once a full window has elapsed the divisor is the
  // window itself, so gaps inside it still read as silence. The floor
  // guards the first few closely-spaced packets from producing absurd
  // rates.
  const Duration floor_span = std::max<Duration>(window_ / 8, 1 * kMs);
  const Duration span = std::clamp(now - first_sample_, floor_span, window_);
  return static_cast<double>(bytes_in_window_) * 8.0 / to_sec(span);
}

bool RateMeter::valid(Time now) const {
  evict(now);
  return samples_.size() >= 8 &&
         samples_.back().first - samples_.front().first >= window_ / 2;
}

// ------------------------------------------------------------- InterArrival

std::optional<InterArrival::Deltas> InterArrival::on_packet(
    Time send_time, Time arrival_time) {
  if (!has_group_) {
    has_group_ = true;
    group_first_send_ = group_last_send_ = send_time;
    group_last_arrival_ = arrival_time;
    return std::nullopt;
  }
  // A reordered packet (sent before the current group opened) belongs
  // to an earlier burst: fold it into the current group rather than
  // letting it open a new one. The explicit `<` guard keeps this
  // correct even under an unsigned Time representation, where the
  // subtraction would wrap to a huge positive value and falsely close
  // the group.
  if (send_time < group_first_send_ ||
      send_time - group_first_send_ <= kGroupSpan) {
    // Same burst: extend the current group.
    group_last_send_ = std::max(group_last_send_, send_time);
    group_last_arrival_ = std::max(group_last_arrival_, arrival_time);
    return std::nullopt;
  }
  // New group begins; emit deltas w.r.t. the previous complete group.
  std::optional<Deltas> out;
  if (has_prev_group_) {
    out = Deltas{group_last_send_ - prev_group_last_send_,
                 group_last_arrival_ - prev_group_last_arrival_};
  }
  has_prev_group_ = true;
  prev_group_last_send_ = group_last_send_;
  prev_group_last_arrival_ = group_last_arrival_;
  group_first_send_ = group_last_send_ = send_time;
  group_last_arrival_ = arrival_time;
  return out;
}

// ------------------------------------------------------ TrendlineEstimator

void TrendlineEstimator::update(Duration send_delta, Duration arrival_delta,
                                Time arrival_time) {
  if (first_arrival_ == kNever) {
    first_arrival_ = arrival_time;
    threshold_ = kInitialThreshold;
    threshold_init_ = true;
  }
  const double delay_delta_ms = to_ms(arrival_delta - send_delta);
  acc_delay_ms_ += delay_delta_ms;
  smoothed_delay_ms_ = kSmoothing * smoothed_delay_ms_ +
                       (1.0 - kSmoothing) * acc_delay_ms_;

  samples_.emplace_back(to_ms(arrival_time - first_arrival_),
                        smoothed_delay_ms_);
  if (samples_.size() > kWindowSize) samples_.pop_front();

  if (samples_.size() < kWindowSize) {
    return;  // not enough history for a stable slope
  }

  // Least-squares slope of smoothed delay vs. arrival time.
  double mean_x = 0.0, mean_y = 0.0;
  for (const auto& [x, y] : samples_) {
    mean_x += x;
    mean_y += y;
  }
  mean_x /= static_cast<double>(samples_.size());
  mean_y /= static_cast<double>(samples_.size());
  double num = 0.0, den = 0.0;
  for (const auto& [x, y] : samples_) {
    num += (x - mean_x) * (y - mean_y);
    den += (x - mean_x) * (x - mean_x);
  }
  const double slope = den > 0.0 ? num / den : 0.0;
  smoothed_trend_ = slope;
  detect(slope, send_delta, arrival_time);
}

void TrendlineEstimator::detect(double trend, Duration send_delta, Time now) {
  // Scale the dimensionless slope into comparable "ms" units the same
  // way WebRTC does: multiply by the number of samples and a gain.
  const double modified_trend = trend *
                                static_cast<double>(samples_.size()) *
                                kThresholdGain;
  if (modified_trend > threshold_) {
    if (overuse_start_ == kNever) {
      overuse_start_ = now;
      consecutive_overuses_ = 0;
    }
    ++consecutive_overuses_;
    // Require sustained overuse (in time and count) before signalling.
    if (now - overuse_start_ >= kOveruseTimeTh &&
        consecutive_overuses_ > 1) {
      state_ = BandwidthUsage::kOverusing;
    }
  } else if (modified_trend < -threshold_) {
    overuse_start_ = kNever;
    state_ = BandwidthUsage::kUnderusing;
  } else {
    overuse_start_ = kNever;
    state_ = BandwidthUsage::kNormal;
  }
  (void)send_delta;
  adapt_threshold(modified_trend, now);
}

void TrendlineEstimator::adapt_threshold(double modified_trend, Time now) {
  if (last_update_ == kNever) last_update_ = now;
  const double abs_trend = std::abs(modified_trend);
  // Ignore wild outliers (per the GCC paper, cap at threshold + 15 ms).
  if (abs_trend > threshold_ + 15.0) {
    last_update_ = now;
    return;
  }
  const double k = abs_trend < threshold_ ? kDown : kUp;
  const double dt_ms = std::min(to_ms(now - last_update_), 100.0);
  threshold_ += k * (abs_trend - threshold_) * dt_ms;
  threshold_ = std::clamp(threshold_, 6.0, 600.0);
  last_update_ = now;
}

// --------------------------------------------------------- AimdRateControl

double AimdRateControl::update(BandwidthUsage usage,
                               double incoming_rate_bps,
                               bool incoming_valid, Time now) {
  if (last_change_ == kNever) last_change_ = now;

  switch (usage) {
    case BandwidthUsage::kOverusing:
      state_ = State::kDecrease;
      break;
    case BandwidthUsage::kUnderusing:
      // The queues are draining: hold to let them empty.
      state_ = State::kHold;
      break;
    case BandwidthUsage::kNormal:
      if (state_ == State::kDecrease || state_ == State::kHold) {
        state_ = State::kIncrease;
      }
      break;
  }

  switch (state_) {
    case State::kDecrease: {
      if (incoming_valid) {
        rate_bps_ = kDecreaseFactor * incoming_rate_bps;
        // Track the incoming rate near saturation (additive regime).
        if (avg_max_rate_bps_ < 0.0) {
          avg_max_rate_bps_ = incoming_rate_bps;
        } else {
          avg_max_rate_bps_ =
              0.95 * avg_max_rate_bps_ + 0.05 * incoming_rate_bps;
        }
      } else {
        rate_bps_ *= kDecreaseFactor;
      }
      state_ = State::kHold;
      last_change_ = now;
      last_decrease_ = now;
      break;
    }
    case State::kIncrease: {
      const double elapsed = to_sec(now - last_change_);
      last_change_ = now;
      const bool near_max =
          avg_max_rate_bps_ > 0.0 && rate_bps_ > 0.9 * avg_max_rate_bps_;
      if (near_max) {
        // Additive increase: about one packet per response interval.
        const double packets_per_sec = 1.0 / to_sec(kRtt);
        rate_bps_ += 8.0 * 1200.0 * packets_per_sec * elapsed;
      } else {
        // Multiplicative increase, capped per update.
        const double factor =
            std::pow(kIncreaseFactor, std::min(elapsed, 1.0));
        rate_bps_ *= factor;
      }
      // Near a recent congestion episode, never run far ahead of what
      // is actually arriving. Outside that window the cap is lifted:
      // this node may be relaying a stream whose rate it does not
      // control (the consumer drops frames under pressure), so a
      // latched cap at the starved throughput would deadlock recovery.
      const bool near_congestion =
          last_decrease_ != kNever && now - last_decrease_ <= 5 * kSec;
      if (near_congestion && incoming_valid && incoming_rate_bps > 0.0) {
        rate_bps_ = std::min(rate_bps_, 1.5 * incoming_rate_bps + 10e3);
      }
      break;
    }
    case State::kHold:
      last_change_ = now;
      break;
  }
  rate_bps_ = std::clamp(rate_bps_, kMinRateBps, kMaxRateBps);
  return rate_bps_;
}

// -------------------------------------------------------------- GccReceiver

void GccReceiver::on_packet(Time send_time, Time arrival_time,
                            std::size_t bytes) {
  meter_.add(arrival_time, bytes);
  const auto deltas = inter_arrival_.on_packet(send_time, arrival_time);
  if (deltas.has_value()) {
    trendline_.update(deltas->send_delta, deltas->arrival_delta,
                      arrival_time);
  }
  remb_bps_ = aimd_.update(trendline_.state(), meter_.rate_bps(arrival_time),
                           meter_.valid(arrival_time), arrival_time);
}

// ---------------------------------------------------------------- GccSender

void GccSender::on_feedback(double remb_bps, double loss_fraction) {
  if (remb_bps > 0.0) remb_bps_ = remb_bps;
  if (loss_fraction > kLossHigh) {
    loss_based_bps_ *= (1.0 - 0.5 * loss_fraction);
  } else if (loss_fraction < kLossLow) {
    loss_based_bps_ *= 1.05;
  }
  loss_based_bps_ =
      std::clamp(loss_based_bps_, cfg_.min_rate_bps, kMaxRateBps);
}

double GccSender::pacing_rate_bps() const {
  return std::clamp(std::min(loss_based_bps_, remb_bps_), cfg_.min_rate_bps,
                    kMaxRateBps);
}

}  // namespace livenet::transport
