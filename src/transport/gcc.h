#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "util/time.h"

// Google Congestion Control (GCC), as used on the slow path between
// overlay nodes (paper §5.1: "the slow path adopts GCC for congestion
// control: the sender rate control decides the pacing rate based on
// both the delay-based receiver-side control and the loss-based
// sender-side control. This pacing rate will then be passed to the
// pacer in the fast path").
//
// The implementation follows Carlucci et al., "Analysis and Design of
// the Google Congestion Control for WebRTC" (the paper's reference
// [13]): a receiver-side delay-gradient estimator (trendline filter +
// adaptive-threshold overuse detector + AIMD remote rate controller,
// REMB-style) and a sender-side loss-based controller; the sender rate
// is the minimum of the two.
namespace livenet::transport {

/// Sliding-window rate meter: bytes observed over the last `window`.
class RateMeter {
 public:
  explicit RateMeter(Duration window = 500 * kMs) : window_(window) {}

  void add(Time now, std::size_t bytes);
  double rate_bps(Time now) const;

  /// True once the window holds enough history for the rate to be
  /// trustworthy (WebRTC gates its throughput-based caps the same way —
  /// acting on a cold meter collapses the estimate at startup).
  bool valid(Time now) const;

 private:
  void evict(Time now) const;

  Duration window_;
  Time first_sample_ = kNever;  ///< when the meter first saw traffic
  mutable std::deque<std::pair<Time, std::size_t>> samples_;
  mutable std::uint64_t bytes_in_window_ = 0;
};

enum class BandwidthUsage { kNormal, kOverusing, kUnderusing };

/// Delay-gradient trendline estimator with adaptive-threshold overuse
/// detection (the receiver-side heart of GCC).
class TrendlineEstimator {
 public:
  /// Feeds one packet-group sample: the change in one-way delay between
  /// consecutive groups. `send_delta`/`arrival_delta` in microseconds.
  void update(Duration send_delta, Duration arrival_delta, Time arrival_time);

  BandwidthUsage state() const { return state_; }
  double trend() const { return smoothed_trend_; }
  double threshold_ms() const { return threshold_; }

 private:
  static constexpr std::size_t kWindowSize = 20;  ///< regression samples
  static constexpr double kSmoothing = 0.9;  ///< EWMA on accumulated delay
  static constexpr double kThresholdGain = 4.0;  ///< scales the trend
  static constexpr double kInitialThreshold = 12.5;  ///< ms, GCC's gamma
  static constexpr double kUp = 0.0087;   ///< threshold adaptation (raise)
  static constexpr double kDown = 0.039;  ///< threshold adaptation (decay)
  /// Sustained overuse required before signalling.
  static constexpr Duration kOveruseTimeTh = 10 * kMs;

  void detect(double trend_ms, Duration send_delta, Time now);
  void adapt_threshold(double modified_trend_ms, Time now);

  std::deque<std::pair<double, double>> samples_;  // (time ms, smoothed delay)
  double acc_delay_ms_ = 0.0;
  double smoothed_delay_ms_ = 0.0;
  double smoothed_trend_ = 0.0;
  double threshold_;
  bool threshold_init_ = false;
  Time first_arrival_ = kNever;
  Time last_update_ = kNever;
  Time overuse_start_ = kNever;
  int consecutive_overuses_ = 0;
  BandwidthUsage state_ = BandwidthUsage::kNormal;
};

/// Groups packets into ~5 ms bursts and produces the inter-group deltas
/// fed to the trendline estimator (WebRTC's InterArrival).
class InterArrival {
 public:
  struct Deltas {
    Duration send_delta = 0;
    Duration arrival_delta = 0;
  };

  /// Returns deltas once a group completes; nullopt while accumulating.
  std::optional<Deltas> on_packet(Time send_time, Time arrival_time);

 private:
  static constexpr Duration kGroupSpan = 5 * kMs;

  bool has_group_ = false;
  Time group_first_send_ = 0, group_last_send_ = 0, group_last_arrival_ = 0;
  bool has_prev_group_ = false;
  Time prev_group_last_send_ = 0, prev_group_last_arrival_ = 0;
};

/// AIMD remote-rate controller (receiver side): turns overuse signals
/// into a REMB estimate.
class AimdRateControl {
 public:
  explicit AimdRateControl(double start_rate_bps)
      : rate_bps_(start_rate_bps) {}

  /// Updates the estimate given the detector state and the measured
  /// incoming rate. `incoming_valid` gates the throughput-based caps
  /// (cold meters must not clamp the estimate).
  double update(BandwidthUsage usage, double incoming_rate_bps,
                bool incoming_valid, Time now);

  double rate_bps() const { return rate_bps_; }

 private:
  enum class State { kHold, kIncrease, kDecrease };

  static constexpr double kMinRateBps = 64e3;
  static constexpr double kMaxRateBps = 500e6;
  static constexpr double kDecreaseFactor = 0.85;  ///< beta on overuse
  /// Multiplicative increase per second.
  static constexpr double kIncreaseFactor = 1.25;
  static constexpr Duration kRtt = 50 * kMs;  ///< assumed response interval

  State state_ = State::kIncrease;
  double rate_bps_;
  Time last_change_ = kNever;
  Time last_decrease_ = kNever;
  double avg_max_rate_bps_ = -1.0;  ///< EWMA of rate at decrease time
};

/// Receiver half of GCC for one incoming link: feed packets, read the
/// REMB to report back to the sender.
class GccReceiver {
 public:
  explicit GccReceiver(double start_rate_bps = 10e6)
      : aimd_(start_rate_bps) {}

  void on_packet(Time send_time, Time arrival_time, std::size_t bytes);

  /// Latest receiver-side estimate (REMB) in bps.
  double remb_bps() const { return remb_bps_; }
  BandwidthUsage usage() const { return trendline_.state(); }
  double incoming_rate_bps(Time now) const { return meter_.rate_bps(now); }

 private:
  InterArrival inter_arrival_;
  TrendlineEstimator trendline_;
  AimdRateControl aimd_;
  RateMeter meter_;
  double remb_bps_ = 10e6;
};

/// Sender half of GCC for one outgoing link: combines the loss-based
/// controller with the receiver's REMB; exposes the pacing rate.
class GccSender {
 public:
  struct Config {
    double start_rate_bps = 10e6;
    double min_rate_bps = 64e3;
  };

  GccSender() : GccSender(Config()) {}
  explicit GccSender(const Config& cfg)
      : cfg_(cfg), loss_based_bps_(cfg.start_rate_bps),
        remb_bps_(kMaxRateBps) {}

  /// Feedback from the receiver (REMB + loss fraction).
  void on_feedback(double remb_bps, double loss_fraction);

  /// Current pacing rate: min(loss-based, delay-based).
  double pacing_rate_bps() const;

  double loss_based_bps() const { return loss_based_bps_; }
  double remb_bps() const { return remb_bps_; }

 private:
  static constexpr double kMaxRateBps = 500e6;
  static constexpr double kLossHigh = 0.10;  ///< above: multiplicative decrease
  static constexpr double kLossLow = 0.02;   ///< below: gentle probe upward

  Config cfg_;
  double loss_based_bps_;
  double remb_bps_;
};

}  // namespace livenet::transport
