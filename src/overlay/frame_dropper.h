#pragma once

#include <array>
#include <cstdint>

#include "media/rtp.h"
#include "telemetry/trace.h"
#include "util/time.h"

// Proactive frame dropping (paper §5.2): when a per-client send queue
// builds up faster than it drains, the consumer node drops frames
// rather than letting the queue grow: first unreferenced B frames
// ("only causes short blurring"), then P frames, and finally the whole
// GoP. Used to combat bandwidth variation on mobile last miles.
namespace livenet::overlay {

class FrameDropper {
 public:
  /// Decides the fate of `pkt` given the client queue's current drain
  /// time: kNone = forward, anything else names why it is dropped.
  /// Stateful: dropping a P frame poisons the rest of its GoP (later
  /// frames reference it), and a dropped GoP stays dropped until the
  /// next keyframe, which also clears any stale poison state (so a
  /// reused GoP id can never resurrect an old suppression).
  ///
  /// Retransmissions follow the same forward/drop decision but are
  /// excluded from every drop counter: an rtx of an already-counted
  /// frame is not a new proactive drop, and inflated totals would skew
  /// the consumer's skip-discounting when it interprets client quality
  /// reports.
  telemetry::DropReason decide(const media::RtpPacket& pkt,
                               Duration queue_drain);

  /// Convenience wrapper preserving the original boolean API.
  bool should_forward(const media::RtpPacket& pkt, Duration queue_drain) {
    return decide(pkt, queue_drain) == telemetry::DropReason::kNone;
  }

  /// Per-reason drop counts (rtx excluded) — the source of truth the
  /// aggregate accessors below are derived from.
  std::uint64_t dropped(telemetry::DropReason r) const {
    return by_reason_[static_cast<std::size_t>(r)];
  }

  std::uint64_t b_dropped() const {
    return dropped(telemetry::DropReason::kBFrame);
  }
  std::uint64_t p_dropped() const {
    return dropped(telemetry::DropReason::kPFrame) +
           dropped(telemetry::DropReason::kPoisonedGop);
  }
  std::uint64_t gop_dropped() const {
    return dropped(telemetry::DropReason::kGopThreshold) +
           dropped(telemetry::DropReason::kGopSuppressed);
  }
  std::uint64_t layer_dropped() const {
    return dropped(telemetry::DropReason::kTemporalLayer) +
           dropped(telemetry::DropReason::kSpatialLayer);
  }
  std::uint64_t total_dropped() const {
    return b_dropped() + p_dropped() + gop_dropped() + layer_dropped();
  }

  /// True while the dropper is consistently above the B threshold; the
  /// consumer uses this as the signal to switch the client to a lower
  /// simulcast bitrate.
  bool under_pressure() const { return pressure_; }

 private:
  /// Queue drain time thresholds.
  static constexpr Duration kDropBAbove = 300 * kMs;
  static constexpr Duration kDropPAbove = 600 * kMs;
  static constexpr Duration kDropGopAbove = 1200 * kMs;
  // SVC rungs, interleaved below the paper's ladder (highest temporal
  // layer first, then remaining temporal enhancements, then spatial
  // enhancement — an enhancement drop blurs one layer and never
  // poisons a GoP). Non-SVC streams carry layer {0,0}/discardable
  // false and never match these rules.
  /// Top temporal layer.
  static constexpr Duration kDropDiscardableAbove = 250 * kMs;
  static constexpr Duration kDropTemporalAbove = 400 * kMs;  ///< temporal > 0
  static constexpr Duration kDropSpatialAbove = 500 * kMs;   ///< spatial > 0

  telemetry::DropReason drop(telemetry::DropReason reason, bool is_rtx);

  std::uint64_t dropping_gop_id_ = 0;   ///< GoP being suppressed entirely
  std::uint64_t poisoned_gop_id_ = 0;   ///< GoP with a dropped P frame
  std::uint64_t poisoned_from_frame_ = 0;
  std::array<std::uint64_t, 16> by_reason_{};  ///< indexed by DropReason
  bool pressure_ = false;
};

}  // namespace livenet::overlay
