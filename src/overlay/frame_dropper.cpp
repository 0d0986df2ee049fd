#include "overlay/frame_dropper.h"

#include "telemetry/metrics.h"

namespace livenet::overlay {

using telemetry::DropReason;

DropReason FrameDropper::drop(DropReason reason, bool is_rtx) {
  // Retransmissions share the original frame's fate but never count:
  // the first pass already accounted for the drop, and the totals feed
  // the consumer's net-skip discounting.
  if (!is_rtx) {
    ++by_reason_[static_cast<std::size_t>(reason)];
    auto& h = telemetry::handles();
    switch (reason) {
      case DropReason::kBFrame:
        h.drops_b->add();
        break;
      case DropReason::kPFrame:
      case DropReason::kPoisonedGop:
        h.drops_p->add();
        break;
      case DropReason::kTemporalLayer:
      case DropReason::kSpatialLayer:
        h.drops_layer->add();
        break;
      default:
        h.drops_gop->add();
        break;
    }
  }
  return reason;
}

DropReason FrameDropper::decide(const media::RtpPacket& pkt,
                                Duration queue_drain) {
  pressure_ = queue_drain > kDropBAbove;
  if (pkt.is_audio()) return DropReason::kNone;  // audio is never dropped

  // A fresh keyframe opens a new GoP: reconsider suppression AND clear
  // poison state, so stale state can never outlive a GoP-id reuse. An
  // rtx keyframe is old data and must not resurrect a suppressed GoP.
  if (pkt.is_keyframe_packet() && !pkt.is_rtx) {
    dropping_gop_id_ = 0;
    poisoned_gop_id_ = 0;
    poisoned_from_frame_ = 0;
  }

  // A GoP being suppressed stays suppressed until the next keyframe.
  if (dropping_gop_id_ != 0 && pkt.gop_id() == dropping_gop_id_) {
    return drop(DropReason::kGopSuppressed, pkt.is_rtx);
  }

  if (queue_drain > kDropGopAbove) {
    // Drop from here to the end of this GoP.
    dropping_gop_id_ = pkt.gop_id();
    return drop(DropReason::kGopThreshold, pkt.is_rtx);
  }

  // A dropped P frame invalidates every later frame in the same GoP.
  if (poisoned_gop_id_ != 0 && pkt.gop_id() == poisoned_gop_id_ &&
      pkt.frame_id() > poisoned_from_frame_) {
    return drop(DropReason::kPoisonedGop, pkt.is_rtx);
  }

  // SVC rungs before the P/B ladder: an enhancement frame is never a
  // GoP dependency for lower layers, so these drops don't poison.
  if (queue_drain > kDropDiscardableAbove && pkt.discardable()) {
    return drop(DropReason::kTemporalLayer, pkt.is_rtx);
  }
  if (queue_drain > kDropTemporalAbove && pkt.layer().temporal > 0) {
    return drop(DropReason::kTemporalLayer, pkt.is_rtx);
  }
  if (queue_drain > kDropSpatialAbove && pkt.layer().spatial > 0) {
    return drop(DropReason::kSpatialLayer, pkt.is_rtx);
  }

  if (queue_drain > kDropPAbove &&
      pkt.frame_type() == media::FrameType::kP &&
      pkt.layer().temporal == 0 && pkt.layer().spatial == 0) {
    poisoned_gop_id_ = pkt.gop_id();
    poisoned_from_frame_ = pkt.frame_id();
    return drop(DropReason::kPFrame, pkt.is_rtx);
  }

  if (queue_drain > kDropBAbove &&
      pkt.frame_type() == media::FrameType::kB && !pkt.referenced()) {
    return drop(DropReason::kBFrame, pkt.is_rtx);
  }
  return DropReason::kNone;
}

}  // namespace livenet::overlay
