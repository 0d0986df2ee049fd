#include "client/viewer.h"

#include <algorithm>

#include "media/rtp.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace livenet::client {

using media::Frame;
using media::LayerMask;
using media::RtpPacket;
using sim::NodeId;

namespace {

/// The base layer can never be masked off; an empty mask means "all".
LayerMask sanitize_mask(LayerMask mask) {
  if (mask == 0) return media::kAllLayers;
  return static_cast<LayerMask>(mask | media::layer_bit(0, 0));
}

}  // namespace

Viewer::Viewer(sim::Network* net, ClientMetrics* metrics,
               const ViewerConfig& cfg)
    : net_(net), metrics_(metrics), cfg_(cfg) {}

Viewer::~Viewer() {
  if (report_timer_ != sim::kInvalidEvent) {
    net_->loop()->cancel(report_timer_);
  }
}

void Viewer::start_view(NodeId consumer, media::StreamId stream,
                        std::vector<media::StreamId> fallback_versions) {
  consumer_ = consumer;
  requested_stream_ = stream;
  stopped_ = false;
  playing_ = false;
  latest_capture_ = kNever;
  last_capture_seen_ = kNever;
  pipeline_peak_ = 0;
  prebuffer_.clear();
  stall_shift_ = 0;
  in_stall_ = false;
  stalls_since_report_ = 0;
  skips_since_report_ = 0;  // a fresh record must not inherit old skips
  mask_ = sanitize_mask(cfg_.initial_layer_mask);
  svc_s_ = 1;
  svc_t_ = 1;
  filtered_credit_ = 0.0;
  clean_windows_ = 0;

  record_ = &metrics_->new_record();
  record_->stream = stream;
  record_->viewer = node_id();
  record_->consumer = consumer;
  record_->view_start = net_->loop()->now();

  receiver_ = std::make_unique<overlay::LinkReceiver>(
      net_, node_id(), consumer,
      [this](const media::RtpPacketPtr& pkt) { assemble(pkt); },
      [this](media::StreamId) {
        // Transport-level unrecoverable hole on the last mile.
        if (record_ != nullptr) ++record_->frames_skipped;
        ++skips_since_report_;
      });

  auto req = sim::make_message<overlay::ViewRequest>();
  req->stream_id = stream;
  req->client_id = static_cast<overlay::ClientId>(node_id());
  req->fallback_versions = std::move(fallback_versions);
  req->layer_mask = mask_;
  net_->send(node_id(), consumer_, std::move(req));

  if (report_timer_ == sim::kInvalidEvent) {
    report_timer_ = net_->loop()->schedule_after(
        kQualityReportInterval, [this] { send_quality_report(); });
  }
}

void Viewer::stop_view() {
  if (stopped_) return;
  stopped_ = true;
  auto stop = sim::make_message<overlay::ViewStop>();
  stop->stream_id = requested_stream_;
  stop->client_id = static_cast<overlay::ClientId>(node_id());
  net_->send(node_id(), consumer_, std::move(stop));
  if (record_ != nullptr) record_->completed = true;
  if (report_timer_ != sim::kInvalidEvent) {
    net_->loop()->cancel(report_timer_);
    report_timer_ = sim::kInvalidEvent;
  }
}

void Viewer::migrate(NodeId new_consumer) {
  if (stopped_ || new_consumer == consumer_) return;
  auto stop = sim::make_message<overlay::ViewStop>();
  stop->stream_id = requested_stream_;
  stop->client_id = static_cast<overlay::ClientId>(node_id());
  net_->send(node_id(), consumer_, std::move(stop));

  consumer_ = new_consumer;
  if (record_ != nullptr) record_->consumer = new_consumer;
  // Fresh transport toward the new consumer; playback state persists.
  receiver_ = std::make_unique<overlay::LinkReceiver>(
      net_, node_id(), new_consumer,
      [this](const media::RtpPacketPtr& pkt) { assemble(pkt); },
      [this](media::StreamId) {
        if (record_ != nullptr) ++record_->frames_skipped;
        ++skips_since_report_;
      });
  // The framers restart with the new consumer's client-facing seq
  // spaces, which zeroes their cumulative drop counters — fold the
  // drops that accrued since the last quality report into the interval
  // first, or the mid-interval tally silently loses them (and the next
  // report's delta computation would go backwards).
  std::uint64_t dropped_total = 0;
  for (auto& [stream, jf] : framers_) {
    jf->flush(net_->loop()->now());
    dropped_total += jf->frames_dropped();
  }
  if (dropped_total > jitter_drops_reported_) {
    const auto delta =
        static_cast<std::uint32_t>(dropped_total - jitter_drops_reported_);
    skips_since_report_ += delta;
    if (record_ != nullptr) record_->frames_skipped += delta;
  }
  jitter_drops_reported_ = 0;
  framers_.clear();

  auto req = sim::make_message<overlay::ViewRequest>();
  req->stream_id = requested_stream_;
  req->client_id = static_cast<overlay::ClientId>(node_id());
  req->layer_mask = mask_;  // the layer selection survives the migration
  filtered_credit_ = 0.0;
  net_->send(node_id(), consumer_, std::move(req));
}

void Viewer::on_message(NodeId from, const sim::MessagePtr& msg) {
  if (stopped_) return;
  if (const auto rtp = sim::msg_cast<const RtpPacket>(msg)) {
    // Only the current consumer's flow is valid: after a migration the
    // old consumer may still flush a few packets whose (rewritten)
    // sequence numbers would poison the fresh receive buffer.
    if (from == consumer_) receiver_->on_rtp(rtp);
    return;
  }
  if (const auto ack = sim::msg_cast<const overlay::ViewAck>(msg)) {
    // Acks only bind from the *current* consumer: after a migration the
    // old consumer's (possibly failing) ack for the torn-down view must
    // not kill the new view or strand its report timer.
    if (from != consumer_) return;
    if (!ack->ok && record_ != nullptr) {
      record_->view_failed = true;
      stopped_ = true;
      if (report_timer_ != sim::kInvalidEvent) {
        net_->loop()->cancel(report_timer_);
        report_timer_ = sim::kInvalidEvent;
      }
    }
    return;
  }
  if (const auto lmu = sim::msg_cast<const overlay::LayerMaskUpdate>(msg)) {
    // The consumer confirmed a committed mask (ours, or one it imposed
    // under last-mile pressure): this is exactly what it now filters,
    // so the skip expectation tracks it.
    if (from == consumer_ && lmu->stream_id != media::kNoStream) {
      mask_ = sanitize_mask(lmu->layer_mask);
    }
    return;
  }
  // NACK / CC feedback addressed to us never occur: the viewer only
  // receives; its LinkReceiver originates those messages itself.
}

void Viewer::assemble(const media::RtpPacketPtr& pkt) {
  auto it = framers_.find(pkt->stream_id());
  if (it == framers_.end()) {
    it = framers_
             .emplace(pkt->stream_id(),
                      std::make_unique<media::JitterFramer>(
                          [this](const Frame& f) { on_frame(f); }))
             .first;
  }
  const std::uint64_t completed_before = it->second->frames_completed();
  it->second->on_packet(*pkt, net_->loop()->now());
  const std::uint64_t completed = it->second->frames_completed();
  if (completed > completed_before) {
    telemetry::handles().jitter_frames_released->add(completed -
                                                     completed_before);
    // The packet that completed a frame marks the end of the traced
    // packet's journey: released from the client's jitter buffer.
    telemetry::record_hop(pkt->trace_id(), net_->loop()->now(),
                          pkt->stream_id(), pkt->producer_seq(), node_id(),
                          consumer_, telemetry::HopEvent::kJitterRelease);
  }
}

void Viewer::on_frame(const Frame& frame) {
  if (stopped_ || record_ == nullptr) return;
  if (frame.is_audio()) return;  // playback accounting is video-driven

  // SVC: latch the stream's lattice and accrue the filtered-frame
  // expectation — every delivered frame implies (1-keep)/keep frames
  // the committed mask excluded, which show up as frame-id gaps below
  // and must not be read as network damage. (The cap bounds drift
  // across mask flips.)
  if (frame.is_svc()) {
    svc_s_ = frame.spatial_layers;
    svc_t_ = frame.temporal_layers;
    const double keep = keep_fraction();
    if (keep > 0.0 && keep < 1.0) {
      filtered_credit_ =
          std::min(filtered_credit_ + (1.0 - keep) / keep, 64.0);
    }
  }

  // Whole frames that never arrived are invisible to the transport
  // (the consumer renumbers client-facing seqs); detect them from the
  // frame-id sequence instead.
  auto& last_id = last_frame_id_[frame.stream_id];
  if (last_id != 0 && frame.frame_id > last_id + 1) {
    auto missing = static_cast<std::uint32_t>(frame.frame_id - last_id - 1);
    // Spend the expectation credit first: gaps the mask explains are
    // intentional, not skips.
    const auto expected = static_cast<std::uint32_t>(filtered_credit_);
    const std::uint32_t voided = std::min(missing, expected);
    filtered_credit_ -= voided;
    missing -= voided;
    record_->frames_skipped += missing;
    skips_since_report_ += missing;
  }
  if (frame.frame_id > last_id) last_id = frame.frame_id;

  const Time now = net_->loop()->now();
  latest_capture_ = std::max(latest_capture_, frame.capture_time);

  if (!playing_) {
    // Buffer until the content span covers the playback buffer, then
    // join at (newest capture - buffer): everything older is
    // decode-only (it seeded the decoder from the cached I frame).
    prebuffer_.push_back(frame);
    const Time span_start = prebuffer_.front().capture_time;
    if (latest_capture_ - span_start < cfg_.playback_buffer) {
      return;  // keep buffering
    }
    playing_ = true;
    const Time join_target = latest_capture_ - cfg_.playback_buffer;
    const Time display = now + kDecodeDelay;
    bool first = true;
    for (const auto& f : prebuffer_) {
      if (f.capture_time < join_target) continue;  // decode-only
      if (first) {
        playout_offset_ = display - f.capture_time;
        record_->first_display = display;
        first = false;
      }
      // Buffered frames after the join point display at their deadline.
      const Time d = f.capture_time + playout_offset_;
      record_->streaming_delay_ms.add(to_ms(d - f.capture_time));
      if (delay_probe_) delay_probe_(to_ms(d - f.capture_time));
      if (f.is_keyframe() || f.frame_id == prebuffer_.front().frame_id) {
        record_->header_ext_delay_ms.add(
            to_ms(f.delay_ext_us + (d > now ? d - now : 0) +
                  kDecodeDelay));
      }
      ++record_->frames_displayed;
      record_->bytes_displayed += f.size_bytes;
    }
    prebuffer_.clear();
    return;
  }

  // Catch-up toward live: if this frame's pipeline delay shows we are
  // holding more than the target buffer, advance the playout point a
  // little (fast playback), like real live-streaming players do after
  // joining from an old cached GoP.
  const Duration pipeline = now - frame.capture_time;
  // Track a slowly-decaying peak of the pipeline delay: large frames
  // (I frames) ride several pacers and arrive much later than P frames,
  // and the playout point must respect the peak, not the typical frame.
  if (last_capture_seen_ != kNever) {
    const Duration gap = frame.capture_time - last_capture_seen_;
    pipeline_peak_ = std::max<Duration>(pipeline, pipeline_peak_ - gap / 16);
  } else {
    pipeline_peak_ = pipeline;
  }
  const Duration target_offset = pipeline_peak_ + cfg_.playback_buffer +
                                 kCatchupHeadroom + kDecodeDelay;
  const Duration effective = playout_offset_ + stall_shift_;
  if (effective > target_offset + 50 * kMs && last_capture_seen_ != kNever) {
    const Duration frame_gap = frame.capture_time - last_capture_seen_;
    if (frame_gap > 0) {
      const auto step = static_cast<Duration>(
          kCatchupRate * static_cast<double>(frame_gap));
      playout_offset_ -= std::min(step, effective - target_offset);
    }
  }
  last_capture_seen_ = frame.capture_time;

  const Time deadline = frame.capture_time + playout_offset_ + stall_shift_;
  Time display = deadline;
  if (now > deadline) {
    // The playing buffer went vacant: a stall. Consecutive late frames
    // belong to the same stall event; every late frame shifts the
    // playout point by its lateness.
    const Duration lateness = now - deadline;
    if (!in_stall_) {
      ++record_->stalls;
      ++stalls_since_report_;
      in_stall_ = true;
    }
    record_->total_stall_time += lateness;
    stall_shift_ += lateness;
    display = now;
  } else {
    in_stall_ = false;
  }
  last_display_time_ = display;
  record_->streaming_delay_ms.add(to_ms(display - frame.capture_time));
  if (delay_probe_) delay_probe_(to_ms(display - frame.capture_time));
  if (frame.is_keyframe()) {
    // The delay header extension is carried in the first packet of each
    // I frame (§6.1); the client adds buffering and decode time.
    const Duration buffer_wait = display > now ? display - now : 0;
    record_->header_ext_delay_ms.add(
        to_ms(frame.delay_ext_us + buffer_wait + kDecodeDelay));
  }
  ++record_->frames_displayed;
  record_->bytes_displayed += frame.size_bytes;
}

void Viewer::send_quality_report() {
  report_timer_ = sim::kInvalidEvent;
  if (stopped_) return;
  // Let stalled jitter-buffer heads expire even when no packet arrives,
  // and fold assembly drops into the skip signal (they are frames the
  // network failed to deliver in time).
  std::uint64_t dropped_total = 0;
  for (auto& [stream, jf] : framers_) {
    jf->flush(net_->loop()->now());
    dropped_total += jf->frames_dropped();
  }
  if (dropped_total > jitter_drops_reported_) {
    const auto delta =
        static_cast<std::uint32_t>(dropped_total - jitter_drops_reported_);
    skips_since_report_ += delta;
    if (record_ != nullptr) record_->frames_skipped += delta;
    jitter_drops_reported_ = dropped_total;
  }
  // Dead air: the stream stopped entirely — no frame arrives, so the
  // late-frame stall detector never fires. The vacant playing buffer
  // still counts as a stall (one per report window while starved).
  const Time now = net_->loop()->now();
  if (playing_ && last_display_time_ != kNever &&
      now - last_display_time_ > 700 * kMs) {
    ++record_->stalls;
    ++record_->dead_air_stalls;
    ++stalls_since_report_;
    in_stall_ = true;
  }
  auto rep = sim::make_message<overlay::ClientQualityReport>();
  rep->stream_id = requested_stream_;
  rep->client_id = static_cast<overlay::ClientId>(node_id());
  rep->stalls_since_last = stalls_since_report_;
  rep->skips_since_last = skips_since_report_;
  rep->avg_delay_us = static_cast<Duration>(
      record_ != nullptr ? record_->streaming_delay_ms.mean() * kMs : 0);
  maybe_adapt_layers(stalls_since_report_, skips_since_report_);
  stalls_since_report_ = 0;
  skips_since_report_ = 0;
  net_->send(node_id(), consumer_, std::move(rep));
  ++reports_sent_;
  report_timer_ = net_->loop()->schedule_after(
      kQualityReportInterval, [this] { send_quality_report(); });
}

void Viewer::maybe_adapt_layers(std::uint32_t stalls, std::uint32_t skips) {
  if (svc_s_ <= 1 && svc_t_ <= 1) return;
  const LayerMask lattice = media::lattice_mask(svc_s_, svc_t_);
  const LayerMask base = media::layer_bit(0, 0);

  // A quality flip is a mask flip (§5.2 delegated selection, SVC form):
  // trouble sheds the highest enhancement layer; sustained clean
  // windows ask the lowest missing layer back. The consumer commits
  // (widens only at a decodable anchor) and confirms with its own
  // LayerMaskUpdate — mask_ changes there, never here.
  if (stalls > 0 || skips >= 4) {
    clean_windows_ = 0;
    const LayerMask candidates =
        static_cast<LayerMask>(mask_ & lattice & ~base);
    if (candidates == 0) return;  // base-only; worse goes to the ladder
    int hi = 15;
    while (((candidates >> hi) & 1u) == 0) --hi;
    request_mask(static_cast<LayerMask>(
        ((mask_ & lattice) & ~(LayerMask{1} << hi)) | base));
    return;
  }
  if (stalls == 0 && skips == 0) {
    if (++clean_windows_ >= kSvcUpswitchWindows) {
      clean_windows_ = 0;
      const LayerMask have = static_cast<LayerMask>(mask_ & lattice);
      const LayerMask missing = static_cast<LayerMask>(lattice & ~have);
      if (missing != 0) {
        const auto lowest =
            static_cast<LayerMask>(missing & (~missing + 1u));
        request_mask(static_cast<LayerMask>(have | lowest));
      }
    }
  } else {
    clean_windows_ = 0;
  }
}

void Viewer::request_mask(LayerMask mask) {
  auto upd = sim::make_message<overlay::LayerMaskUpdate>();
  upd->stream_id = requested_stream_;
  upd->layer_mask = sanitize_mask(mask);
  net_->send(node_id(), consumer_, std::move(upd));
  ++mask_flips_requested_;
}

double Viewer::keep_fraction() const {
  if (svc_s_ <= 1 && svc_t_ <= 1) return 1.0;
  const LayerMask lattice = media::lattice_mask(svc_s_, svc_t_);
  const LayerMask kept_mask = static_cast<LayerMask>(mask_ & lattice);
  int total = 0;
  int kept = 0;
  for (std::uint8_t s = 0; s < svc_s_; ++s) {
    for (std::uint8_t t = 0; t < svc_t_; ++t) {
      const int w = t == 0 ? 1 : (1 << (t - 1));
      total += w;
      if ((kept_mask & media::layer_bit(s, t)) != 0) kept += w;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(kept) / total;
}

}  // namespace livenet::client
