#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "client/records.h"
#include "media/jitter_framer.h"
#include "overlay/link_receiver.h"
#include "overlay/messages.h"
#include "sim/network.h"
#include "sim/sim_node.h"

// A viewer client. Deliberately thin (§7.2, "Thin Clients"): it sends a
// view request, recovers last-mile losses via NACK toward its consumer
// node, reports quality periodically, and plays back whatever stream
// the consumer forwards (the consumer handles bitrate selection and
// co-stream switching on the client's behalf).
//
// Playback model: the client joins at (newest capture - playback
// buffer). Earlier burst frames are decode-only (they seed the decoder
// from the cached I frame). Each later frame has a playout deadline at
// capture + playout offset; a frame missing its deadline stalls
// playback and shifts all later deadlines — matching how the paper
// counts stalls (vacant playing buffer) and streaming delay
// (capture-to-display).
namespace livenet::client {

struct ViewerConfig {
  Duration playback_buffer = 300 * kMs;  ///< Taobao Live's client buffer
  /// Initial SVC layer mask requested with the view (kAllLayers = take
  /// everything; meaningful only for SVC streams).
  media::LayerMask initial_layer_mask = media::kAllLayers;
};

class Viewer final : public sim::SimNode {
 public:
  Viewer(sim::Network* net, ClientMetrics* metrics)
      : Viewer(net, metrics, ViewerConfig()) {}
  Viewer(sim::Network* net, ClientMetrics* metrics, const ViewerConfig& cfg);
  ~Viewer() override;

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Starts a view through `consumer`. `fallback_versions`: lower
  /// simulcast bitrates of the same broadcast, best first.
  void start_view(sim::NodeId consumer, media::StreamId stream,
                  std::vector<media::StreamId> fallback_versions = {});

  /// Ends the view (sends ViewStop and finalizes the QoE record).
  void stop_view();

  /// Mobility (§7.1): resubscribes through a new consumer node while
  /// keeping playback state — the playback buffer bridges the switch.
  void migrate(sim::NodeId new_consumer);

  bool viewing() const { return record_ != nullptr && !stopped_; }
  const QoeRecord* record() const { return record_; }
  const overlay::LinkReceiver* receiver() const { return receiver_.get(); }
  /// Quality reports sent over this viewer's lifetime (all views).
  std::uint64_t reports_sent() const { return reports_sent_; }
  /// Committed SVC mask, as last confirmed by the consumer.
  media::LayerMask layer_mask() const { return mask_; }
  /// LayerMaskUpdate requests this viewer originated (tests/repro).
  std::uint64_t mask_flips_requested() const { return mask_flips_requested_; }

  /// Observation hook: called with every displayed frame's streaming
  /// delay (ms), exactly the values fed to the QoE record. A cohort
  /// (see viewer_cohort.h) uses it to build its weighted delay
  /// histogram; playback behaviour is unaffected.
  void set_delay_probe(std::function<void(double)> probe) {
    delay_probe_ = std::move(probe);
  }

 private:
  static constexpr Duration kDecodeDelay = 30 * kMs;
  static constexpr Duration kQualityReportInterval = 1 * kSec;
  /// Catch-up: when the buffer holds more than playback_buffer +
  /// kCatchupHeadroom behind live (after joining from an old cached
  /// GoP), playback runs slightly fast until it is back within that
  /// band. 0.25 means 1.25x playback speed. The headroom keeps routine
  /// loss-recovery spikes inside the buffer.
  static constexpr double kCatchupRate = 0.25;
  static constexpr Duration kCatchupHeadroom = 120 * kMs;
  /// Consecutive clean report windows before requesting a layer back.
  static constexpr int kSvcUpswitchWindows = 3;

  void assemble(const media::RtpPacketPtr& pkt);
  void on_frame(const media::Frame& frame);
  void send_quality_report();
  /// SVC: request a narrower/wider mask from the consumer based on this
  /// report window's stall/skip signal.
  void maybe_adapt_layers(std::uint32_t stalls, std::uint32_t skips);
  void request_mask(media::LayerMask mask);
  /// Fraction of the stream's frames the committed mask keeps, using
  /// the dyadic temporal weights (t=0 -> 1, t>0 -> 2^(t-1) per column).
  double keep_fraction() const;

  sim::Network* net_;
  ClientMetrics* metrics_;
  ViewerConfig cfg_;
  sim::NodeId consumer_ = sim::kNoNode;
  media::StreamId requested_stream_ = media::kNoStream;
  QoeRecord* record_ = nullptr;
  bool stopped_ = true;

  std::unique_ptr<overlay::LinkReceiver> receiver_;
  std::unordered_map<media::StreamId, std::unique_ptr<media::JitterFramer>>
      framers_;
  std::unordered_map<media::StreamId, std::uint64_t> last_frame_id_;

  // Playback state.
  bool playing_ = false;
  Time latest_capture_ = kNever;
  Time last_capture_seen_ = kNever;  ///< for catch-up pacing
  Duration pipeline_peak_ = 0;       ///< decaying max of capture->arrival
  Time last_display_time_ = kNever;  ///< dead-air (starvation) detection
  std::deque<media::Frame> prebuffer_;  ///< video frames before playback
  Duration playout_offset_ = 0;  ///< display = capture + offset (+ shifts)
  Duration stall_shift_ = 0;
  bool in_stall_ = false;
  std::uint32_t stalls_since_report_ = 0;
  std::uint32_t skips_since_report_ = 0;
  std::uint64_t jitter_drops_reported_ = 0;
  std::uint64_t reports_sent_ = 0;
  sim::EventId report_timer_ = sim::kInvalidEvent;
  std::function<void(double)> delay_probe_;

  // SVC state: the committed mask (confirmed by the consumer), the
  // stream's observed lattice, and the filtered-frame expectation
  // credit — frames the mask excludes appear as frame-id gaps, and the
  // credit keeps them out of the skip (damage) signal.
  media::LayerMask mask_ = media::kAllLayers;
  std::uint8_t svc_s_ = 1;
  std::uint8_t svc_t_ = 1;
  double filtered_credit_ = 0.0;
  int clean_windows_ = 0;
  std::uint64_t mask_flips_requested_ = 0;
};

}  // namespace livenet::client
