#pragma once

#include <map>
#include <memory>
#include <vector>

#include "client/broadcaster.h"
#include "client/records.h"
#include "client/viewer.h"
#include "livenet/system.h"
#include "sim/fault_injector.h"
#include "workload/patterns.h"

// Scenario runner: drives a synthetic Taobao-Live-like workload against
// a CdnSystem (LiveNet or Hier) and collects every measurement the
// paper's evaluation uses. Time is compressed: `day_length` virtual
// time represents 24 "hours" so multi-day experiments finish in
// minutes; all mechanisms (routing cycles, reports, NACK timers) run at
// their configured timescales within that compressed clock.
namespace livenet {

struct ScenarioConfig {
  Duration duration = 4 * kMin;      ///< total virtual run time
  Duration day_length = 2 * kMin;    ///< one compressed "day"
  Duration warmup = 5 * kSec;        ///< excluded from arrivals ramp only

  // Broadcasts.
  int broadcasts = 16;               ///< concurrent broadcasts
  int simulcast_versions = 2;        ///< bitrate ladder depth
  double top_bitrate_bps = 1.5e6;
  double fps = 25.0;
  std::size_t gop_frames = 50;       ///< 2 s GoPs

  // SVC layered encoding (DESIGN.md "SVC layered forwarding"). 1x1 =
  // off: plain simulcast, bit-identical to the pre-SVC world. When on,
  // the *top* ladder version carries the SxT lattice (L1T3 = 1x3,
  // L3T3 = 3x3); quality adaptation becomes a per-viewer layer-mask
  // flip, with the lower simulcast versions kept as the fallback.
  std::uint8_t svc_spatial_layers = 1;
  std::uint8_t svc_temporal_layers = 1;
  /// Initial SVC layer mask viewers request (0xFFFF = everything).
  media::LayerMask viewer_layer_mask = media::kAllLayers;

  // Viewers.
  double viewer_rate_peak = 3.0;     ///< arrivals/sec at diurnal peak
  double zipf_s = 1.1;
  Duration mean_view_time = 30 * kSec;

  // Diurnal loss model: cdn link loss = base x (1 + (scale-1) x level).
  double peak_loss_scale = 3.5;

  // Flash-crowd windows (Double 12).
  std::vector<workload::FlashWindow> flash;

  // Capacity up-scaling applied during flash windows (§6.5).
  double flash_capacity_factor = 1.0;

  // Chaos: faults injected into the running system (empty = none). The
  // schedule is a pure function of the plan's seed, independent of the
  // workload seed below.
  sim::FaultPlan faults;

  // Telemetry: fraction of broadcaster packets stamped with a per-hop
  // trace_id (0 = tracing off). Observation-only — the golden
  // bit-reproducibility test runs with this at 1.0 to prove it.
  double trace_sample = 0.0;

  std::uint64_t seed = 7;
};

/// Periodic sample of system-wide counters (one per compressed "hour").
struct TimelineSample {
  Time t = 0;
  double hour = 0.0;          ///< hour-of-day in compressed time
  int day = 0;
  std::uint64_t bytes_delta = 0;       ///< CDN bytes sent this sample
  double measured_loss = 0.0;          ///< lost+dropped / sent, CDN links
  double arrival_rate = 0.0;           ///< configured viewer arrival rate
  std::size_t concurrent_viewers = 0;
};

struct ScenarioResult {
  overlay::OverlayMetrics overlay;   ///< consumer-node session logs
  client::ClientMetrics clients;     ///< viewer QoE logs
  brain::BrainMetrics brain;         ///< path-request logs (LiveNet only)
  std::vector<TimelineSample> timeline;
  std::vector<sim::FaultRecord> faults;  ///< injected chaos + recovery times
  Duration day_length = 0;
  std::uint64_t total_viewers = 0;
  std::map<media::StreamId, int> stream_country;  ///< producer country
  std::map<sim::NodeId, int> node_country;        ///< CDN node country

  double hour_of(Time t) const {
    return static_cast<double>(t % day_length) /
           static_cast<double>(day_length) * 24.0;
  }
  int day_of(Time t) const { return static_cast<int>(t / day_length); }
};

class ScenarioRunner {
 public:
  ScenarioRunner(CdnSystem& system, const ScenarioConfig& cfg);

  /// Runs to completion and returns the collected measurements.
  ScenarioResult run();

  /// Streams of the b-th broadcast (populated by run()).
  const std::vector<media::StreamId>& broadcast_streams(int b) const {
    return broadcast_streams_[static_cast<std::size_t>(b)];
  }

 private:
  struct ActiveView {
    std::unique_ptr<client::Viewer> viewer;
    Time stop_at = 0;
  };

  void start_broadcasters();
  void schedule_next_arrival();
  void spawn_viewer();
  void sample_timeline();

  CdnSystem& system_;
  ScenarioConfig cfg_;
  Rng rng_;
  client::ClientMetrics client_metrics_;
  workload::DemandModel demand_;
  workload::ZipfSampler zipf_;
  std::vector<std::unique_ptr<client::Broadcaster>> broadcasters_;
  std::vector<workload::GeoSite> broadcaster_sites_;
  std::vector<std::vector<media::StreamId>> broadcast_streams_;
  std::vector<ActiveView> views_;
  std::vector<TimelineSample> timeline_;
  std::uint64_t prev_bytes_ = 0;
  std::uint64_t prev_sent_pkts_ = 0;
  std::uint64_t prev_lost_pkts_ = 0;
  std::uint64_t total_viewers_ = 0;
  media::StreamId next_stream_id_ = 1;
  bool flash_scaled_ = false;
};

}  // namespace livenet
