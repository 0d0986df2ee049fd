#pragma once

#include <string>

#include "livenet/scenario.h"
#include "livenet/system.h"

// Calibrated default configurations used by the examples and the
// reproduction benchmarks. Time is compressed (one "day" of the paper's
// evaluation = `day_length` of virtual time); geography is scaled so
// the *shapes* of the paper's results hold (see EXPERIMENTS.md for the
// paper-vs-measured comparison).
namespace livenet {

/// The shared CDN footprint: both LiveNet and Hier are built from this
/// (same geographic sites, same link pool — the paper's methodology).
inline SystemConfig paper_system_config(std::uint64_t seed = 42) {
  SystemConfig cfg;
  cfg.countries = 6;
  cfg.nodes_per_country = 6;
  cfg.last_resort_nodes = 2;

  cfg.geo.countries = cfg.countries;
  cfg.geo.country_spread = 80.0;  // inter-national one-way scale
  cfg.geo.country_radius = 50.0;  // intra-national one-way scale

  cfg.base_loss_rate = 0.0004;  // scaled diurnally up to ~0.17% at peak
  cfg.access_bandwidth_bps = 20e6;
  cfg.access_extra_delay = 90 * kMs;  // first/last-mile tail latency

  // Compressed control timescales (a "day" is minutes of virtual time):
  // routing every 30 s of virtual time stands in for the 10-minute
  // production cycle; reports every 10 s for the 1-minute cycle.
  cfg.brain.routing_interval = 30 * kSec;
  // Stream-count capacity: scaled to the compressed workload so that
  // the hottest relays brush the 80% overload target at peak hours
  // (the source of overload alarms and last-resort paths).
  cfg.overlay_node.max_streams = 12;
  cfg.brain.push_top_n = 3;
  cfg.overlay_node.report_interval = 10 * kSec;
  cfg.overlay_node.overload_check_interval = 2 * kSec;

  // Warm caches: production CDNs keep recently-viewed streams resident
  // well past the last viewer (hierarchical caching, §2.2).
  cfg.overlay_node.unsubscribe_linger = 25 * kSec;
  cfg.hier_l1.unsubscribe_linger = 25 * kSec;
  cfg.hier_l2.unsubscribe_linger = 25 * kSec;

  // Hier client-facing senders open with a fast startup burst window
  // (the cached-GoP burst rides it before GCC feedback settles in).
  cfg.hier_l1.client_sender.gcc.start_rate_bps = 16e6;

  cfg.hier_l1.full_stack_delay = 15 * kMs;
  cfg.hier_l2.full_stack_delay = 15 * kMs;
  cfg.hier_center.full_stack_delay = 15 * kMs;
  cfg.hier_center.center_extra_delay = 12 * kMs;
  // RTMP-over-TCP between Hier nodes: transfers run at link speed, not
  // media-paced; model by flooring the inter-node pacing rate.
  for (auto* h : {&cfg.hier_l1, &cfg.hier_l2, &cfg.hier_center}) {
    h->sender.gcc.min_rate_bps = 40e6;
    h->sender.gcc.start_rate_bps = 40e6;
  }

  cfg.seed = seed;
  return cfg;
}

/// Applies an SVC mode name to a scenario: "off" (default — plain
/// simulcast, bit-identical to the pre-SVC world), "L1T3" (1 spatial x
/// 3 temporal layers) or "L3T3" (3 x 3). Returns false on an unknown
/// name. The lattice rides the top simulcast version; the rest of the
/// ladder stays plain as the fallback.
inline bool apply_svc_mode(ScenarioConfig& cfg, const std::string& mode) {
  if (mode == "off") {
    cfg.svc_spatial_layers = 1;
    cfg.svc_temporal_layers = 1;
  } else if (mode == "L1T3") {
    cfg.svc_spatial_layers = 1;
    cfg.svc_temporal_layers = 3;
  } else if (mode == "L3T3") {
    cfg.svc_spatial_layers = 3;
    cfg.svc_temporal_layers = 3;
  } else {
    return false;
  }
  return true;
}

/// The Taobao-Live-like workload driving most experiments.
inline ScenarioConfig paper_scenario_config(std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.day_length = 60 * kSec;    // one compressed "day"
  cfg.duration = 3 * cfg.day_length;
  cfg.broadcasts = 16;
  cfg.simulcast_versions = 2;
  cfg.top_bitrate_bps = 1.2e6;
  cfg.fps = 25;
  cfg.gop_frames = 50;           // 2-second GoPs
  cfg.viewer_rate_peak = 3.5;
  cfg.zipf_s = 1.3;
  cfg.mean_view_time = 30 * kSec;
  cfg.peak_loss_scale = 4.0;
  cfg.seed = seed;
  return cfg;
}

}  // namespace livenet
