#include "livenet/scenario.h"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace livenet {

using sim::NodeId;
using workload::GeoSite;

namespace {

constexpr double kLadderStep = 0.5;  ///< each version = step x previous
constexpr double kIFrameWeight = 5.0;  ///< I size relative to P
constexpr double kDiurnalTrough = 0.25;
constexpr double kViewTimeSigma = 0.6;  ///< lognormal sigma
constexpr double kIntlFraction = 0.12;  ///< viewer in another country
/// Viewers cluster near popular broadcasters' country.
constexpr double kColocatePopularBias = 0.65;

}  // namespace

ScenarioRunner::ScenarioRunner(CdnSystem& system, const ScenarioConfig& cfg)
    : system_(system), cfg_(cfg), rng_(cfg.seed),
      demand_(cfg.viewer_rate_peak,
              workload::DiurnalCurve(kDiurnalTrough, 1.0),
              cfg.day_length),
      zipf_(static_cast<std::size_t>(std::max(1, cfg.broadcasts)),
            cfg.zipf_s) {
  for (const auto& w : cfg_.flash) demand_.add_flash(w);
}

void ScenarioRunner::start_broadcasters() {
  auto& loop = system_.loop();
  for (int b = 0; b < cfg_.broadcasts; ++b) {
    // Simulcast ladder configuration.
    client::BroadcasterConfig bc;
    bc.encode_delay = 60 * kMs;
    bc.trace_sample = cfg_.trace_sample;
    double rate = cfg_.top_bitrate_bps;
    for (int v = 0; v < cfg_.simulcast_versions; ++v) {
      media::VideoSourceConfig vc;
      vc.fps = cfg_.fps;
      vc.gop_frames = cfg_.gop_frames;
      vc.bitrate_bps = rate;
      vc.i_frame_weight = kIFrameWeight;
      if (v == 0) {
        // Only the top version carries the SVC lattice; the lower
        // simulcast rungs stay plain (they are the fallback ladder).
        vc.svc_spatial_layers = cfg_.svc_spatial_layers;
        vc.svc_temporal_layers = cfg_.svc_temporal_layers;
      }
      bc.versions.push_back(vc);
      rate *= kLadderStep;
    }

    auto bcast = std::make_unique<client::Broadcaster>(
        &system_.network(), cfg_.seed * 1000 + static_cast<std::uint64_t>(b),
        bc);
    const GeoSite site = system_.geo().sample_site();
    broadcaster_sites_.push_back(site);
    const NodeId producer = system_.attach_client(bcast.get(), site);

    std::vector<media::StreamId> streams;
    for (int v = 0; v < cfg_.simulcast_versions; ++v) {
      streams.push_back(next_stream_id_++);
    }
    broadcast_streams_.push_back(streams);

    // Stagger starts across the first seconds so keyframes interleave.
    const Duration start_at =
        static_cast<Duration>(rng_.uniform(0.0, to_sec(cfg_.warmup)) *
                              static_cast<double>(kSec));
    client::Broadcaster* raw = bcast.get();
    loop.schedule_after(start_at, [raw, producer, streams] {
      raw->start(producer, streams);
    });
    broadcasters_.push_back(std::move(bcast));
    (void)producer;
  }
}

void ScenarioRunner::spawn_viewer() {
  const std::size_t b = zipf_.sample(rng_);
  const auto& streams = broadcast_streams_[b];
  if (streams.empty()) return;

  // Viewer location: usually the broadcaster's country (regional
  // audiences), sometimes international.
  GeoSite site;
  const GeoSite& bsite = broadcaster_sites_[b];
  if (rng_.chance(kIntlFraction)) {
    int other = bsite.country;
    if (system_.geo().countries() > 1) {
      while (other == bsite.country) {
        other = static_cast<int>(
            rng_.index(static_cast<std::size_t>(system_.geo().countries())));
      }
    }
    site = system_.geo().sample_site(other);
  } else if (rng_.chance(kColocatePopularBias)) {
    site = system_.geo().sample_site(bsite.country);
  } else {
    site = system_.geo().sample_site();
  }

  client::ViewerConfig vcfg;
  vcfg.initial_layer_mask = cfg_.viewer_layer_mask;
  auto viewer = std::make_unique<client::Viewer>(&system_.network(),
                                                 &client_metrics_, vcfg);
  const NodeId consumer = system_.attach_client(viewer.get(), site);

  std::vector<media::StreamId> fallback(streams.begin() + 1, streams.end());
  viewer->start_view(consumer, streams.front(), std::move(fallback));
  ++total_viewers_;

  const double view_secs = rng_.lognormal(
      std::log(to_sec(cfg_.mean_view_time)) -
          0.5 * kViewTimeSigma * kViewTimeSigma,
      kViewTimeSigma);
  const Time stop_at =
      system_.loop().now() +
      static_cast<Duration>(std::max(2.0, view_secs) *
                            static_cast<double>(kSec));
  client::Viewer* raw = viewer.get();
  system_.loop().schedule_at(stop_at, [raw] { raw->stop_view(); });
  views_.push_back(ActiveView{std::move(viewer), stop_at});
}

void ScenarioRunner::schedule_next_arrival() {
  const Time now = system_.loop().now();
  const double rate = std::max(0.01, demand_.rate_at(now));
  const Duration gap = static_cast<Duration>(
      rng_.exponential(1.0 / rate) * static_cast<double>(kSec));
  const Time next = now + std::max<Duration>(gap, 1 * kMs);
  if (next >= cfg_.duration) return;
  system_.loop().schedule_at(next, [this] {
    spawn_viewer();
    schedule_next_arrival();
  });
}

void ScenarioRunner::sample_timeline() {
  const Time now = system_.loop().now();

  // Diurnal loss scaling + flash capacity handling.
  const double level = (demand_.rate_at(now) / cfg_.viewer_rate_peak);
  system_.set_loss_scale(1.0 + (cfg_.peak_loss_scale - 1.0) *
                                   std::min(1.0, level));
  bool in_flash = false;
  for (const auto& w : cfg_.flash) {
    if (w.contains(now)) in_flash = true;
  }
  if (in_flash && !flash_scaled_ && cfg_.flash_capacity_factor != 1.0) {
    system_.scale_capacity(cfg_.flash_capacity_factor);
    flash_scaled_ = true;
  } else if (!in_flash && flash_scaled_) {
    system_.scale_capacity(1.0 / cfg_.flash_capacity_factor);
    flash_scaled_ = false;
  }

  // Counters.
  std::uint64_t sent = 0, lost = 0, bytes = 0;
  for (const sim::Link* l : system_.cdn_links()) {
    sent += l->stats().packets_sent;
    lost += l->stats().packets_lost + l->stats().packets_dropped;
    bytes += l->stats().bytes_sent;
  }
  TimelineSample s;
  s.t = now;
  s.hour = demand_.hour_of(now);
  s.day = static_cast<int>(now / cfg_.day_length);
  s.bytes_delta = bytes - prev_bytes_;
  const std::uint64_t dsent = sent - prev_sent_pkts_;
  const std::uint64_t dlost = lost - prev_lost_pkts_;
  s.measured_loss =
      dsent > 0 ? static_cast<double>(dlost) / static_cast<double>(dsent)
                : 0.0;
  s.arrival_rate = demand_.rate_at(now);
  std::size_t active = 0;
  for (const auto& v : views_) {
    if (v.stop_at > now) ++active;
  }
  s.concurrent_viewers = active;
  telemetry::handles().concurrent_viewers->set(static_cast<double>(active));
  telemetry::handles().peak_pending_events->set_max(
      static_cast<double>(system_.loop().peak_pending()));
  timeline_.push_back(s);
  prev_bytes_ = bytes;
  prev_sent_pkts_ = sent;
  prev_lost_pkts_ = lost;

  const Duration sample_every = cfg_.day_length / 24;
  if (now + sample_every <= cfg_.duration) {
    system_.loop().schedule_after(sample_every,
                                  [this] { sample_timeline(); });
  }
}

ScenarioResult ScenarioRunner::run() {
  system_.build_once();
  system_.start();

  std::unique_ptr<sim::FaultInjector> injector;
  if (cfg_.faults.enabled()) {
    injector = std::make_unique<sim::FaultInjector>(&system_.network());
    injector->set_node_handlers(
        [this](sim::NodeId n) { system_.crash_node(n); },
        [this](sim::NodeId n) { system_.restart_node(n); });
    std::vector<std::pair<sim::NodeId, sim::NodeId>> links;
    links.reserve(system_.cdn_links().size());
    for (const sim::Link* l : system_.cdn_links()) {
      links.emplace_back(l->src(), l->dst());
    }
    injector->load_plan(cfg_.faults, cfg_.duration, links,
                        system_.crashable_nodes(), system_.control_node());
  }

  start_broadcasters();
  schedule_next_arrival();
  system_.loop().schedule_after(cfg_.day_length / 24,
                                [this] { sample_timeline(); });

  system_.loop().run_until(cfg_.duration);

  // Graceful teardown: stop everything, drain in-flight work.
  for (auto& v : views_) v.viewer->stop_view();
  for (auto& b : broadcasters_) b->stop();
  system_.loop().run_until(cfg_.duration + 2 * kSec);

  ScenarioResult result;
  result.overlay = system_.sessions();
  result.clients = client_metrics_;
  if (auto* ln = dynamic_cast<LiveNetSystem*>(&system_)) {
    result.brain = ln->brain().metrics();
  }
  result.timeline = std::move(timeline_);
  if (injector) result.faults = injector->records();
  result.day_length = cfg_.day_length;
  result.total_viewers = total_viewers_;
  for (std::size_t b = 0; b < broadcast_streams_.size(); ++b) {
    for (const media::StreamId s : broadcast_streams_[b]) {
      result.stream_country[s] = broadcaster_sites_[b].country;
    }
  }
  for (const sim::NodeId n : system_.edge_nodes()) {
    result.node_country[n] = system_.country_of_node(n);
  }
  return result;
}

}  // namespace livenet
