#include "media/video_source.h"

#include <algorithm>
#include <cmath>

namespace livenet::media {

VideoSource::VideoSource(StreamId stream_id, const VideoSourceConfig& cfg,
                         Rng rng)
    : stream_id_(stream_id), cfg_(cfg), rng_(rng) {}

double VideoSource::mean_frame_size(FrameType t) const {
  // Distribute the per-GoP byte budget across frames by weight.
  const double gop_seconds =
      static_cast<double>(cfg_.gop_frames) / cfg_.fps;
  const double gop_bytes = cfg_.bitrate_bps * gop_seconds / 8.0;

  // Count frames of each type in one GoP under the configured pattern.
  double n_i = 1.0;
  double n_total_non_i = static_cast<double>(cfg_.gop_frames) - 1.0;
  double n_b = 0.0, n_p = n_total_non_i;
  if (cfg_.b_per_p > 0) {
    const double group = 1.0 + static_cast<double>(cfg_.b_per_p);
    n_p = std::floor(n_total_non_i / group);
    n_b = n_total_non_i - n_p;
  }
  const double total_weight =
      n_i * cfg_.i_frame_weight + n_p * 1.0 + n_b * kBFrameWeight;
  const double unit = gop_bytes / total_weight;
  switch (t) {
    case FrameType::kI: return unit * cfg_.i_frame_weight;
    case FrameType::kP: return unit;
    case FrameType::kB: return unit * kBFrameWeight;
    case FrameType::kAudio: return 0.0;
  }
  return 0.0;
}

FrameType VideoSource::next_type() {
  if (pos_in_gop_ == 0) return FrameType::kI;
  if (b_run_ > 0) {
    --b_run_;
    return FrameType::kB;
  }
  if (cfg_.b_per_p > 0) b_run_ = cfg_.b_per_p;
  return FrameType::kP;
}

std::uint8_t VideoSource::temporal_layer_of(std::size_t pos_in_gop) const {
  const std::uint8_t t_layers = cfg_.svc_temporal_layers;
  if (t_layers <= 1) return 0;
  // Dyadic hierarchy: period 2^(T-1); picture 0 of each period is the
  // base, and the layer falls by one per trailing zero of the offset
  // (T=3: 0 2 1 2 | 0 2 1 2 | ...).
  const std::size_t period = static_cast<std::size_t>(1)
                             << (std::min<std::uint8_t>(t_layers,
                                                        kMaxTemporalLayers) -
                                 1);
  std::size_t m = pos_in_gop % period;
  if (m == 0) return 0;
  std::uint8_t tz = 0;
  while ((m & 1) == 0) {
    m >>= 1;
    ++tz;
  }
  return static_cast<std::uint8_t>(t_layers - 1 - tz);
}

Frame VideoSource::next_frame(Time now) {
  const std::size_t pos = pos_in_gop_;
  const FrameType type = next_type();
  Frame f;
  f.stream_id = stream_id_;
  f.frame_id = next_frame_id_++;
  f.type = type;
  f.referenced = (type != FrameType::kB);
  f.capture_time = now;
  if (type == FrameType::kI) {
    ++gop_id_;
  }
  f.gop_id = gop_id_;
  if (cfg_.svc_spatial_layers > 1 || cfg_.svc_temporal_layers > 1) {
    f.spatial_layers =
        std::min<std::uint8_t>(cfg_.svc_spatial_layers, kMaxSpatialLayers);
    f.temporal_layers =
        std::min<std::uint8_t>(cfg_.svc_temporal_layers, kMaxTemporalLayers);
    f.layer.temporal = temporal_layer_of(pos);
    f.discardable = !f.referenced ||
                    (f.temporal_layers > 1 &&
                     f.layer.temporal + 1 == f.temporal_layers);
  }

  const double mean = mean_frame_size(type);
  // Lognormal multiplicative jitter with mean 1.
  const double sigma = cfg_.size_jitter_sigma;
  const double mult =
      sigma > 0.0 ? rng_.lognormal(-0.5 * sigma * sigma, sigma) : 1.0;
  f.size_bytes = static_cast<std::size_t>(std::max(64.0, mean * mult));

  ++pos_in_gop_;
  if (pos_in_gop_ >= cfg_.gop_frames) {
    pos_in_gop_ = 0;
    b_run_ = 0;
  }
  return f;
}

std::vector<Frame> VideoSource::next_picture(Time now) {
  std::vector<Frame> out;
  const Frame base = next_frame(now);
  out.reserve(base.spatial_layers);
  out.push_back(base);
  // Spatial enhancements: deterministic scale of the base draw (no
  // extra RNG), so a 1-wide lattice stays bit-identical to the legacy
  // stream. The key picture's base frame is the only kI — GoP caching
  // and keyframe gating key on the base layer; enhancements of the key
  // picture are intra-refreshed but ride as kP with the same gop_id.
  double scale = 1.0;
  for (std::uint8_t s = 1; s < base.spatial_layers; ++s) {
    scale *= kSvcSpatialGain;
    Frame e = base;
    e.frame_id = next_frame_id_++;
    e.type = base.type == FrameType::kI ? FrameType::kP : base.type;
    e.layer.spatial = s;
    e.size_bytes = static_cast<std::size_t>(
        std::max(64.0, static_cast<double>(base.size_bytes) * scale));
    out.push_back(e);
  }
  return out;
}

Frame AudioSource::next_frame(Time now) {
  Frame f;
  f.stream_id = stream_id_;
  f.frame_id = next_frame_id_++;
  f.gop_id = 0;
  f.type = FrameType::kAudio;
  f.referenced = true;
  f.capture_time = now;
  f.size_bytes = kFrameBytes;
  return f;
}

}  // namespace livenet::media
