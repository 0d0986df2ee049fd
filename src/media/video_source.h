#pragma once

#include <cstdint>
#include <vector>

#include "media/frame.h"
#include "util/rng.h"
#include "util/time.h"

// Synthetic encoder model. Substitutes for a real H.264/H.265 encoder:
// it produces the frame-size/timing structure (GoP pattern, I/P/B size
// ratios, size variation) that the transport reacts to, without
// encoding pixels. Simulcast (paper §5.2) is modelled as several
// VideoSource instances with distinct stream ids and bitrates fed from
// the same capture clock.
namespace livenet::media {

struct VideoSourceConfig {
  double fps = 30.0;
  std::size_t gop_frames = 60;      ///< frames per GoP (2 s at 30 fps)
  double bitrate_bps = 2e6;         ///< target video bitrate
  double i_frame_weight = 8.0;      ///< I size relative to P
  std::size_t b_per_p = 0;          ///< unreferenced B frames after each P
  double size_jitter_sigma = 0.15;  ///< lognormal sigma of frame sizes

  // SVC lattice (ROADMAP item 1). 1x1 = plain simulcast frame stream,
  // bit-identical to the pre-SVC source (no extra RNG draws, same
  // frame ids). L1T3 = {1, 3}; L3T3 = {3, 3}. Temporal layers follow
  // the dyadic pattern (T=3: 0 2 1 2 ...); spatial enhancement frames
  // ride the same capture tick with their own frame ids. bitrate_bps
  // describes the base spatial layer; each spatial enhancement scales
  // its picture's base-layer frame by VideoSource::kSvcSpatialGain^s.
  std::uint8_t svc_spatial_layers = 1;
  std::uint8_t svc_temporal_layers = 1;
};

class VideoSource {
 public:
  VideoSource(StreamId stream_id, const VideoSourceConfig& cfg, Rng rng);

  /// Produces the next frame in capture order, stamped with `now`.
  /// Under SVC this is the base spatial layer of the next picture,
  /// carrying its lattice coordinates.
  Frame next_frame(Time now);

  /// Produces one full picture: the base-layer frame plus one frame
  /// per configured spatial enhancement layer (same capture tick and
  /// gop, consecutive frame ids). With a 1-wide lattice this is
  /// exactly {next_frame(now)}.
  std::vector<Frame> next_picture(Time now);

  /// Capture interval between consecutive frames.
  Duration frame_interval() const {
    return static_cast<Duration>(static_cast<double>(kSec) / cfg_.fps);
  }

  StreamId stream_id() const { return stream_id_; }
  const VideoSourceConfig& config() const { return cfg_; }

  /// Mean size of a frame of the given type under this configuration.
  double mean_frame_size(FrameType t) const;

 private:
  static constexpr double kBFrameWeight = 0.5;  ///< B size relative to P
  static constexpr double kSvcSpatialGain = 1.7;

  FrameType next_type();
  std::uint8_t temporal_layer_of(std::size_t pos_in_gop) const;

  StreamId stream_id_;
  VideoSourceConfig cfg_;
  Rng rng_;
  std::uint64_t next_frame_id_ = 1;
  std::uint64_t gop_id_ = 0;
  std::size_t pos_in_gop_ = 0;  ///< 0 -> next frame is I
  std::size_t b_run_ = 0;       ///< B frames still owed after last P
};

/// Constant-rate audio source (e.g. Opus at 50 packets/s).
struct AudioSourceConfig {
  double fps = 50.0;          ///< audio frames per second (20 ms)
};

class AudioSource {
 public:
  AudioSource(StreamId stream_id, const AudioSourceConfig& cfg)
      : stream_id_(stream_id), cfg_(cfg) {}

  Frame next_frame(Time now);
  Duration frame_interval() const {
    return static_cast<Duration>(static_cast<double>(kSec) / cfg_.fps);
  }

 private:
  static constexpr std::size_t kFrameBytes = 160;

  StreamId stream_id_;
  AudioSourceConfig cfg_;
  std::uint64_t next_frame_id_ = 1;
};

}  // namespace livenet::media
