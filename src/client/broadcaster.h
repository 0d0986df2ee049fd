#pragma once

#include <memory>
#include <vector>

#include "media/packetizer.h"
#include "media/video_source.h"
#include "overlay/link_sender.h"
#include "overlay/messages.h"
#include "sim/network.h"
#include "sim/sim_node.h"

// A broadcaster client: encodes (models) the camera feed in several
// simulcast bitrate versions (§5.2) and uploads all of them to its
// producer node over one uplink, WebRTC-style: paced sending with GCC
// driven by the producer's feedback, and NACK-based retransmission from
// the broadcaster's send history.
namespace livenet::client {

struct BroadcasterConfig {
  Duration encode_delay = 60 * kMs;  ///< capture-to-sendable latency
  std::vector<media::VideoSourceConfig> versions;  ///< simulcast ladder
  media::AudioSourceConfig audio;  ///< attached to every version's stream
  /// Fraction of produced packets stamped with a telemetry trace_id
  /// (0 = tracing off). Applied to every simulcast version.
  double trace_sample = 0.0;
};

class Broadcaster final : public sim::SimNode {
 public:
  Broadcaster(sim::Network* net, std::uint64_t seed)
      : Broadcaster(net, seed, BroadcasterConfig()) {}
  Broadcaster(sim::Network* net, std::uint64_t seed,
              const BroadcasterConfig& cfg);
  ~Broadcaster() override;

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Starts broadcasting: `stream_ids[i]` is the stream for
  /// `cfg.versions[i]` (highest bitrate first, by convention).
  void start(sim::NodeId producer, std::vector<media::StreamId> stream_ids);

  /// Stops broadcasting (sends PublishStop for every version).
  void stop();

  /// Broadcaster mobility (§7.1): re-homes the upload to a new producer
  /// node. The new producer registers the streams; the Brain instructs
  /// the old producer to relay from the new one so no downstream path
  /// changes. The caller must have wired an access link to the new
  /// producer beforehand.
  void migrate(sim::NodeId new_producer);

  /// Announces a co-stream switch: viewers of `old_stream` should be
  /// moved to `new_stream` by their consumer nodes. The notice goes to
  /// the producer node, which fans it out across the overlay (standing
  /// in for the application control plane).
  void announce_costream(media::StreamId old_stream,
                         media::StreamId new_stream);

  bool broadcasting() const { return broadcasting_; }
  const std::vector<media::StreamId>& stream_ids() const {
    return stream_ids_;
  }
  const overlay::LinkSender* uplink() const { return uplink_.get(); }

 private:
  struct Version {
    std::unique_ptr<media::VideoSource> source;
    std::unique_ptr<media::AudioSource> audio;
    std::unique_ptr<media::Packetizer> packetizer;
    sim::EventId video_timer = sim::kInvalidEvent;
    sim::EventId audio_timer = sim::kInvalidEvent;
  };

  void video_tick(std::size_t version);
  void audio_tick(std::size_t version);
  void upload_frame(std::size_t version, const media::Frame& frame);

  sim::Network* net_;
  std::uint64_t seed_;
  BroadcasterConfig cfg_;
  sim::NodeId producer_ = sim::kNoNode;
  std::vector<media::StreamId> stream_ids_;
  std::vector<Version> versions_;
  std::unique_ptr<overlay::LinkSender> uplink_;
  bool broadcasting_ = false;
};

}  // namespace livenet::client
