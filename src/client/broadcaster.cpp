#include "client/broadcaster.h"

#include "media/rtp.h"
#include "util/logging.h"

namespace livenet::client {

using media::Frame;
using media::RtpPacket;
using sim::NodeId;

Broadcaster::Broadcaster(sim::Network* net, std::uint64_t seed,
                         const BroadcasterConfig& cfg)
    : net_(net), seed_(seed), cfg_(cfg) {}

Broadcaster::~Broadcaster() { stop(); }

void Broadcaster::start(NodeId producer,
                        std::vector<media::StreamId> stream_ids) {
  if (broadcasting_) stop();
  producer_ = producer;
  stream_ids_ = std::move(stream_ids);
  broadcasting_ = true;
  uplink_ = std::make_unique<overlay::LinkSender>(net_, node_id(), producer_);

  Rng rng(seed_);
  versions_.clear();
  versions_.resize(stream_ids_.size());
  for (std::size_t v = 0; v < stream_ids_.size(); ++v) {
    const auto& vcfg =
        v < cfg_.versions.size() ? cfg_.versions[v] : cfg_.versions.back();
    auto& ver = versions_[v];
    ver.source = std::make_unique<media::VideoSource>(stream_ids_[v], vcfg,
                                                      rng.fork());
    ver.audio =
        std::make_unique<media::AudioSource>(stream_ids_[v], cfg_.audio);
    ver.packetizer = std::make_unique<media::Packetizer>(stream_ids_[v]);
    ver.packetizer->set_trace_sample(cfg_.trace_sample);

    auto pub = sim::make_message<overlay::PublishRequest>();
    pub->stream_id = stream_ids_[v];
    pub->client_id = static_cast<overlay::ClientId>(node_id());
    pub->bitrate_bps = vcfg.bitrate_bps;
    net_->send(node_id(), producer_, std::move(pub));

    ver.video_timer = net_->loop()->schedule_after(
        ver.source->frame_interval(), [this, v] { video_tick(v); });
    ver.audio_timer = net_->loop()->schedule_after(
        ver.audio->frame_interval(), [this, v] { audio_tick(v); });
  }
}

void Broadcaster::stop() {
  if (!broadcasting_) return;
  broadcasting_ = false;
  for (std::size_t v = 0; v < versions_.size(); ++v) {
    auto& ver = versions_[v];
    if (ver.video_timer != sim::kInvalidEvent) {
      net_->loop()->cancel(ver.video_timer);
      ver.video_timer = sim::kInvalidEvent;
    }
    if (ver.audio_timer != sim::kInvalidEvent) {
      net_->loop()->cancel(ver.audio_timer);
      ver.audio_timer = sim::kInvalidEvent;
    }
    auto stop_msg = sim::make_message<overlay::PublishStop>();
    stop_msg->stream_id = stream_ids_[v];
    stop_msg->client_id = static_cast<overlay::ClientId>(node_id());
    net_->send(node_id(), producer_, std::move(stop_msg));
  }
}

void Broadcaster::migrate(NodeId new_producer) {
  if (!broadcasting_ || new_producer == producer_) return;
  const NodeId old_producer = producer_;
  producer_ = new_producer;
  uplink_ = std::make_unique<overlay::LinkSender>(net_, node_id(), producer_);
  // Publish at the new producer (re-registers the SIB entries there).
  for (std::size_t v = 0; v < stream_ids_.size(); ++v) {
    auto pub = sim::make_message<overlay::PublishRequest>();
    pub->stream_id = stream_ids_[v];
    pub->client_id = static_cast<overlay::ClientId>(node_id());
    pub->bitrate_bps =
        v < cfg_.versions.size() ? cfg_.versions[v].bitrate_bps : 0.0;
    net_->send(node_id(), producer_, std::move(pub));
  }
  // Tell the control plane so the old producer becomes a relay.
  auto mig = sim::make_message<overlay::ProducerMigrate>();
  mig->streams = stream_ids_;
  mig->old_producer = old_producer;
  net_->send(node_id(), producer_, std::move(mig));
}

void Broadcaster::announce_costream(media::StreamId old_stream,
                                    media::StreamId new_stream) {
  auto notice = sim::make_message<overlay::StreamSwitchNotice>();
  notice->from_stream = old_stream;
  notice->to_stream = new_stream;
  net_->send(node_id(), producer_, std::move(notice));
}

void Broadcaster::video_tick(std::size_t v) {
  auto& ver = versions_[v];
  ver.video_timer = sim::kInvalidEvent;
  if (!broadcasting_) return;
  // One capture tick = one picture: the base-layer frame plus any SVC
  // spatial enhancement frames (a 1-wide lattice yields exactly one).
  // All become sendable together after the encoder latency.
  for (const Frame& frame : ver.source->next_picture(net_->loop()->now())) {
    net_->loop()->schedule_after(cfg_.encode_delay,
                                 [this, v, frame] { upload_frame(v, frame); });
  }
  ver.video_timer = net_->loop()->schedule_after(
      ver.source->frame_interval(), [this, v] { video_tick(v); });
}

void Broadcaster::audio_tick(std::size_t v) {
  auto& ver = versions_[v];
  ver.audio_timer = sim::kInvalidEvent;
  if (!broadcasting_) return;
  const Frame frame = ver.audio->next_frame(net_->loop()->now());
  upload_frame(v, frame);  // audio encoding latency is negligible
  ver.audio_timer = net_->loop()->schedule_after(
      ver.audio->frame_interval(), [this, v] { audio_tick(v); });
}

void Broadcaster::upload_frame(std::size_t v, const Frame& frame) {
  if (!broadcasting_) return;
  auto& ver = versions_[v];
  // Seed the delay header extension (§6.1): encode time + half the
  // first-mile RTT; the pacer queue component accrues implicitly.
  const sim::Link* l = net_->link(node_id(), producer_);
  const Duration half_rtt = l != nullptr ? l->base_rtt() / 2 : 0;
  const Duration initial_ext =
      (frame.is_audio() ? 0 : cfg_.encode_delay) + half_rtt;
  for (auto& pkt : ver.packetizer->packetize(frame, initial_ext)) {
    uplink_->send_media(std::move(pkt));
  }
}

void Broadcaster::on_message(NodeId from, const sim::MessagePtr& msg) {
  (void)from;
  if (const auto nack =
          sim::msg_cast<const media::NackMessage>(msg)) {
    if (uplink_) uplink_->on_nack(nack->stream_id, nack->audio, nack->missing);
    return;
  }
  if (const auto fb =
          sim::msg_cast<const media::CcFeedbackMessage>(msg)) {
    if (uplink_) uplink_->on_cc_feedback(fb->remb_bps, fb->loss_fraction);
    return;
  }
}

}  // namespace livenet::client
