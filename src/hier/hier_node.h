#pragma once

#include <unordered_map>

#include "hier/messages.h"
#include "overlay/messages.h"
#include "overlay/node_env.h"
#include "overlay/peer_senders.h"
#include "overlay/records.h"
#include "overlay/recovery_engine.h"
#include "overlay/session_layer.h"
#include "overlay/stream_context.h"
#include "sim/network.h"
#include "sim/sim_node.h"

// A node of the Hier baseline (paper §2.2, Figure 1): Alibaba's
// first-generation hierarchical CDN. Streams flow broadcaster -> L1 ->
// L2 -> streaming center -> L2 -> L1 -> viewer (fixed 4-hop CDN paths).
//
// The decisive contrast with LiveNet's data plane: a Hier hop runs the
// whole application stack, so a packet is forwarded only after it has
// been received *in order* (RTMP-over-TCP semantics) and has paid the
// full-stack processing delay — giving head-of-line blocking under loss
// and a higher per-hop latency floor, which is exactly what the paper's
// fast path eliminates.
//
// Hier reuses the overlay node's shared layers rather than duplicating
// them: the unified StreamTable (FIB + per-stream state), PeerSenders,
// the RecoveryEngine slow path (telemetry off — its cache hits are not
// LiveNet data-plane metrics) and the SessionLayer for view admission,
// pending attaches and view teardown. Only the tree control protocol
// and the in-order hop forwarding are Hier-specific.
namespace livenet::hier {

enum class HierRole { kL1, kL2, kCenter };

struct HierNodeConfig {
  HierRole role = HierRole::kL1;
  Duration full_stack_delay = 20 * kMs;  ///< per-hop processing latency
  Duration center_extra_delay = 10 * kMs;  ///< media processing at center
  Duration unsubscribe_linger = 5 * kSec;
  /// Node-to-node transport config. Hier runs RTMP over TCP between
  /// nodes: sending is not media-paced — TCP grabs the available link
  /// bandwidth — so the default floors the pacing rate high.
  overlay::LinkSender::Config sender;
  /// Client-facing (last mile) transport: bandwidth-adaptive.
  overlay::LinkSender::Config client_sender;
};

class HierNode final : public sim::SimNode {
 public:
  HierNode(sim::Network* net, overlay::OverlayMetrics* metrics)
      : HierNode(net, metrics, HierNodeConfig()) {}
  HierNode(sim::Network* net, overlay::OverlayMetrics* metrics,
           const HierNodeConfig& cfg);
  ~HierNode() override;

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// L1: the VDN-style controller used for L2 mapping. L2: the center.
  void set_controller(sim::NodeId controller) { controller_ = controller; }
  void set_parent(sim::NodeId parent) { parent_ = parent; }

  void set_location(int country) { country_ = country; }
  int location() const { return country_; }

  HierRole role() const { return cfg_.role; }
  const overlay::StreamTable& fib() const { return streams_; }
  bool carries_stream(media::StreamId s) const;
  const overlay::PacketGopCache& packet_cache() const {
    return recovery_.cache();
  }
  bool has_upstream(media::StreamId s) const {
    const overlay::StreamContext* ctx = streams_.find_context(s);
    return ctx != nullptr && ctx->upstream_sub != sim::kNoNode;
  }

 private:
  void handle_rtp(sim::NodeId from, const media::RtpPacketPtr& pkt);
  void forward_ordered(const media::RtpPacketPtr& pkt);
  void handle_publish(sim::NodeId client, const overlay::PublishRequest& req);
  void handle_subscribe(sim::NodeId from, const HierSubscribe& req);
  void handle_unsubscribe(sim::NodeId from, const HierUnsubscribe& req);
  void handle_map_response(const MapResponse& resp);

  void serve_client_burst(sim::NodeId client, overlay::ClientViewState& view);
  void subscribe_upstream(media::StreamId stream);
  void maybe_release_stream(media::StreamId stream);
  void release_stream(media::StreamId stream);

  Duration hop_processing_delay() const;

  sim::Network* net_;
  overlay::OverlayMetrics* metrics_;
  HierNodeConfig cfg_;
  sim::NodeId controller_ = sim::kNoNode;
  sim::NodeId parent_ = sim::kNoNode;  ///< L2 for L1 (default), center for L2
  int country_ = -1;

  overlay::StreamTable streams_;
  overlay::PeerSenders senders_;
  overlay::RecoveryEngine recovery_;
  overlay::SessionLayer session_;
  std::unordered_map<std::uint64_t, media::StreamId> pending_maps_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace livenet::hier
