#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "media/rtp.h"
#include "overlay/frame_dropper.h"
#include "overlay/messages.h"
#include "overlay/peer_senders.h"
#include "overlay/records.h"
#include "overlay/recovery_engine.h"
#include "overlay/stream_context.h"
#include "sim/network.h"
#include "sim/sim_node.h"
#include "transport/gcc.h"
#include "util/hash_seed.h"

// Client-facing session layer of a CDN node (paper §5): view request
// admission (Algorithm 1's local-hit checks), deferred (pending)
// attaches, the startup burst, per-client delivery with the proactive
// frame dropper and per-client sequence rewrite, the simulcast ladder
// with delegated bitrate selection (§5.2), quality-report evaluation
// and seamless stream switching (co-stream / downgrade handovers).
//
// Shared between the LiveNet OverlayNode and the Hier baseline: the
// node-specific halves — how a missing stream is fetched, when an idle
// stream is released, what a startup burst looks like — are injected
// through Hooks. Hier wires only the subset it needs (no quality loop,
// no simulcast, its own plain burst).
namespace livenet::overlay {

/// Per-client consumer state. Owned by the session layer; the FIB's
/// subscriber_clients set holds the forwarding-side view of the same
/// membership (see DESIGN.md "Node architecture").
struct ClientViewState {
  ViewSession* session = nullptr;  ///< owned by OverlayMetrics
  media::StreamId stream = media::kNoStream;
  FrameDropper dropper;
  std::uint32_t stalls_in_window = 0;
  int bad_quality_windows = 0;  ///< consecutive poor quality reports
  std::uint64_t dropper_total_at_report = 0;  ///< for skip discounting
  /// Simulcast versions, best first.
  std::vector<media::StreamId> ladder;
  std::size_t ladder_pos = 0;
  int pressure_count = 0;  ///< consecutive under-pressure packets

  // ---- SVC layer switching (DESIGN.md "SVC layered forwarding") ----
  /// Committed mask: gates per-packet delivery right now.
  media::LayerMask layer_mask = media::kAllLayers;
  /// Widen in flight: the full target mask, committed only at a
  /// decodable anchor (keyframe for new spatial layers, T0 frame for
  /// temporal-only widens). 0 = nothing pending.
  media::LayerMask pending_mask = 0;
  Time pending_since = kNever;
  /// Stream lattice as observed from delivered packets.
  std::uint8_t svc_s = 1;
  std::uint8_t svc_t = 1;
  int good_windows = 0;  ///< consecutive clean reports (up-switch signal)
  /// The client sent an explicit LayerMaskUpdate: it is driving its own
  /// layer selection, so the consumer's automatic up-switch stands down
  /// (the pressure narrow still protects the last mile).
  bool client_driven = false;

  /// Client-facing RTP seq spaces (video/audio are separate flows).
  /// The consumer rewrites sequence numbers per client so that
  /// proactive frame drops and cache-burst seams do not look like
  /// wire loss to the client's NACK machinery.
  media::Seq next_video_seq = 1;
  media::Seq next_audio_seq = 1;

  media::Seq take_seq(bool audio) {
    return audio ? next_audio_seq++ : next_video_seq++;
  }
};

struct SessionConfig {
  Duration client_extra_delay = 2 * kMs;  ///< per-packet processing delay
  /// Create the ClientViewState (with its simulcast ladder) at request
  /// time so it survives a deferred attach. LiveNet does; Hier creates
  /// it only when the client actually attaches.
  bool eager_view_state = true;
};

class SessionLayer {
 public:
  struct Hooks {
    /// Does this node currently carry the stream (Algorithm 1 line 1)?
    std::function<bool(media::StreamId)> carries_stream;
    /// A client detached from the stream; release it if now idle.
    std::function<void(media::StreamId)> maybe_release;
    /// Fetch a stream this node does not carry (view-request miss):
    /// overlay = Brain path lookup, Hier = subscribe up the tree.
    std::function<void(media::StreamId)> want_stream;
    /// Overlay only: try to establish from locally cached path info
    /// (pushed or previously fetched). Returns true when the local
    /// info suffices, i.e. the request counts as a local hit.
    std::function<bool(media::StreamId)> acquire_local;
    /// Overlay only: fetch for a stream *switch* (downgrade/co-stream),
    /// which establishes from fresh cached paths or falls back to a
    /// lookup — deliberately stricter than the view-request variant.
    std::function<void(media::StreamId)> want_stream_for_switch;
    /// Override the built-in startup burst (Hier's plain cache burst).
    std::function<void(sim::NodeId, ClientViewState&)> serve_burst;
    /// Overlay only: quality-triggered path switch (§4.4).
    std::function<void(media::StreamId)> quality_switch;
    /// SVC: a client's layer mask changed — re-aggregate the stream's
    /// downstream mask and propagate upstream if it moved.
    std::function<void(media::StreamId)> downstream_mask_changed;
  };

  SessionLayer(sim::Network* net, const sim::SimNode* owner,
               OverlayMetrics* metrics, const SessionConfig& cfg,
               StreamTable* table)
      : net_(net), owner_(owner), metrics_(metrics), cfg_(cfg),
        table_(table) {}

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Wires the built-in burst + per-packet delivery (overlay only):
  /// sender pipelines, the recovery engine's caches/buffers, and the
  /// node-wide egress meter.
  void wire_data_plane(PeerSenders* senders, RecoveryEngine* recovery,
                       transport::RateMeter* egress_meter) {
    senders_ = senders;
    recovery_ = recovery;
    egress_meter_ = egress_meter;
  }

  // ----------------------------------------------------- client control
  void handle_view_request(sim::NodeId client, const ViewRequest& req);
  void handle_view_stop(sim::NodeId client, const ViewStop& msg);
  void handle_quality_report(sim::NodeId client,
                             const ClientQualityReport& rep);
  /// Viewer-initiated SVC layer flip: narrows commit immediately,
  /// widens go pending until a decodable anchor.
  void handle_layer_mask_request(sim::NodeId client,
                                 const LayerMaskUpdate& msg);

  /// Serves `stream` to the client (seamless handover if it was on
  /// another stream): subscribe, ack, startup burst.
  void attach_client(sim::NodeId client, media::StreamId stream,
                     ViewSession* session);

  /// Moves a client to another stream (bitrate downgrade or co-stream
  /// switch), reusing its session record.
  void switch_client_stream(sim::NodeId client, media::StreamId new_stream);

  /// Flips waiting co-stream viewers once a complete GoP of the new
  /// stream is cached.
  void maybe_flip_costream(media::StreamId new_stream);

  /// Attaches views queued on `stream` once content lands and the node
  /// carries it (the lookup-based path attaches via attach_pending).
  void flush_pending_attach(media::StreamId stream);

  /// Path lookup failed: fail every queued view with a nack.
  void fail_pending(media::StreamId stream, Duration rtt);

  /// Path lookup succeeded: attach every queued view, recording the
  /// observed lookup RTT and the last-resort flag on each session.
  void attach_pending(media::StreamId stream, Duration rtt,
                      bool last_resort);

  // ------------------------------------------------------ data delivery
  /// Built-in startup burst (§5.1): GoP cache content plus packets
  /// still blocked behind a recovery hole upstream (seam shrinking).
  void serve_startup_burst(sim::NodeId client, ClientViewState& view);

  /// Fast-path fan-out entry: delivers to the client if it is attached.
  void deliver_to_client(sim::NodeId client, const media::RtpPacketPtr& pkt);

  void send_to_client(sim::NodeId client, ClientViewState& view,
                      const media::RtpPacketPtr& pkt);

  // -------------------------------------------------------- bookkeeping
  /// Credits a path switch on every session viewing `stream`.
  /// Iteration order over the view map is behaviour-neutral (counter
  /// increments only) — the map is seed-hashed to prove it.
  void note_path_switch(media::StreamId stream);

  ClientViewState* find_view(sim::NodeId client) {
    const auto it = views_.find(client);
    return it != views_.end() ? &it->second : nullptr;
  }

  std::uint64_t view_requests() const { return view_requests_; }

  /// Crash: drops all per-client state (the request counter survives,
  /// as node counters did before).
  void clear() { views_.clear(); }

 private:
  static constexpr std::uint32_t kSwitchStallThreshold = 2;  ///< stalls/report
  static constexpr std::uint32_t kSwitchSkipThreshold = 8;  ///< gaps/report
  /// Under-pressure packets before a downgrade (~1.5 s of video).
  static constexpr std::uint32_t kDowngradePressurePackets = 150;

  /// Applies a requested mask to the view: narrowing commits now,
  /// widening goes pending; mirrors the wanted set into the FIB.
  void set_client_layer_mask(sim::NodeId client, ClientViewState& view,
                             media::LayerMask mask);
  /// Pressure response for SVC streams: shed the highest enhancement
  /// bit. Returns false when already at base-only (ladder takes over).
  bool narrow_mask_step(sim::NodeId client, ClientViewState& view);
  /// Commits a pending widen when `pkt` is its decodable anchor.
  void maybe_commit_mask(sim::NodeId client, ClientViewState& view,
                         const media::RtpPacket& pkt);
  /// Pushes committed|pending into the FIB's client mask and notifies
  /// the control plane.
  void sync_fib_client_mask(sim::NodeId client, const ClientViewState& view);
  /// Tells the client its *committed* mask (so its skip expectation
  /// tracks exactly what this node filters).
  void notify_client_mask(sim::NodeId client, const ClientViewState& view);

  sim::Network* net_;
  const sim::SimNode* owner_;
  OverlayMetrics* metrics_;
  SessionConfig cfg_;
  StreamTable* table_;
  Hooks hooks_;
  PeerSenders* senders_ = nullptr;
  RecoveryEngine* recovery_ = nullptr;
  transport::RateMeter* egress_meter_ = nullptr;
  std::unordered_map<sim::NodeId, ClientViewState, SeededHash<sim::NodeId>>
      views_;
  std::uint64_t view_requests_ = 0;
};

}  // namespace livenet::overlay
