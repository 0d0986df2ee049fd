#pragma once

#include <vector>

#include "media/rtp.h"
#include "overlay/control_agent.h"
#include "overlay/forwarding_engine.h"
#include "overlay/link_receiver.h"
#include "overlay/link_sender.h"
#include "overlay/messages.h"
#include "overlay/node_env.h"
#include "overlay/packet_cache.h"
#include "overlay/peer_senders.h"
#include "overlay/records.h"
#include "overlay/recovery_engine.h"
#include "overlay/session_layer.h"
#include "overlay/stream_context.h"
#include "sim/network.h"
#include "sim/sim_node.h"

// A LiveNet overlay CDN node (paper §3, §5). Every node implements the
// full role set — producer (ingests broadcaster uploads), relay
// (forwards and caches), consumer (serves viewers, runs Algorithm 1 and
// fine-grained stream control) — with the role decided per stream by
// how traffic reaches it, exactly as in the flat-CDN design.
//
// OverlayNode itself is a thin façade: it owns the wiring and the
// message dispatch, and delegates to four collaborating layers (see
// DESIGN.md "Node architecture"):
//  * ForwardingEngine — the fast path: RTP in -> one StreamContext
//    probe -> per-subscriber clone -> pacer.
//  * RecoveryEngine — the slow path: per-upstream receive buffers
//    (hole detection -> NACK every 50 ms; GCC receiver feedback),
//    packet-granularity GoP cache, retransmit serving.
//  * ControlAgent — the Brain protocol and timers: path lookups,
//    subscriptions, path switches, stream lifecycle, state reports.
//  * SessionLayer — client views, startup bursts, the simulcast
//    ladder, quality-driven switching, per-client seq rewrite.
// All per-stream state lives in one StreamContext per stream, behind
// the single StreamTable lookup the engines share.
namespace livenet::overlay {

struct OverlayNodeConfig {
  /// Ablation switch: when false, packets are forwarded only from the
  /// slow path's ordered output (store-and-forward, like a full-stack
  /// hop) instead of immediately on receipt. Used by the fast/slow-path
  /// ablation benchmark.
  bool fast_path_enabled = true;
  std::size_t max_streams = 1000;      ///< stream-count load normalizer
  Duration report_interval = 60 * kSec;    ///< Global Discovery reports
  Duration overload_check_interval = 5 * kSec;
  Duration unsubscribe_linger = 5 * kSec;  ///< idle time before unsub
  LinkSender::Config sender;
  LinkReceiver::Config receiver;

  // ---- Loss-recovery tier (all default-off: byte-identical legacy
  // ---- behaviour until a scenario opts in). ----
  /// Fixed FEC probe rate: fraction of parity groups actually emitted
  /// per (stream, link). 0 = FEC off; 1 = one parity packet per
  /// fec_group_packets media packets.
  double fec_rate = 0.0;
  /// Adaptive probe rate driven by the link's last reported loss
  /// fraction (>=2% loss -> 1.0, >0 -> 0.5, 0 -> 0). Overrides
  /// fec_rate when set.
  bool fec_adaptive = false;
  std::uint32_t fec_group_packets = 10;  ///< K media packets per parity
  /// Multi-supplier RTX: race NACKs to the lowest-RTT established
  /// supplier with staggered fallback to the next.
  bool multi_supplier_rtx = false;
  /// Extra standby (RTX-only) suppliers the control agent subscribes
  /// beyond the primary upstream. A standby registers this node as an
  /// RTX-only subscriber: it pulls + caches the stream itself (so its
  /// GoP cache can answer) but sends no media fan-out here.
  std::uint32_t standby_suppliers = 0;
};

class OverlayNode final : public sim::SimNode {
 public:
  OverlayNode(sim::Network* net, OverlayMetrics* metrics)
      : OverlayNode(net, metrics, OverlayNodeConfig()) {}
  OverlayNode(sim::Network* net, OverlayMetrics* metrics,
              const OverlayNodeConfig& cfg);
  ~OverlayNode() override;

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  // ------------------------------------------------------------- wiring

  /// Brain endpoint for registrations / reports / alarms.
  void set_brain(sim::NodeId brain) { env_.brain = brain; }

  /// Endpoint serving path lookups: the primary Brain by default, or a
  /// nearby Path Decision replica (§7.1).
  void set_path_service(sim::NodeId svc) { env_.path_service = svc; }

  /// The other overlay CDN nodes (for state reports over the mesh).
  void set_overlay_peers(std::vector<sim::NodeId> peers);

  /// Geographic location tag (country index) used by the evaluation.
  void set_location(int country) { env_.country = country; }
  int location() const { return env_.country; }

  /// Starts the periodic Global Discovery reporting loop.
  void start_reporting() { control_.start_reporting(); }

  /// Fault injection: wipes all soft state (stream contexts incl. the
  /// FIB, caches, per-peer pipelines, client views, pending views and
  /// lookups) as a process crash would. The node object stays
  /// registered in the network; restart() brings it back.
  void crash();

  /// Fault injection: restarts a crashed node. It re-registers with the
  /// Brain (state report) and re-learns paths on demand, exactly like a
  /// freshly provisioned node.
  void restart() { control_.start_reporting(); }

  // ----------------------------------------------------------- observers

  /// FIB view of the stream table (find/contains/stream_count see only
  /// streams with an active forwarding entry).
  const StreamTable& fib() const { return streams_; }
  double node_load() const { return control_.node_load(); }
  std::uint64_t fast_path_forwards() const {
    return forwarding_.fast_forwards();
  }
  /// Per-(stream, link) fast-path state held for `s` (teardown tests).
  std::size_t forwarding_link_states(media::StreamId s) const {
    return forwarding_.link_states(s);
  }
  std::uint64_t view_requests() const { return session_.view_requests(); }
  const PacketGopCache& packet_cache() const { return recovery_.cache(); }
  const OverlayNodeConfig& config() const { return cfg_; }

  /// Whether this node currently carries the stream (producer or
  /// established subscription).
  bool carries_stream(media::StreamId s) const {
    return control_.carries_stream(s);
  }

  /// Sender pipeline toward a peer (node or client); nullptr if none.
  const LinkSender* sender_to(sim::NodeId peer) const {
    return senders_.find(peer);
  }

 private:
  void handle_rtp(sim::NodeId from, const media::RtpPacketPtr& pkt);
  void on_slow_path_delivery(const media::RtpPacketPtr& pkt);
  void wire_engines();

  sim::Network* net_;
  OverlayMetrics* metrics_;
  OverlayNodeConfig cfg_;
  NodeEnv env_;

  StreamTable streams_;
  PeerSenders senders_;
  RecoveryEngine recovery_;
  ForwardingEngine forwarding_;
  SessionLayer session_;
  ControlAgent control_;
};

}  // namespace livenet::overlay
