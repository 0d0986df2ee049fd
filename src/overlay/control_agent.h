#pragma once

#include <cstdint>
#include <unordered_map>

#include "overlay/forwarding_engine.h"
#include "overlay/messages.h"
#include "overlay/node_env.h"
#include "overlay/peer_senders.h"
#include "overlay/recovery_engine.h"
#include "overlay/session_layer.h"
#include "overlay/stream_context.h"
#include "util/hash_seed.h"
#include "util/rng.h"

// Control-plane agent of a LiveNet node: everything that talks the
// Brain protocol (paper §4) or runs on timers. Path lookups with
// timeout retry, the local path cache, subscription establishment and
// backtracking (§4.4), quality-triggered make-before-break path
// switches (§7.1), producer migration, stream lifecycle (linger +
// release), Global Discovery state reports (§4.2) and overload alarms.
//
// The agent mutates only StreamContext state behind the shared
// StreamTable plus its own request/timer bookkeeping; data-plane work
// (bursts, forwarding) is delegated to the sibling engines.
namespace livenet::overlay {

struct OverlayNodeConfig;

class ControlAgent {
 public:
  ControlAgent(const OverlayNodeConfig* cfg, NodeEnv* env, StreamTable* table,
               PeerSenders* senders, RecoveryEngine* recovery,
               SessionLayer* session, ForwardingEngine* forwarding)
      : cfg_(cfg), env_(env), table_(table), senders_(senders),
        recovery_(recovery), session_(session), forwarding_(forwarding) {}

  // ----------------------------------------------------------- handlers
  void handle_publish(sim::NodeId client, const PublishRequest& req);
  void handle_publish_stop(sim::NodeId client, const PublishStop& msg);
  void handle_path_response(const PathResponse& resp);
  void handle_path_push(const PathPush& push);
  void handle_subscribe(sim::NodeId from, const SubscribeRequest& req);
  void handle_subscribe_ack(sim::NodeId from, const SubscribeAck& ack);
  void handle_unsubscribe(sim::NodeId from, const UnsubscribeRequest& req);
  void handle_switch_notice(sim::NodeId from, const StreamSwitchNotice& msg);
  void handle_producer_relay(const ProducerRelayInstruction& msg);
  /// A downstream node's SVC layer aggregate changed on our edge.
  void handle_layer_mask_update(sim::NodeId from, const LayerMaskUpdate& msg);

  /// Re-aggregates the downstream SVC masks (OR over subscriber nodes
  /// and clients; standby/absent entries pin the aggregate wide open)
  /// and propagates the result to the primary upstream when it moved.
  void update_upstream_mask(media::StreamId stream);

  // -------------------------------------------------- session-layer hooks
  /// Algorithm 1 line 1: producing the stream, or subscribed with
  /// cached content.
  bool carries_stream(media::StreamId s) const;

  /// View-request local hit: establish from locally cached path info if
  /// it is usable (fresh paths, or an establish already in flight).
  bool acquire_for_view(media::StreamId stream);

  /// Stream-switch fetch: establish from fresh cached paths or fall
  /// back to a lookup (stricter than the view-request variant — an
  /// in-flight establish without fresh paths still triggers a lookup).
  void fetch_for_switch(media::StreamId stream);

  void request_path(media::StreamId stream);
  void maybe_release_stream(media::StreamId stream);
  void release_stream(media::StreamId stream);
  void switch_path(media::StreamId stream);

  // ------------------------------------------------------------ plumbing
  /// Context for the stream, created on demand, mirroring every call
  /// site of the old monolith's stream_state().
  StreamContext& ensure_stream(media::StreamId s);

  double node_load() const;

  /// Starts (or resumes after restart) the periodic reporting loops.
  void start_reporting();

  /// Crash: cancels the reporting timers and wipes the in-flight
  /// request bookkeeping. Stream-level timers die with the StreamTable
  /// sweep in the façade.
  void crash_reset();

  /// Destructor-time timer cancellation (no state reset).
  void cancel_timers();

 private:
  /// OR of the SVC layer masks the stream's downstream edge wants.
  media::LayerMask downstream_aggregate(const StreamFib::Entry& e) const;
  bool try_establish(media::StreamId stream);
  /// Subscribes over `path`. The previous (different) upstream is swept
  /// from the supplier set unless `keep_prev_supplier` — the
  /// make-before-break switch keeps it alive for its grace period; the
  /// dead-feed re-establish must not (a crashed upstream lingering as a
  /// "supplier" would keep attracting racing NACKs forever).
  void establish_via_path(media::StreamId stream, const Path& path,
                          bool keep_prev_supplier = false);
  void handle_standby_subscribe(sim::NodeId from, const SubscribeRequest& req);
  /// Subscribes standby (RTX-only) suppliers from the remaining cached
  /// path candidates, up to cfg->standby_suppliers beyond the primary.
  void establish_standbys(media::StreamId stream);
  /// Moves/inserts `n` at the front of the context's supplier set (the
  /// primary slot; standbys keep their relative order behind it).
  void set_primary_supplier(StreamContext& st, sim::NodeId n);
  static void remove_supplier(StreamContext& st, sim::NodeId n);
  bool stream_still_wanted(media::StreamId stream) const;
  bool paths_fresh(const StreamContext& ctx) const;
  void report_state();
  void check_overload();

  const OverlayNodeConfig* cfg_;
  NodeEnv* env_;
  StreamTable* table_;
  PeerSenders* senders_;
  RecoveryEngine* recovery_;
  SessionLayer* session_;
  ForwardingEngine* forwarding_;

  std::unordered_map<std::uint64_t, media::StreamId,
                     SeededHash<std::uint64_t>>
      pending_path_reqs_;
  Rng rng_{0xD15C0};  ///< reseeded per node id on first report
  bool rng_seeded_ = false;
  std::uint64_t next_request_id_ = 1;
  sim::EventId report_timer_ = sim::kInvalidEvent;
  sim::EventId overload_timer_ = sim::kInvalidEvent;
  bool overload_alarm_active_ = false;
};

}  // namespace livenet::overlay
