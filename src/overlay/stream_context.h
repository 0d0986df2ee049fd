#pragma once

#include <unordered_map>
#include <vector>

#include "overlay/path.h"
#include "overlay/records.h"
#include "overlay/stream_fib.h"
#include "sim/event_loop.h"
#include "sim/message.h"
#include "util/hash_seed.h"
#include "util/time.h"

// The unified per-stream state of an overlay (or Hier) node. The old
// OverlayNode kept eight parallel per-stream hash maps (`streams_`,
// the FIB, `pending_views_`, `path_request_sent_`, `pending_costream_`,
// `pending_switch_`, plus the cache handles inside them); the fast path
// paid one hash probe per map it touched, and teardown had to remember
// to sweep every map by hand (it didn't — see release_stream's history
// of stale-retry leaks). StreamContext folds all of it into a single
// struct behind one lookup:
//
//  * the per-packet hot path probes the table exactly once per RTP
//    packet and carries the context pointer through fast/slow path,
//  * release/crash erase the whole context, so no per-stream state can
//    outlive the stream by omission.
//
// Ownership rules (see DESIGN.md "Node architecture"):
//  * StreamTable owns every StreamContext; contexts are created on
//    demand and erased only by release_stream()/crash().
//  * The FIB portion (`fib`) has its own activation flag: a context
//    created for path caching or pending bookkeeping is NOT yet a
//    forwarding entry, exactly as the old separate StreamFib map would
//    not have contained it. The hot path and the public fib() view
//    consult only fib-active contexts.
//  * Engines share the table by reference; no engine holds per-stream
//    state of its own outside the context (the per-*peer* pipelines —
//    LinkSender/LinkReceiver — stay with their engines).
namespace livenet::overlay {

/// A viewer whose attach is deferred until content (or path info)
/// arrives for the stream it requested.
struct PendingView {
  sim::NodeId client = sim::kNoNode;
  ViewSession* session = nullptr;
};

struct StreamContext {
  // ------------------------------------------------ forwarding (hot)
  /// Forwarding entry: subscriber sets + upstream + producer flag.
  /// Valid only while `fib_active` (see ownership rules above).
  StreamFib::Entry fib;
  bool fib_active = false;

  // ----------------------------------------------------------- control
  bool establishing = false;       ///< subscribe sent, ack outstanding
  std::vector<Path> cached_paths;  ///< local path cache (lookup or push)
  Time paths_fetched = kNever;
  Time last_switch = kNever;       ///< re-route cooldown
  std::size_t next_backup = 1;     ///< next candidate on quality switch
  sim::EventId linger_timer = sim::kInvalidEvent;
  Time path_request_sent = kNever;  ///< kNever = no lookup in flight
  bool switch_pending = false;      ///< quality switch awaits fresh paths
  /// Co-stream handover: this stream is the *new* stream some viewers
  /// of `costream_from` are waiting to flip to.
  media::StreamId costream_from = media::kNoStream;
  /// Hier only: the upstream node this stream is subscribed through.
  sim::NodeId upstream_sub = sim::kNoNode;
  /// Established suppliers of this stream (primary upstream first, then
  /// standby RTX-only upstreams, make-before-break grace upstreams...).
  /// Multi-supplier RTX races NACKs across this set; the control agent
  /// keeps it swept of released/crashed upstreams.
  std::vector<sim::NodeId> suppliers;
  /// Standby subscribe requests in flight (ack outstanding), so crash /
  /// release can tell live standbys from half-established ones.
  std::vector<sim::NodeId> pending_standbys;
  /// Last SVC layer mask propagated to the primary upstream (the OR of
  /// our subscribers' masks). Lets the control agent send a
  /// LayerMaskUpdate only when the aggregate actually changes.
  media::LayerMask upstream_mask_sent = media::kAllLayers;

  // ----------------------------------------------------------- session
  std::vector<PendingView> pending_views;
};

/// The single per-stream lookup. Exposes two views:
///  * a FIB view (find/contains/stream_count) that is a drop-in for the
///    old StreamFib observers — it sees only fib-active contexts, and
///  * a context view (find_context/context) for the engines.
class StreamTable {
 public:
  // ------------------------------------------------------- FIB view
  const StreamFib::Entry* find(media::StreamId s) const {
    const auto it = map_.find(s);
    return it != map_.end() && it->second.fib_active ? &it->second.fib
                                                     : nullptr;
  }
  bool contains(media::StreamId s) const { return find(s) != nullptr; }
  std::size_t stream_count() const { return fib_active_; }
  std::vector<media::StreamId> streams() const;

  /// Creates (and activates) the forwarding entry, like the old
  /// StreamFib::entry().
  StreamFib::Entry& fib_entry(media::StreamId s) {
    StreamContext& ctx = context(s);
    activate_fib(ctx);
    return ctx.fib;
  }

  void add_node_subscriber(media::StreamId s, sim::NodeId n) {
    fib_entry(s).subscriber_nodes.insert(n);
  }
  void add_client_subscriber(media::StreamId s, ClientId c) {
    fib_entry(s).subscriber_clients.insert(c);
  }
  /// No-ops on streams without an active forwarding entry (matching
  /// the old StreamFib, which never created entries on removal).
  void remove_node_subscriber(media::StreamId s, sim::NodeId n);
  void remove_client_subscriber(media::StreamId s, ClientId c);

  // --------------------------------------------------- context view
  StreamContext* find_context(media::StreamId s) {
    const auto it = map_.find(s);
    return it != map_.end() ? &it->second : nullptr;
  }
  const StreamContext* find_context(media::StreamId s) const {
    const auto it = map_.find(s);
    return it != map_.end() ? &it->second : nullptr;
  }
  /// Creates the context on demand (without activating the FIB part).
  StreamContext& context(media::StreamId s) { return map_[s]; }

  /// Erases the whole context: forwarding entry, media state, path
  /// cache, pending views, switch/costream flags — everything.
  void erase(media::StreamId s) {
    const auto it = map_.find(s);
    if (it == map_.end()) return;
    if (it->second.fib_active) --fib_active_;
    map_.erase(it);
  }

  void clear() {
    map_.clear();
    fib_active_ = 0;
  }

  std::size_t context_count() const { return map_.size(); }

  /// Iteration (timer sweeps on crash/teardown only). Iteration order
  /// is hash-order and MUST stay behaviour-neutral: the map is keyed
  /// with SeededHash, and CI re-runs the golden scenario under a
  /// different LIVENET_HASH_SEED to prove no order leak.
  template <class F>
  void for_each_context(F&& f) {
    for (auto& [s, ctx] : map_) f(s, ctx);
  }
  template <class F>
  void for_each_context(F&& f) const {
    for (const auto& [s, ctx] : map_) f(s, ctx);
  }

 private:
  void activate_fib(StreamContext& ctx) {
    if (!ctx.fib_active) {
      ctx.fib_active = true;
      ++fib_active_;
    }
  }

  std::unordered_map<media::StreamId, StreamContext,
                     SeededHash<media::StreamId>>
      map_;
  std::size_t fib_active_ = 0;
};

}  // namespace livenet::overlay
