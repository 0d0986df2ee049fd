#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/message.h"
#include "sim/sim_node.h"
#include "util/rng.h"

// The simulated network: a registry of nodes and directed links plus the
// delivery machinery. send() runs the packet through the link model and
// schedules the receiver's upcall as one loop event at the computed
// arrival time. The event takes its loop seq at send time, so packets
// due at the same instant are delivered in send order, across links as
// well as within one (see DESIGN.md "Delivery order").
//
// Link lookup is structured for the per-packet hot path. Links live in
// per-source rows (insertion-ordered, so neighbors() is deterministic)
// with a per-row index sorted by destination for O(log n) lookup. Once
// the static topology is built, freeze_topology() snapshots a dense
// (src, dst) -> Link* matrix over the first N node ids: every
// core-to-core send after that is a single indexed load, no hashing.
// Nodes and links added later (clients attach at runtime) fall back to
// the row index transparently.
namespace livenet::sim {

class Network {
 public:
  explicit Network(EventLoop* loop, std::uint64_t seed = 1)
      : loop_(loop), rng_(seed) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; assigns and returns its NodeId. The Network does
  /// not own the node; callers keep it alive for the Network's lifetime.
  NodeId add_node(SimNode* node);

  /// Reserves the next NodeId without a local receiver — the node lives
  /// in another shard's Network. Keeps the global id space identical
  /// across shards; traffic toward a remote id must be intercepted by
  /// the cross-region handler (delivering to it locally error-drops).
  NodeId add_remote_node();

  /// Creates a directed link src -> dst. Replaces any existing link on
  /// that pair (in-flight deliveries survive the replacement). Invalid
  /// (negative) node ids are rejected loudly: error log + nullptr.
  Link* add_link(NodeId src, NodeId dst, const LinkConfig& cfg);

  /// Same, but with an explicitly seeded per-link RNG instead of a fork
  /// of the Network's stream. Sharded builds use this: the fork order
  /// differs per shard (each shard only adds the links it owns), so a
  /// link's randomness must be a pure function of (seed, src, dst) for
  /// the shard sweep to stay bit-identical.
  Link* add_link(NodeId src, NodeId dst, const LinkConfig& cfg,
                 std::uint64_t rng_seed);

  /// Creates both directions with the same configuration.
  void add_bidi_link(NodeId a, NodeId b, const LinkConfig& cfg);

  /// Builds the dense (src, dst) -> Link* index over all node ids
  /// registered so far. Call once the static (core) topology is
  /// complete; later nodes/links still work via the sorted-row path,
  /// and later links between frozen nodes update the matrix in place.
  void freeze_topology();

  /// Node-id bound covered by the dense index (0 = never frozen).
  NodeId frozen_nodes() const { return frozen_n_; }

  /// Sends msg from src to dst over the configured link. Returns false
  /// if no link exists or the packet was dropped/lost. On success the
  /// receiver's upcall runs at the arrival time.
  bool send(NodeId src, NodeId dst, MessagePtr msg) {
    return send_ex(src, dst, std::move(msg)).delivered;
  }

  /// send() with the full reason-coded outcome. A missing link is a
  /// SendDrop::kNoRoute drop (arrival kNever), not an abort: a bad
  /// partition map must fail loudly in tests without killing Release
  /// runs. See RouteMissPolicy.
  SendResult send_ex(NodeId src, NodeId dst, MessagePtr msg);

  /// How loudly a routing miss (send with no link) complains. kStrict —
  /// the default, and what tests run under — error-logs every miss;
  /// kLenient demotes them to debug chatter for Release-scale runs
  /// where the count is the signal. Both count and reason-code the
  /// drop identically.
  enum class RouteMissPolicy : std::uint8_t { kStrict, kLenient };
  void set_route_miss_policy(RouteMissPolicy p) { route_miss_policy_ = p; }
  RouteMissPolicy route_miss_policy() const { return route_miss_policy_; }
  /// Total sends that found no link.
  std::uint64_t route_miss_count() const { return route_misses_; }

  /// Sharded-run hook: a delivered send whose endpoints live in
  /// different regions is handed to `handoff` (with its computed
  /// arrival time) instead of local delivery — the sharded runtime
  /// ferries it to the owning shard at the next window barrier.
  /// `region_of` must cover every NodeId and outlive the Network.
  /// Installed in every mode including single-shard runs, so the
  /// delivery path (and therefore the golden) is shard-count-invariant.
  using CrossRegionHandoff =
      std::function<void(NodeId src, NodeId dst, Time arrival, MessagePtr)>;
  void set_cross_region(const std::int32_t* region_of,
                        CrossRegionHandoff handoff) {
    region_of_ = region_of;
    xregion_ = std::move(handoff);
  }

  /// Delivers a ferried cross-region message: schedules the receiver
  /// upcall at `arrival`. The sharded runtime calls this in a
  /// deterministic order, so S=1 and S=N dispatch stay identical.
  void deliver_remote(NodeId src, NodeId dst, Time arrival, MessagePtr msg);

  /// Upcalls and packets delivered so far. Every upcall carries exactly
  /// one packet, so both read the same counter; they remain as the
  /// per-upcall ratio the benchmark reports.
  std::uint64_t batch_upcalls() const { return delivered_; }
  std::uint64_t batch_packets() const { return delivered_; }

  /// Link accessor (nullptr if absent).
  Link* link(NodeId src, NodeId dst);
  const Link* link(NodeId src, NodeId dst) const;

  /// Neighbors reachable via an outgoing link from `src`, in link
  /// creation order (deterministic: fault schedules key on this).
  std::vector<NodeId> neighbors(NodeId src) const;

  SimNode* node(NodeId id) { return id >= 0 && static_cast<std::size_t>(id) < nodes_.size() ? nodes_[static_cast<std::size_t>(id)] : nullptr; }
  std::size_t node_count() const { return nodes_.size(); }

  EventLoop* loop() { return loop_; }

  /// Total bytes accepted across all links (throughput accounting).
  std::uint64_t total_bytes_sent() const;

 private:
  struct Edge {
    NodeId dst;
    std::unique_ptr<Link> link;
  };

  /// Finds src's edge to dst via the sorted row index; returns the
  /// position in row_index_[src] where dst is (or would be inserted).
  std::size_t index_pos(NodeId src, NodeId dst) const;
  Link* add_link_impl(NodeId src, NodeId dst, const LinkConfig& cfg, Rng rng);
  Link* lookup(NodeId src, NodeId dst) const;
  const Edge* find_edge(NodeId src, NodeId dst) const;
  /// Delivery event body: the receiver's upcall for one packet.
  void deliver(NodeId src, NodeId dst, const MessagePtr& msg);

  EventLoop* loop_;
  Rng rng_;
  std::vector<SimNode*> nodes_;
  std::vector<std::vector<Edge>> rows_;  ///< per-src, insertion order
  /// Per-src positions into rows_[src], sorted by Edge::dst.
  std::vector<std::vector<std::uint32_t>> row_index_;
  /// Dense frozen-core index: matrix_[src * frozen_n_ + dst].
  std::vector<Link*> matrix_;
  NodeId frozen_n_ = 0;
  std::uint64_t delivered_ = 0;
  RouteMissPolicy route_miss_policy_ = RouteMissPolicy::kStrict;
  std::uint64_t route_misses_ = 0;
  /// Sharded-run region map + boundary handoff (null when unsharded).
  const std::int32_t* region_of_ = nullptr;
  CrossRegionHandoff xregion_;
};

}  // namespace livenet::sim
