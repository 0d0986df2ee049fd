#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/event_loop.h"
#include "sim/network.h"

// Sharded conservative parallel simulation (ROADMAP open item 1).
//
// The simulated world is partitioned by *region* (a country/node-group;
// the harness assigns every node one), regions are mapped onto S shards
// (shard = region % S), and each shard owns a private EventLoop +
// Network pair running on its own thread. The only inter-shard coupling
// is message traffic on cross-region links, and those links have real
// propagation delay — which buys lookahead, the classical conservative
// synchronization argument (Chandy/Misra):
//
//   Let W = min propagation delay over all cross-region links, computed
//   at start(). A link guarantees arrival >= send_time + propagation
//   (serialization, queueing, fault extra delay and |jitter| only add).
//   Run every shard independently over the window [kW, (k+1)W): any
//   cross-region message it emits has arrival >= kW + W = (k+1)W, i.e.
//   lands at or after the *next* window. So parking boundary traffic in
//   per-(src,dst)-shard queues during the window and integrating it at
//   a full barrier between windows delivers every message before the
//   window that could observe it — no shard ever receives an event in
//   its past, with zero rollback machinery.
//
// Determinism across shard counts: the partition must not leak into the
// goldens, so the boundary path is taken for every cross-REGION message
// in every mode — including S = 1 — and integration is keyed purely on
// region-level identities: entries sort by (arrival, src region,
// per-region emission counter) before delivery, each as one plain loop
// event, like every local delivery. Within a window regions
// are causally independent, so each region's dispatch sequence — and
// therefore its emission counters and all of its state — is identical
// whether its loop hosts one region or many. See DESIGN.md "Sharded
// simulation" for the full argument and the pool-safety rules.
//
// Message handoff: a shard's pools, refcounts and metrics are
// thread-local, so a message crossing the boundary is either *moved*
// (sole reference + Message::transfer_safe()) or *deep-copied* via
// Message::clone_message() on the sending thread; unclonable messages
// are dropped loudly and counted.
namespace livenet::sim {

class ShardedSim {
 public:
  /// `shards` loops/threads over `regions` partition groups. shards is
  /// clamped to [1, regions] (an empty shard would just idle).
  ShardedSim(std::size_t shards, std::size_t regions);

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  std::size_t shards() const { return shards_; }
  std::size_t regions() const { return regions_; }
  std::size_t shard_of_region(std::int32_t region) const {
    return static_cast<std::size_t>(region) % shards_;
  }

  EventLoop& loop(std::size_t shard) { return loops_[shard]; }
  Network& net(std::size_t shard) { return *nets_[shard]; }

  /// Declares node `id`'s region. Every shard's Network must register
  /// the same global id space (local nodes via add_node, foreign ones
  /// via add_remote_node), and every node needs a region before
  /// start().
  void set_node_region(NodeId id, std::int32_t region);
  std::int32_t node_region(NodeId id) const {
    return region_of_[static_cast<std::size_t>(id)];
  }

  /// Call once after the topology is built and frozen: computes the
  /// lookahead window from the cross-region links present and installs
  /// the boundary intercept on every shard's Network.
  void start();

  /// Runs all shards to `end` (inclusive, like EventLoop::run_until) in
  /// conservative windows. S = 1 runs inline on the caller's thread;
  /// otherwise the caller runs shard 0 and S-1 workers run the rest,
  /// with worker telemetry merged into the caller's registry at join.
  void run_until(Time end);

  /// The conservative window width (min cross-region propagation).
  Time lookahead() const { return lookahead_; }

  // Boundary diagnostics (totals across shards).
  std::uint64_t cross_messages() const { return cross_count_.load(std::memory_order_relaxed); }
  std::uint64_t cross_clones() const { return clone_count_.load(std::memory_order_relaxed); }
  /// Messages dropped at the boundary for lacking a clone path.
  std::uint64_t cross_drops() const { return drop_count_.load(std::memory_order_relaxed); }

 private:
  /// One parked boundary message. Sort key (arrival, src_region,
  /// out_seq) is shard-count-invariant: the emission counter is per
  /// region, and a region's send order never depends on loop co-tenancy.
  struct CrossEntry {
    Time arrival;
    std::int32_t src_region;
    std::uint64_t out_seq;
    NodeId src;
    NodeId dst;
    MessagePtr msg;
  };
  using Barrier = std::barrier<>;

  void on_cross(std::size_t src_shard, NodeId src, NodeId dst, Time arrival,
                MessagePtr msg);
  /// Drains every queue targeting `shard`, sorts, schedules deliveries.
  void integrate(std::size_t shard);
  void window_loop(std::size_t shard, Time end, Barrier* bar);

  std::size_t shards_;
  std::size_t regions_;
  std::deque<EventLoop> loops_;  ///< deque: loops are not movable
  std::vector<std::unique_ptr<Network>> nets_;
  std::vector<std::int32_t> region_of_;       ///< by NodeId
  std::vector<std::uint64_t> region_out_seq_; ///< by region; owner-shard only
  /// queues_[src_shard * shards_ + dst_shard]: written by src during a
  /// window, drained by dst between the two barriers — the barrier is
  /// the only synchronization the handoff needs.
  std::vector<std::vector<CrossEntry>> queues_;
  std::vector<std::vector<CrossEntry>> integrate_scratch_;  ///< per shard
  Time lookahead_ = 0;
  bool started_ = false;
  std::atomic<std::uint64_t> cross_count_{0};
  std::atomic<std::uint64_t> clone_count_{0};
  std::atomic<std::uint64_t> drop_count_{0};
};

}  // namespace livenet::sim
