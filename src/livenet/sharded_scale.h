#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "media/video_source.h"
#include "sim/shard.h"
#include "util/time.h"

// Million-viewer scale harness (ROADMAP open item 1): a static
// distribution tree — source -> per-region head -> relays -> consumer
// leaves — with a client::ViewerCohort on every leaf, partitioned by
// region onto a sim::ShardedSim. The full LiveNet control plane
// (Brain, path decision, overlay subscribe) is deliberately absent:
// this harness measures how far the *data plane + viewer pipelines*
// scale when regions run on parallel event loops, and its QoE CSV is
// the shard-sweep golden — byte-identical for every shard count by the
// ShardedSim determinism argument (see DESIGN.md "Sharded simulation").
//
// Node-id discipline: every shard's Network registers the same global
// id sequence (add_node for locally-owned nodes, add_remote_node for
// foreign ones) and a link lives only in the Network owning its source
// node, added through the seeded add_link overload so per-link
// randomness is a pure function of (seed, src, dst) rather than of
// which shard forked the Network RNG first.
namespace livenet {

struct ShardedScaleConfig {
  std::size_t shards = 1;  ///< clamped to [1, regions]
  int regions = 2;
  int relays_per_region = 2;
  int consumers_per_relay = 2;
  /// One ViewerCohort per consumer leaf, each standing for this many
  /// modeled viewers (the tentpole's aggregate-population knob).
  std::uint32_t viewers_per_leaf = 10;
  Time duration = 6 * kSec;
  std::uint64_t seed = 42;
  media::VideoSourceConfig video;  ///< one broadcast, video flow only

  // Underlay. Only source -> region-head links cross regions, so the
  // conservative lookahead window equals cross_region_delay.
  Duration cross_region_delay = 30 * kMs;
  Duration intra_region_delay = 4 * kMs;
  Duration access_delay = 10 * kMs;
  double core_bandwidth_bps = 1e9;
  double access_bandwidth_bps = 50e6;

  /// Optional scripted chaos: the source -> head-of-`flap_region` link
  /// goes down at flap_at and comes back after flap_duration (kNever
  /// disables). The toggle runs on the link owner's loop, so the fault
  /// — like everything else — is shard-count-invariant.
  Time flap_at = kNever;
  Duration flap_duration = 500 * kMs;
  int flap_region = 1;

  Time source_start = 100 * kMs;
  Time join_start = 500 * kMs;
  /// Nominal cohort joins spread evenly over this window (each then
  /// perturbed by the cohort's seeded offset).
  Duration join_window = 2 * kSec;
  /// 0 = view to the end of the run; otherwise leave after this long.
  Duration view_time = 0;
};

struct ShardedScaleResult {
  /// Per-cohort QoE rows in global cohort order — the shard-sweep
  /// golden artifact. Byte-identical across shard counts.
  std::string qoe_csv;
  std::uint64_t infra_nodes = 0;   ///< source + heads + relays + consumers
  std::uint64_t total_nodes = 0;   ///< infra + cohort representative viewers
  std::uint64_t modeled_viewers = 0;
  /// Events dispatched, summed over shard loops. Shard-count invariant:
  /// every delivery and timer is one event whichever loop hosts it.
  std::uint64_t events = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t cross_clones = 0;
  std::uint64_t cross_drops = 0;
  std::uint64_t route_misses = 0;
  std::uint64_t frames_displayed = 0;  ///< weighted by cohort multiplier
  std::uint64_t stalls = 0;            ///< weighted by cohort multiplier
  Time lookahead = 0;
};

class ShardedScaleSim {
 public:
  explicit ShardedScaleSim(const ShardedScaleConfig& cfg);
  ~ShardedScaleSim();
  ShardedScaleSim(const ShardedScaleSim&) = delete;
  ShardedScaleSim& operator=(const ShardedScaleSim&) = delete;

  /// Builds, runs for cfg.duration, and reports. Call once.
  ShardedScaleResult run();

  /// The underlying sharded runtime (diagnostics, tests).
  sim::ShardedSim& sharded();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The 600-infra-node / >= 1M-modeled-viewer configuration the scale
/// acceptance runs use (identical topology regardless of `shards`).
ShardedScaleConfig scale_acceptance_config(std::size_t shards,
                                           std::uint32_t viewers_per_leaf);

}  // namespace livenet
