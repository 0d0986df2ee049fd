#include "livenet/sharded_scale.h"

#include <cassert>
#include <cstdio>
#include <deque>
#include <utility>
#include <vector>

#include "client/viewer_cohort.h"
#include "media/packetizer.h"
#include "media/rtp.h"
#include "media/video_source.h"
#include "overlay/messages.h"
#include "sim/shard.h"
#include "sim/sim_node.h"
#include "util/logging.h"

namespace livenet {
namespace {

using sim::MessagePtr;
using sim::NodeId;

// Underlay. Only source -> region-head links cross regions, so the
// conservative lookahead window equals kCrossRegionDelay.
constexpr Duration kCrossRegionDelay = 30 * kMs;
constexpr Duration kIntraRegionDelay = 4 * kMs;
constexpr Duration kAccessDelay = 10 * kMs;
constexpr double kCoreBandwidthBps = 1e9;

constexpr Time kSourceStart = 100 * kMs;
constexpr Time kJoinStart = 500 * kMs;
/// Nominal cohort joins spread evenly over this window (each then
/// perturbed by the cohort's seeded offset).
constexpr Duration kJoinWindow = 2 * kSec;

/// Per-link RNG seed as a pure function of (run seed, src, dst): the
/// same link gets the same randomness no matter which shard builds it
/// or in what order links are added.
std::uint64_t link_seed(std::uint64_t base, NodeId src, NodeId dst) {
  std::uint64_t x = base ^ (static_cast<std::uint64_t>(src) << 32) ^
                    (static_cast<std::uint64_t>(dst) + 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// The broadcast origin: packetizes a synthetic video stream and pushes
/// every packet to each region head (one shared trailer per fan-out —
/// the cross-region boundary deep-copies on its own; see shard.h).
class SourceNode final : public sim::SimNode {
 public:
  SourceNode(sim::Network* net, media::StreamId stream,
             const media::VideoSourceConfig& vcfg, std::uint64_t seed)
      : net_(net), source_(stream, vcfg, Rng(seed)), packetizer_(stream) {}

  void add_child(NodeId child) { children_.push_back(child); }

  void start() { tick(); }

  void on_message(NodeId, const MessagePtr&) override {
    // Pure origin: relays never talk upstream in this harness.
  }

 private:
  void tick() {
    const Time now = net_->loop()->now();
    const media::Frame frame = source_.next_frame(now);
    for (auto& pkt : packetizer_.packetize(frame)) {
      const media::RtpPacketPtr shared = std::move(pkt);
      for (const NodeId child : children_) {
        net_->send(node_id(), child, shared);
      }
    }
    net_->loop()->schedule_after(source_.frame_interval(), [this] { tick(); });
  }

  sim::Network* net_;
  media::VideoSource source_;
  media::Packetizer packetizer_;
  std::vector<NodeId> children_;
};

/// Static-tree relay: forwards every RTP packet to its children,
/// sharing the trailer (zero-copy within a region).
class RelayNode final : public sim::SimNode {
 public:
  explicit RelayNode(sim::Network* net) : net_(net) {}

  void add_child(NodeId child) { children_.push_back(child); }

  void on_message(NodeId, const MessagePtr& msg) override {
    if (sim::msg_cast<const media::RtpPacket>(msg) == nullptr) return;
    for (const NodeId child : children_) {
      net_->send(node_id(), child, msg);
    }
  }

 private:
  sim::Network* net_;
  std::vector<NodeId> children_;
};

/// Leaf consumer: speaks the thin-client protocol (§7.2) — answers
/// ViewRequest with an ok ViewAck, fans the stream out to subscribed
/// viewers, absorbs their reports and CC feedback.
class ConsumerNode final : public sim::SimNode {
 public:
  explicit ConsumerNode(sim::Network* net) : net_(net) {}

  void on_message(NodeId from, const MessagePtr& msg) override {
    if (sim::msg_cast<const media::RtpPacket>(msg) != nullptr) {
      for (const NodeId v : subscribers_) {
        net_->send(node_id(), v, msg);
      }
      return;
    }
    if (const auto req = sim::msg_cast<const overlay::ViewRequest>(msg)) {
      subscribers_.push_back(from);
      auto ack = sim::make_message<overlay::ViewAck>();
      ack->stream_id = req->stream_id;
      ack->ok = true;
      net_->send(node_id(), from, std::move(ack));
      return;
    }
    if (sim::msg_cast<const overlay::ViewStop>(msg) != nullptr) {
      for (std::size_t i = 0; i < subscribers_.size(); ++i) {
        if (subscribers_[i] == from) {
          subscribers_.erase(subscribers_.begin() +
                             static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      return;
    }
    if (sim::msg_cast<const overlay::ClientQualityReport>(msg) != nullptr) {
      ++reports_;
      return;
    }
    // NACKs / CC feedback: the harness links are lossless, so NACKs
    // never fire; feedback is absorbed (no pacer to steer).
  }

  std::uint64_t reports_received() const { return reports_; }

 private:
  sim::Network* net_;
  std::vector<NodeId> subscribers_;
  std::uint64_t reports_ = 0;
};

}  // namespace

struct ShardedScaleSim::Impl {
  explicit Impl(const ShardedScaleConfig& c)
      : cfg(c),
        sharded(c.shards, static_cast<std::size_t>(c.regions)),
        metrics(sharded.shards()) {}

  ShardedScaleConfig cfg;
  sim::ShardedSim sharded;
  std::deque<client::ClientMetrics> metrics;  ///< one per shard (thread)

  std::unique_ptr<SourceNode> source;
  std::deque<RelayNode> relays;       ///< heads + mid relays
  std::deque<ConsumerNode> consumers;
  std::vector<NodeId> consumer_ids;
  std::vector<std::int32_t> consumer_region;

  struct Cohort {
    std::unique_ptr<client::ViewerCohort> cohort;
    NodeId viewer_id = sim::kNoNode;
    NodeId consumer = sim::kNoNode;
    std::int32_t region = 0;
    Time nominal_join = 0;
  };
  std::vector<Cohort> cohorts;

  std::uint64_t infra_nodes = 0;
  std::uint64_t total_nodes = 0;
  bool ran = false;

  std::size_t home_shard(std::int32_t region) const {
    return sharded.shard_of_region(region);
  }

  /// Registers `node` (owned by `region`) under the same global id in
  /// every shard's Network.
  NodeId register_node(sim::SimNode* node, std::int32_t region) {
    const std::size_t home = home_shard(region);
    NodeId id = sim::kNoNode;
    for (std::size_t s = 0; s < sharded.shards(); ++s) {
      const NodeId got = s == home ? sharded.net(s).add_node(node)
                                   : sharded.net(s).add_remote_node();
      if (s == 0) {
        id = got;
      } else {
        assert(got == id && "shard id spaces diverged");
        (void)got;
      }
    }
    sharded.set_node_region(id, region);
    return id;
  }

  /// Directed link, added only in the Network owning the source node,
  /// with (seed, src, dst)-pure randomness.
  void link(NodeId src, NodeId dst, Duration delay, double bw_bps) {
    sim::LinkConfig lc;
    lc.propagation_delay = delay;
    lc.bandwidth_bps = bw_bps;
    lc.loss_rate = 0.0;  // lossless: keeps cohort counters exact
    lc.queue_limit_bytes = static_cast<std::size_t>(bw_bps * 0.25 / 8.0);
    const auto region =
        sharded.node_region(src);
    sharded.net(home_shard(region))
        .add_link(src, dst, lc, link_seed(cfg.seed, src, dst));
  }

  void build();
  ShardedScaleResult run();
};

void ShardedScaleSim::Impl::build() {
  const media::StreamId stream = 1;

  // -- Nodes, in one global order every shard replays identically.
  const std::int32_t src_region = 0;
  source = std::make_unique<SourceNode>(&sharded.net(home_shard(src_region)),
                                        stream, media::VideoSourceConfig(),
                                        cfg.seed ^ 0x51);
  const NodeId source_id = register_node(source.get(), src_region);

  std::vector<NodeId> head_ids;
  for (std::int32_t r = 0; r < cfg.regions; ++r) {
    relays.emplace_back(&sharded.net(home_shard(r)));
    head_ids.push_back(register_node(&relays.back(), r));
  }
  std::vector<std::vector<NodeId>> relay_ids(
      static_cast<std::size_t>(cfg.regions));
  for (std::int32_t r = 0; r < cfg.regions; ++r) {
    for (int i = 0; i < cfg.relays_per_region; ++i) {
      relays.emplace_back(&sharded.net(home_shard(r)));
      relay_ids[static_cast<std::size_t>(r)].push_back(
          register_node(&relays.back(), r));
    }
  }
  for (std::int32_t r = 0; r < cfg.regions; ++r) {
    for (int i = 0; i < cfg.relays_per_region; ++i) {
      for (int j = 0; j < cfg.consumers_per_relay; ++j) {
        consumers.emplace_back(&sharded.net(home_shard(r)));
        consumer_ids.push_back(register_node(&consumers.back(), r));
        consumer_region.push_back(r);
      }
    }
  }
  infra_nodes = 1 + head_ids.size() +
                static_cast<std::uint64_t>(cfg.regions) *
                    static_cast<std::uint64_t>(cfg.relays_per_region) *
                    (1 + static_cast<std::uint64_t>(cfg.consumers_per_relay));

  // -- Core links. Only source -> head crosses regions; the uniform
  // kCrossRegionDelay is therefore the lookahead window.
  for (std::int32_t r = 0; r < cfg.regions; ++r) {
    link(source_id, head_ids[static_cast<std::size_t>(r)],
         kCrossRegionDelay, kCoreBandwidthBps);
    source->add_child(head_ids[static_cast<std::size_t>(r)]);
  }
  {
    std::size_t consumer_idx = 0;
    std::size_t relay_obj = static_cast<std::size_t>(cfg.regions);
    for (std::int32_t r = 0; r < cfg.regions; ++r) {
      RelayNode& head = relays[static_cast<std::size_t>(r)];
      for (int i = 0; i < cfg.relays_per_region; ++i, ++relay_obj) {
        const NodeId rid = relay_ids[static_cast<std::size_t>(r)]
                                    [static_cast<std::size_t>(i)];
        link(head_ids[static_cast<std::size_t>(r)], rid,
             kIntraRegionDelay, kCoreBandwidthBps);
        head.add_child(rid);
        RelayNode& relay = relays[relay_obj];
        for (int j = 0; j < cfg.consumers_per_relay; ++j, ++consumer_idx) {
          const NodeId cid = consumer_ids[consumer_idx];
          link(rid, cid, kIntraRegionDelay, kCoreBandwidthBps);
          relay.add_child(cid);
        }
      }
    }
  }
  // Static infra complete: freeze before viewers attach so the dense
  // matrix covers only the core (clients ride the sorted-row path).
  for (std::size_t s = 0; s < sharded.shards(); ++s) {
    sharded.net(s).freeze_topology();
  }

  // -- One cohort per consumer leaf.
  cohorts.reserve(consumer_ids.size());
  for (std::size_t c = 0; c < consumer_ids.size(); ++c) {
    const std::int32_t r = consumer_region[c];
    const std::size_t home = home_shard(r);
    client::ViewerCohortConfig ccfg;
    ccfg.multiplier = cfg.viewers_per_leaf;
    auto cohort = std::make_unique<client::ViewerCohort>(
        &sharded.net(home), &metrics[home], cfg.seed ^ (0xC0F00Dull + c),
        ccfg);
    const NodeId vid = register_node(&cohort->viewer(), r);
    link(consumer_ids[c], vid, kAccessDelay, cfg.access_bandwidth_bps);
    link(vid, consumer_ids[c], kAccessDelay, cfg.access_bandwidth_bps);
    Cohort entry;
    entry.cohort = std::move(cohort);
    entry.viewer_id = vid;
    entry.consumer = consumer_ids[c];
    entry.region = r;
    cohorts.push_back(std::move(entry));
  }
  total_nodes = infra_nodes + cohorts.size();

  // Regions are final: install the boundary intercept + lookahead.
  sharded.start();

  // Scripted chaos: flap one source->head link. Owned by the source's
  // shard, toggled on that shard's own loop.
  if (cfg.flap_at != kNever && cfg.flap_region >= 0 &&
      cfg.flap_region < cfg.regions) {
    sim::Network& src_net = sharded.net(home_shard(src_region));
    sim::Link* l = src_net.link(
        source_id, head_ids[static_cast<std::size_t>(cfg.flap_region)]);
    sim::EventLoop* src_loop = src_net.loop();
    src_loop->schedule_at(cfg.flap_at, [l] { l->set_down(true); });
    src_loop->schedule_at(cfg.flap_at + cfg.flap_duration,
                          [l] { l->set_down(false); });
  }

  // -- Schedule the run.
  sharded.net(home_shard(src_region))
      .loop()
      ->schedule_at(kSourceStart, [src = source.get()] { src->start(); });
  const media::StreamId view_stream = stream;
  for (std::size_t c = 0; c < cohorts.size(); ++c) {
    Cohort& ch = cohorts[c];
    ch.nominal_join =
        kJoinStart + static_cast<Time>(c) * kJoinWindow /
                         static_cast<Time>(cohorts.size());
    // Cohorts view to the end of the run.
    ch.cohort->schedule_view(ch.consumer, view_stream, ch.nominal_join,
                             kNever);
  }
}

ShardedScaleResult ShardedScaleSim::Impl::run() {
  assert(!ran && "ShardedScaleSim::run() is single-shot");
  ran = true;
  build();
  sharded.run_until(cfg.duration);

  ShardedScaleResult out;
  out.infra_nodes = infra_nodes;
  out.total_nodes = total_nodes;
  out.lookahead = sharded.lookahead();
  out.cross_messages = sharded.cross_messages();
  out.cross_clones = sharded.cross_clones();
  out.cross_drops = sharded.cross_drops();
  for (std::size_t s = 0; s < sharded.shards(); ++s) {
    out.events += sharded.loop(s).dispatched();
    out.route_misses += sharded.net(s).route_miss_count();
    out.modeled_viewers += metrics[s].modeled_viewers();
  }

  // The shard-sweep golden: one row per cohort in global build order,
  // every field either integral or formatted at fixed precision from a
  // shard-count-invariant computation.
  std::string csv =
      "cohort,region,consumer,viewer,mult,join_ms,frames_displayed,"
      "frames_skipped,stalls,dead_air,stall_ms,reports,delay_mean_ms,"
      "delay_p95_ms,startup_ms\n";
  char row[512];
  for (std::size_t c = 0; c < cohorts.size(); ++c) {
    const Cohort& ch = cohorts[c];
    const auto& q = ch.cohort->qoe();
    const client::QoeRecord* rec = ch.cohort->viewer().record();
    const double delay_mean =
        rec != nullptr ? rec->streaming_delay_ms.mean() : 0.0;
    const Duration startup =
        rec != nullptr ? rec->startup_delay() : kNever;
    std::snprintf(
        row, sizeof(row),
        "%zu,%d,%d,%d,%u,%lld,%llu,%llu,%llu,%llu,%lld,%llu,%.3f,%.3f,%lld\n",
        c, ch.region, ch.consumer, ch.viewer_id, ch.cohort->multiplier(),
        static_cast<long long>(ch.cohort->join_time(ch.nominal_join) / kMs),
        static_cast<unsigned long long>(q.frames_displayed()),
        static_cast<unsigned long long>(q.frames_skipped()),
        static_cast<unsigned long long>(q.stalls()),
        static_cast<unsigned long long>(q.dead_air_stalls()),
        static_cast<long long>(q.total_stall_time_us() / kMs),
        static_cast<unsigned long long>(q.reports()),
        delay_mean, q.streaming_delay_ms().quantile(0.95),
        static_cast<long long>(startup == kNever ? -1 : startup / kMs));
    csv += row;
    out.frames_displayed += q.frames_displayed();
    out.stalls += q.stalls();
  }
  out.qoe_csv = std::move(csv);
  return out;
}

ShardedScaleSim::ShardedScaleSim(const ShardedScaleConfig& cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

ShardedScaleSim::~ShardedScaleSim() = default;

ShardedScaleResult ShardedScaleSim::run() { return impl_->run(); }

ShardedScaleConfig scale_acceptance_config(std::size_t shards,
                                           std::uint32_t viewers_per_leaf) {
  ShardedScaleConfig cfg;
  cfg.shards = shards;
  // 1 source + 6 x (1 head + 14 relays + 84 consumers) = 595 infra
  // nodes; 504 consumer leaves x viewers_per_leaf modeled viewers
  // (2000/leaf -> 1,008,000).
  cfg.regions = 6;
  cfg.relays_per_region = 14;
  cfg.consumers_per_relay = 6;
  cfg.viewers_per_leaf = viewers_per_leaf;
  cfg.duration = 10 * kSec;
  return cfg;
}

}  // namespace livenet
