#include <gtest/gtest.h>

#include <string>

#include "livenet/sharded_scale.h"
#include "media/rtp.h"
#include "sim/network.h"
#include "sim/shard.h"

// Sharded-simulation coverage (ISSUE 7 tentpole b + satellite 2):
//  - routing misses are reason-coded SendResult drops under both the
//    strict and lenient policies (no abort in either mode);
//  - the shard boundary moves sole-reference transfer-safe messages,
//    deep-copies shared/unsafe ones, and loudly drops unclonable ones;
//  - the ShardedScaleSim golden (QoE CSV + counters) is byte-identical
//    for shards in {1, 2, 4, 8}, with and without a scripted link flap.
namespace livenet::sim {
namespace {

class Recorder final : public SimNode {
 public:
  void on_message(NodeId, const MessagePtr& msg) override {
    ++received;
    last = msg->describe();
  }
  std::uint64_t received = 0;
  std::string last;
};

/// Plain-data test message: movable through the boundary when the
/// handoff holds the only reference, cloneable otherwise.
class Ping final : public CloneableMessage<Ping> {
 public:
  std::size_t wire_size() const override { return 64; }
  std::string describe() const override { return "Ping"; }
};

/// Deliberately sticks with Message's conservative defaults: not
/// transfer-safe, clone_message() == nullptr. Crossing a shard must
/// drop it and bump cross_drops().
class Opaque final : public Message {
 public:
  std::size_t wire_size() const override { return 64; }
  std::string describe() const override { return "Opaque"; }
};

// ---------------------------------------------------------- route miss

TEST(RouteMiss, StrictPolicyReasonCodesWithoutAborting) {
  EventLoop loop;
  Network net(&loop);
  Recorder a, b;
  const NodeId ida = net.add_node(&a);
  const NodeId idb = net.add_node(&b);
  ASSERT_EQ(net.route_miss_policy(), Network::RouteMissPolicy::kStrict);

  const SendResult r = net.send_ex(ida, idb, make_message<Ping>());
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.arrival_time, kNever);
  EXPECT_EQ(r.drop, SendDrop::kNoRoute);
  EXPECT_EQ(net.route_miss_count(), 1u);

  // The post-freeze dense-matrix path must take the same downgrade: a
  // frozen pair with no link is a kNoRoute drop, not an abort.
  LinkConfig lc;
  lc.propagation_delay = 1 * kMs;
  net.add_link(ida, idb, lc);
  net.freeze_topology();
  EXPECT_FALSE(net.send_ex(idb, ida, make_message<Ping>()).delivered);
  EXPECT_EQ(net.send_ex(idb, ida, make_message<Ping>()).drop,
            SendDrop::kNoRoute);
  EXPECT_EQ(net.route_miss_count(), 3u);

  // The existing direction still delivers.
  EXPECT_TRUE(net.send(ida, idb, make_message<Ping>()));
  loop.run_until(10 * kMs);
  EXPECT_EQ(b.received, 1u);
}

TEST(RouteMiss, LenientPolicyCountsIdentically) {
  EventLoop loop;
  Network net(&loop);
  Recorder a, b;
  const NodeId ida = net.add_node(&a);
  const NodeId idb = net.add_node(&b);
  net.set_route_miss_policy(Network::RouteMissPolicy::kLenient);

  for (int i = 0; i < 5; ++i) {
    const SendResult r = net.send_ex(ida, idb, make_message<Ping>());
    EXPECT_FALSE(r.delivered);
    EXPECT_EQ(r.drop, SendDrop::kNoRoute);
  }
  EXPECT_EQ(net.route_miss_count(), 5u);
}

// ------------------------------------------------------ shard boundary

/// Two regions on two shards, one cross-region link a -> b.
struct TwoShardFixture {
  ShardedSim sharded{2, 2};
  Recorder sender;
  Recorder receiver;
  NodeId a = kNoNode;
  NodeId b = kNoNode;

  TwoShardFixture() {
    a = sharded.net(0).add_node(&sender);
    EXPECT_EQ(sharded.net(1).add_remote_node(), a);
    b = sharded.net(1).add_node(&receiver);
    EXPECT_EQ(sharded.net(0).add_remote_node(), b);
    sharded.set_node_region(a, 0);
    sharded.set_node_region(b, 1);
    LinkConfig lc;
    lc.propagation_delay = 10 * kMs;
    lc.jitter_stddev = 0;
    lc.loss_rate = 0.0;
    sharded.net(0).add_link(a, b, lc, 7);
    sharded.start();
    EXPECT_EQ(sharded.lookahead(), 10 * kMs);
  }
};

TEST(ShardBoundary, SoleReferenceTransferSafeMessageMovesWithoutClone) {
  TwoShardFixture f;
  f.sharded.net(0).send(f.a, f.b, make_message<Ping>());
  f.sharded.run_until(100 * kMs);
  EXPECT_EQ(f.receiver.received, 1u);
  EXPECT_EQ(f.receiver.last, "Ping");
  EXPECT_EQ(f.sharded.cross_messages(), 1u);
  EXPECT_EQ(f.sharded.cross_clones(), 0u);  // moved through, not copied
  EXPECT_EQ(f.sharded.cross_drops(), 0u);
}

TEST(ShardBoundary, RetainedReferenceForcesDeepCopy) {
  TwoShardFixture f;
  const auto msg = make_message<Ping>();
  f.sharded.net(0).send(f.a, f.b, msg);  // test still holds a reference
  f.sharded.run_until(100 * kMs);
  EXPECT_EQ(f.receiver.received, 1u);
  EXPECT_EQ(f.sharded.cross_messages(), 1u);
  EXPECT_EQ(f.sharded.cross_clones(), 1u);
}

TEST(ShardBoundary, RtpPacketAlwaysDeepCopiesItsSharedBody) {
  TwoShardFixture f;
  const std::uint64_t copies_before = media::RtpBody::deep_copy_count();
  media::RtpBody body;
  body.stream_id = 3;
  body.seq = 41;
  body.payload_bytes = 1200;
  f.sharded.net(0).send(f.a, f.b, media::RtpPacket::make(std::move(body)));
  f.sharded.run_until(100 * kMs);
  EXPECT_EQ(f.receiver.received, 1u);
  // Even at refcount 1 the trailer shares a non-atomic body refcount
  // with the sending shard: never moved, always the counted deep copy.
  EXPECT_EQ(f.sharded.cross_clones(), 1u);
  EXPECT_EQ(media::RtpBody::deep_copy_count(), copies_before + 1);
}

TEST(ShardBoundary, UncloneableMessageIsDroppedAndCounted) {
  TwoShardFixture f;
  f.sharded.net(0).send(f.a, f.b, make_message<Opaque>());
  f.sharded.run_until(100 * kMs);
  EXPECT_EQ(f.receiver.received, 0u);
  EXPECT_EQ(f.sharded.cross_messages(), 1u);
  EXPECT_EQ(f.sharded.cross_drops(), 1u);
}

// --------------------------------------------------------- shard sweep

ShardedScaleConfig sweep_config(std::size_t shards) {
  ShardedScaleConfig cfg;
  cfg.shards = shards;
  cfg.regions = 8;
  cfg.relays_per_region = 1;
  cfg.consumers_per_relay = 1;
  cfg.viewers_per_leaf = 250;
  cfg.duration = 3 * kSec;
  return cfg;
}

void expect_same_world(const ShardedScaleResult& base,
                       const ShardedScaleResult& got) {
  EXPECT_EQ(got.qoe_csv, base.qoe_csv);
  // Every delivery and timer is one event whichever loop hosts it, so
  // the summed work count is shard-count invariant too.
  EXPECT_GT(got.events, 0u);
  EXPECT_EQ(got.events, base.events);
  EXPECT_EQ(got.modeled_viewers, base.modeled_viewers);
  EXPECT_EQ(got.cross_messages, base.cross_messages);
  EXPECT_EQ(got.cross_clones, base.cross_clones);
  EXPECT_EQ(got.cross_drops, base.cross_drops);
  EXPECT_EQ(got.route_misses, base.route_misses);
  EXPECT_EQ(got.frames_displayed, base.frames_displayed);
  EXPECT_EQ(got.stalls, base.stalls);
  EXPECT_EQ(got.lookahead, base.lookahead);
}

TEST(ShardSweep, GoldenIsByteIdenticalForEveryShardCount) {
  const ShardedScaleResult base = ShardedScaleSim(sweep_config(1)).run();
  EXPECT_GT(base.frames_displayed, 0u);
  EXPECT_GT(base.cross_messages, 0u);
  EXPECT_EQ(base.cross_drops, 0u);
  EXPECT_EQ(base.route_misses, 0u);
  EXPECT_EQ(base.modeled_viewers, 8u * 250u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(shards);
    const ShardedScaleResult got = ShardedScaleSim(sweep_config(shards)).run();
    expect_same_world(base, got);
  }
}

TEST(ShardSweep, ChaosFlapStaysShardCountInvariant) {
  auto chaos = [](std::size_t shards) {
    ShardedScaleConfig cfg = sweep_config(shards);
    cfg.flap_at = 1200 * kMs;
    cfg.flap_duration = 400 * kMs;
    cfg.flap_region = 3;
    return cfg;
  };
  const ShardedScaleResult calm = ShardedScaleSim(sweep_config(1)).run();
  const ShardedScaleResult base = ShardedScaleSim(chaos(1)).run();
  // The flap must actually perturb the world, or invariance is vacuous.
  EXPECT_NE(base.qoe_csv, calm.qoe_csv);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(shards);
    const ShardedScaleResult got = ShardedScaleSim(chaos(shards)).run();
    expect_same_world(base, got);
  }
}

}  // namespace
}  // namespace livenet::sim
