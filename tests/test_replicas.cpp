#include <gtest/gtest.h>

#include "client/broadcaster.h"
#include "client/viewer.h"
#include "livenet/system.h"

// Replicated Path Decision (§7.1): replicas converge to the primary's
// PIB/SIB, serve lookups correctly, and shorten lookup round trips for
// consumers far from the primary.
namespace livenet {
namespace {

SystemConfig replica_config(int replicas) {
  SystemConfig cfg;
  cfg.countries = 3;
  cfg.nodes_per_country = 3;
  cfg.path_decision_replicas = replicas;
  cfg.dns_candidates = 1;
  cfg.brain.routing_interval = 5 * kSec;
  cfg.overlay_node.report_interval = 2 * kSec;
  cfg.seed = 4242;
  return cfg;
}

client::BroadcasterConfig one_version() {
  client::BroadcasterConfig bc;
  media::VideoSourceConfig vc;
  vc.fps = 25;
  vc.gop_frames = 25;
  vc.bitrate_bps = 1e6;
  bc.versions = {vc};
  return bc;
}

TEST(Replicas, ConvergeToPrimaryPib) {
  LiveNetSystem sys(replica_config(2));
  sys.build_once();
  sys.start();
  sys.loop().run_until(8 * kSec);  // a routing cycle + replication

  ASSERT_EQ(sys.replicas().size(), 2u);
  const auto& primary = sys.brain().pib();
  for (const auto& replica : sys.replicas()) {
    EXPECT_GT(replica->pib_version(), 0u);
    EXPECT_EQ(replica->pib().pair_count(), primary.pair_count());
    // Spot-check candidate equality for a few pairs.
    int checked = 0;
    for (const auto& [src, dst] : primary.pairs()) {
      if (++checked > 12) break;
      const auto* a = primary.find(src, dst);
      const auto* b = replica->pib().find(src, dst);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST(Replicas, SibUpdatesPropagate) {
  LiveNetSystem sys(replica_config(1));
  client::Broadcaster bcast(&sys.network(), 3, one_version());
  sys.build_once();
  sys.start();
  const auto producer =
      sys.attach_client(&bcast, sys.geo().sample_site(0));
  bcast.start(producer, {9});
  sys.loop().run_until(2 * kSec);
  ASSERT_EQ(sys.replicas().size(), 1u);
  EXPECT_EQ(sys.replicas()[0]->sib().producer_of(9), producer);

  bcast.stop();
  sys.loop().run_until(4 * kSec);
  EXPECT_EQ(sys.replicas()[0]->sib().producer_of(9), sim::kNoNode);
}

TEST(Replicas, LookupsServedByReplicaNotPrimary) {
  LiveNetSystem sys(replica_config(2));
  client::ClientMetrics qoe;
  client::Broadcaster bcast(&sys.network(), 3, one_version());
  sys.build_once();
  sys.start();
  bcast.start(sys.attach_client(&bcast, sys.geo().sample_site(0)), {1});
  sys.loop().run_until(8 * kSec);

  client::Viewer viewer(&sys.network(), &qoe);
  const auto consumer =
      sys.attach_client(&viewer, sys.geo().sample_site(1));
  viewer.start_view(consumer, 1);
  sys.loop().run_until(16 * kSec);

  // The lookup was answered by a replica; the primary saw none.
  std::size_t replica_requests = 0;
  for (const auto& r : sys.replicas()) {
    replica_requests += r->metrics().path_requests.size();
  }
  EXPECT_GE(replica_requests, 1u);
  EXPECT_EQ(sys.brain().metrics().path_requests.size(), 0u);

  // And the view works end to end.
  EXPECT_GT(qoe.records().front().frames_displayed, 100u);
  const auto& sess = sys.sessions().sessions().front();
  EXPECT_GE(sess.path_length, 0);
  EXPECT_NE(sess.path_response_rtt, kNever);
}

// The replica mirrors the primary's marks rather than re-deriving them:
// after every report or alarm, both PIBs answer the overload filter the
// same way — including an alarm raised for a hot link while the node
// itself is below the bar, and a report that clears cool links while
// the node stays above it.
TEST(Replicas, OverloadMarksMirrorToReplicas) {
  SystemConfig cfg = replica_config(1);
  cfg.overlay_node.report_interval = 1 * kHour;  // only scripted reports
  LiveNetSystem sys(cfg);
  sys.build_once();
  sys.start();
  sys.loop().run_until(2 * kSec);
  ASSERT_EQ(sys.replicas().size(), 1u);

  const auto& ids = sys.overlay_node_ids();
  const sim::NodeId src = ids[0], victim = ids[3], peer = ids[4];
  const brain::Pib& primary = sys.brain().pib();
  const brain::Pib& replica = sys.replicas()[0]->pib();
  Time now = 2 * kSec;
  auto deliver = [&](const sim::MessagePtr& msg) {
    sys.network().send(victim, sys.brain().node_id(), msg);
    now += 1 * kSec;
    sys.loop().run_until(now);
  };
  auto expect_agree = [&](bool victim_hot, bool link_hot) {
    EXPECT_EQ(primary.node_overloaded(victim), victim_hot);
    EXPECT_EQ(primary.is_invalid({victim, peer}), link_hot);
    EXPECT_EQ(replica.node_overloaded(victim),
              primary.node_overloaded(victim));
    EXPECT_EQ(replica.is_invalid({src, victim, peer}),
              primary.is_invalid({src, victim, peer}));
    EXPECT_EQ(replica.is_invalid({victim, peer}),
              primary.is_invalid({victim, peer}));
  };
  auto alarm = [&](double load, std::vector<sim::NodeId> links) {
    auto a = sim::make_message<overlay::OverloadAlarm>();
    a->node = victim;
    a->node_load = load;
    a->overloaded_links = std::move(links);
    deliver(a);
  };
  auto report = [&](double load, double peer_util) {
    auto r = sim::make_message<overlay::NodeStateReport>();
    r->node = victim;
    r->node_load = load;
    overlay::LinkReport lr;
    lr.to = peer;
    lr.rtt = 20 * kMs;
    lr.utilization = peer_util;
    r->links.push_back(lr);
    deliver(r);
  };

  {
    SCOPED_TRACE("hot node and hot link");
    alarm(0.95, {peer});
    expect_agree(true, true);
  }
  {
    SCOPED_TRACE("report above the node bar clears the cool link");
    report(0.9, 0.1);
    expect_agree(true, false);
  }
  {
    SCOPED_TRACE("healthy report clears the node");
    report(0.1, 0.1);
    expect_agree(false, false);
  }
  {
    SCOPED_TRACE("alarm for a hot link below the node bar");
    alarm(0.5, {peer});
    expect_agree(false, true);
  }
}

}  // namespace
}  // namespace livenet
