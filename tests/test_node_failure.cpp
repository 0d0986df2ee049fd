#include <gtest/gtest.h>

#include "client/broadcaster.h"
#include "client/viewer.h"
#include "livenet/system.h"

// §7.2 "Flexibility Provided by LiveNet": "we can easily circumvent the
// failed or overloaded nodes by migrating the tasks to others as
// instructed by the control plane." A relay dies mid-stream (all its
// links go black); the consumer's quality loop rescues the session and
// the next routing cycle stops using the dead node.
namespace livenet {
namespace {

TEST(NodeFailure, RelayDeathIsCircumvented) {
  SystemConfig cfg;
  cfg.countries = 3;
  cfg.nodes_per_country = 4;
  cfg.dns_candidates = 1;
  cfg.last_resort_nodes = 1;
  cfg.brain.routing_interval = 6 * kSec;
  cfg.overlay_node.report_interval = 2 * kSec;
  cfg.seed = 99;
  LiveNetSystem sys(cfg);
  client::ClientMetrics qoe;
  client::BroadcasterConfig bc;
  media::VideoSourceConfig vc;
  vc.fps = 25;
  vc.gop_frames = 25;
  vc.bitrate_bps = 1e6;
  bc.versions = {vc};
  client::Broadcaster bcast(&sys.network(), 1, bc);
  sys.build_once();
  sys.start();
  const auto producer =
      sys.attach_client(&bcast, sys.geo().sample_site(0));
  bcast.start(producer, {1});
  sys.loop().run_until(8 * kSec);

  client::Viewer viewer(&sys.network(), &qoe);
  const auto consumer =
      sys.attach_client(&viewer, sys.geo().sample_site(1));
  viewer.start_view(consumer, 1);
  sys.loop().run_until(16 * kSec);

  const auto* entry = sys.node(consumer).fib().find(1);
  ASSERT_NE(entry, nullptr);
  const auto relay = entry->upstream;
  if (relay == sim::kNoNode || relay == producer) {
    GTEST_SKIP() << "direct path: no relay to kill";
  }
  const auto frames_before = qoe.records().front().frames_displayed;
  ASSERT_GT(frames_before, 100u);

  // Kill the relay: every link touching it goes black (node crash as
  // seen from the network).
  for (const auto peer : sys.overlay_node_ids()) {
    if (peer == relay) continue;
    if (auto* l = sys.network().link(relay, peer)) l->set_loss_rate(1.0);
    if (auto* l = sys.network().link(peer, relay)) l->set_loss_rate(1.0);
  }
  sys.loop().run_until(40 * kSec);

  // The consumer re-routed off the dead relay...
  const auto* after = sys.node(consumer).fib().find(1);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after->upstream, relay);
  EXPECT_GE(sys.sessions().sessions().front().path_switches, 1);
  // ...and playback resumed (frames keep advancing).
  const auto& rec = qoe.records().front();
  EXPECT_GT(rec.frames_displayed, frames_before + 200);
}

TEST(NodeFailure, ThreeVersionLadderDowngradesStepwise) {
  // A 3-version simulcast ladder on a last mile that only sustains the
  // lowest version: the consumer walks the client down the ladder.
  SystemConfig cfg;
  cfg.countries = 2;
  cfg.nodes_per_country = 3;
  cfg.dns_candidates = 1;
  cfg.brain.routing_interval = 5 * kSec;
  cfg.overlay_node.report_interval = 2 * kSec;
  cfg.access_bandwidth_bps = 0.7e6;
  cfg.seed = 303;
  LiveNetSystem sys(cfg);
  client::ClientMetrics qoe;
  client::BroadcasterConfig bc;
  media::VideoSourceConfig v0, v1, v2;
  v0.fps = v1.fps = v2.fps = 25;
  v0.gop_frames = v1.gop_frames = v2.gop_frames = 25;
  v0.bitrate_bps = 2.4e6;
  v1.bitrate_bps = 1.2e6;
  v2.bitrate_bps = 0.4e6;
  bc.versions = {v0, v1, v2};
  client::Broadcaster bcast(&sys.network(), 4, bc);
  sys.build_once();
  sys.start();
  bcast.start(sys.attach_client(&bcast, sys.geo().sample_site(0)),
              {1, 2, 3});
  sys.loop().run_until(6 * kSec);

  client::Viewer viewer(&sys.network(), &qoe);
  const auto consumer =
      sys.attach_client(&viewer, sys.geo().sample_site(1));
  viewer.start_view(consumer, 1, {2, 3});
  sys.loop().run_until(60 * kSec);

  const auto& sess = sys.sessions().sessions().front();
  EXPECT_GE(sess.bitrate_downgrades, 2);  // walked 2.4M -> 1.2M -> 0.4M
  const auto* lowest = sys.node(consumer).fib().find(3);
  ASSERT_NE(lowest, nullptr);
  EXPECT_EQ(lowest->subscriber_clients.size(), 1u);
  // Two full downgrade cycles eat much of the run; playback must still
  // have made visible progress on the surviving version.
  EXPECT_GT(qoe.records().front().frames_displayed, 50u);
}

// Chaos: a node crash at the two most timer-laden moments — while a
// startup burst is being served and while a Brain path lookup is in
// flight — must leave no dangling events behind. The crashed node's
// linger/report/lookup-retry timers are cancelled or swept, so nothing
// fires later to recreate stream state, send reports, or re-issue
// lookups on behalf of a dead process. (The ASan smoke in
// bench/run_benches.sh runs these same tests to catch any event that
// survives and touches freed engine state.)
TEST(NodeFailure, CrashMidStartupBurstLeavesNoDanglingEvents) {
  SystemConfig cfg;
  cfg.countries = 2;
  cfg.nodes_per_country = 3;
  cfg.dns_candidates = 1;
  cfg.brain.routing_interval = 4 * kSec;
  cfg.overlay_node.report_interval = 2 * kSec;
  cfg.seed = 77;
  LiveNetSystem sys(cfg);
  client::ClientMetrics qoe;
  client::BroadcasterConfig bc;
  media::VideoSourceConfig vc;
  vc.fps = 25;
  vc.gop_frames = 25;
  vc.bitrate_bps = 1e6;
  bc.versions = {vc};
  client::Broadcaster bcast(&sys.network(), 1, bc);
  sys.build_once();
  sys.start();
  const auto producer = sys.attach_client(&bcast, sys.geo().sample_site(0));
  bcast.start(producer, {1});
  sys.loop().run_until(8 * kSec);

  client::Viewer viewer(&sys.network(), &qoe);
  const auto consumer = sys.attach_client(&viewer, sys.geo().sample_site(1));
  if (consumer == producer) GTEST_SKIP() << "viewer landed on the producer";
  viewer.start_view(consumer, 1);
  // Far enough for the view to be admitted and the startup burst to be
  // queued on the client pipeline, not far enough for it to drain.
  sys.loop().run_until(8 * kSec + 200 * kMs);
  sys.crash_node(consumer);
  const auto lookups_at_crash = sys.brain().metrics().path_requests.size();

  // Many report intervals and linger windows later: no event recreated
  // state on the dead node and no lookup was retried on its behalf.
  sys.loop().run_until(30 * kSec);
  EXPECT_EQ(sys.node(consumer).fib().stream_count(), 0u);
  EXPECT_EQ(sys.brain().metrics().path_requests.size(), lookups_at_crash);
}

TEST(NodeFailure, CrashMidPathRequestStopsRetries) {
  SystemConfig cfg;
  cfg.countries = 2;
  cfg.nodes_per_country = 3;
  cfg.dns_candidates = 1;
  cfg.brain.routing_interval = 4 * kSec;
  cfg.overlay_node.report_interval = 2 * kSec;
  cfg.seed = 78;
  LiveNetSystem sys(cfg);
  client::ClientMetrics qoe;
  client::BroadcasterConfig bc;
  media::VideoSourceConfig vc;
  vc.fps = 25;
  vc.gop_frames = 25;
  vc.bitrate_bps = 1e6;
  bc.versions = {vc};
  client::Broadcaster bcast(&sys.network(), 1, bc);
  sys.build_once();
  sys.start();
  const auto producer = sys.attach_client(&bcast, sys.geo().sample_site(0));
  bcast.start(producer, {1});
  sys.loop().run_until(8 * kSec);

  client::Viewer viewer(&sys.network(), &qoe);
  const auto consumer = sys.attach_client(&viewer, sys.geo().sample_site(1));
  if (consumer == producer) GTEST_SKIP() << "viewer landed on the producer";
  const auto lookups_before = sys.brain().metrics().path_requests.size();
  viewer.start_view(consumer, 1);

  // Step in 1 ms slices until the Brain has logged the lookup, then
  // crash the consumer while the response is still on the wire.
  Time t = 8 * kSec;
  while (sys.brain().metrics().path_requests.size() == lookups_before &&
         t < 12 * kSec) {
    t += 1 * kMs;
    sys.loop().run_until(t);
  }
  ASSERT_GT(sys.brain().metrics().path_requests.size(), lookups_before)
      << "viewer never triggered a path lookup";
  sys.crash_node(consumer);
  const auto lookups_at_crash = sys.brain().metrics().path_requests.size();

  // The response lands on a node with no matching pending lookup; the
  // retry timer (kPathRequestTimeout) finds its entry swept and dies.
  // Nothing re-establishes the stream or re-asks the Brain.
  sys.loop().run_until(40 * kSec);
  EXPECT_EQ(sys.node(consumer).fib().stream_count(), 0u);
  EXPECT_EQ(sys.brain().metrics().path_requests.size(), lookups_at_crash);
  EXPECT_EQ(qoe.records().front().frames_displayed, 0u);
}

}  // namespace
}  // namespace livenet
