#include <gtest/gtest.h>

#include "brain/brain.h"
#include "brain/global_discovery.h"
#include "brain/path_decision.h"
#include "brain/stream_mgmt.h"
#include "sim/network.h"

// Unit tests for the Streaming Brain's modules beyond routing: Global
// Discovery state keeping, overload invalidation lifecycles, Stream
// Management popularity, and the BrainNode service-queue model.
namespace livenet::brain {
namespace {

overlay::NodeStateReport report(sim::NodeId n, double load,
                                std::initializer_list<sim::NodeId> peers,
                                double util = 0.1) {
  overlay::NodeStateReport rep;
  rep.node = n;
  rep.node_load = load;
  for (const auto p : peers) {
    overlay::LinkReport lr;
    lr.to = p;
    lr.rtt = 40 * kMs;
    lr.loss_rate = 0.001;
    lr.utilization = util;
    rep.links.push_back(lr);
  }
  return rep;
}

TEST(GlobalDiscovery, KeepsLatestView) {
  GlobalDiscovery d;
  d.on_report(report(1, 0.3, {2, 3}), 100, nullptr);
  d.on_report(report(1, 0.5, {2}), 200, nullptr);
  EXPECT_DOUBLE_EQ(d.node_load(1), 0.5);
  ASSERT_NE(d.link(1, 2), nullptr);
  EXPECT_EQ(d.link(1, 2)->rtt, 40 * kMs);
  // Links persist across reports (stale entries age, not vanish).
  EXPECT_NE(d.link(1, 3), nullptr);
  EXPECT_EQ(d.link(2, 1), nullptr);  // directional
}

TEST(GlobalDiscovery, AlarmMarksAndHealthyReportClears) {
  GlobalDiscovery d(0.8);
  Pib pib;
  pib.set_paths(0, 2, {{0, 1, 2}});

  overlay::OverloadAlarm alarm;
  alarm.node = 1;
  alarm.node_load = 0.9;
  d.on_alarm(alarm, &pib);
  EXPECT_TRUE(pib.valid_paths(0, 2).empty());

  d.on_report(report(1, 0.4, {0, 2}), 300, &pib);
  EXPECT_EQ(pib.valid_paths(0, 2).size(), 1u);
}

TEST(GlobalDiscovery, LinkAlarmInvalidatesOnlyAffectedPaths) {
  GlobalDiscovery d(0.8);
  Pib pib;
  pib.set_paths(0, 3, {{0, 1, 3}, {0, 2, 3}});

  overlay::OverloadAlarm alarm;
  alarm.node = 1;
  alarm.node_load = 0.2;  // node fine, one link hot
  alarm.overloaded_links = {3};
  d.on_alarm(alarm, &pib);
  const auto valid = pib.valid_paths(0, 3);
  ASSERT_EQ(valid.size(), 1u);
  EXPECT_EQ(valid[0][1], 2);
}

TEST(StreamMgmt, PopularityRanksByRequests) {
  StreamMgmt mgmt;
  Sib sib;
  for (media::StreamId s = 1; s <= 4; ++s) sib.set_producer(s, 1);
  mgmt.note_request(2);
  mgmt.note_request(2);
  mgmt.note_request(2);
  mgmt.note_request(3);
  mgmt.note_request(3);
  mgmt.note_request(4);
  const auto top = mgmt.popular_streams(2, sib);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 2u);
  EXPECT_EQ(top[1], 3u);
}

TEST(StreamMgmt, PinnedStreamsComeFirst) {
  StreamMgmt mgmt;
  Sib sib;
  for (media::StreamId s = 1; s <= 3; ++s) sib.set_producer(s, 1);
  mgmt.note_request(1);
  mgmt.note_request(1);
  mgmt.mark_popular(3);  // campaign notified in advance
  const auto top = mgmt.popular_streams(2, sib);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 1u);
}

TEST(StreamMgmt, EndedStreamsDropOut) {
  StreamMgmt mgmt;
  Sib sib;
  overlay::StreamRegister reg;
  reg.stream_id = 9;
  reg.producer = 4;
  reg.active = true;
  mgmt.on_register(reg, &sib);
  EXPECT_EQ(sib.producer_of(9), 4);
  mgmt.note_request(9);

  reg.active = false;
  mgmt.on_register(reg, &sib);
  EXPECT_EQ(sib.producer_of(9), sim::kNoNode);
  EXPECT_TRUE(mgmt.popular_streams(3, sib).empty());
}

// ------------------------------------------------------------- BrainNode

class Probe final : public sim::SimNode {
 public:
  void on_message(sim::NodeId, const sim::MessagePtr& msg) override {
    if (auto resp =
            sim::msg_cast<const overlay::PathResponse>(msg)) {
      responses.push_back(resp);
    }
  }
  std::vector<sim::IntrusivePtr<const overlay::PathResponse>> responses;
};

TEST(BrainNode, ServiceQueueBuildsResponseTimeUnderBurst) {
  sim::EventLoop loop;
  sim::Network net(&loop);
  BrainConfig cfg;
  cfg.request_service_time = 2 * kMs;
  BrainNode brain(&net, cfg);
  const auto brain_id = net.add_node(&brain);
  Probe consumer;
  const auto cid = net.add_node(&consumer);
  sim::LinkConfig lc;
  lc.propagation_delay = 1 * kMs;
  lc.jitter_stddev = 0;
  net.add_bidi_link(brain_id, cid, lc);

  // Register a stream and give the brain a trivial PIB entry.
  auto reg = sim::make_message<overlay::StreamRegister>();
  reg->stream_id = 5;
  reg->producer = 7;
  net.send(cid, brain_id, reg);
  loop.run_until(10 * kMs);

  // A burst of 10 simultaneous requests: the i-th waits i service times.
  for (int i = 0; i < 10; ++i) {
    auto req = sim::make_message<overlay::PathRequest>();
    req->request_id = static_cast<std::uint64_t>(i + 1);
    req->stream_id = 5;
    req->consumer = cid;
    net.send(cid, brain_id, req);
  }
  loop.run_until(1 * kSec);

  ASSERT_EQ(brain.metrics().path_requests.size(), 10u);
  const auto& logs = brain.metrics().path_requests;
  EXPECT_EQ(logs.front().response_time, 2 * kMs);
  EXPECT_EQ(logs.back().response_time, 20 * kMs);  // queued behind 9
  EXPECT_EQ(consumer.responses.size(), 10u);
}

TEST(BrainNode, DiscoveryUsesTheRoutingOverloadThreshold) {
  // One overload bar for the whole Brain: lowering the solver's
  // threshold must also lower the one alarms are marked against.
  sim::EventLoop loop;
  sim::Network net(&loop);
  BrainConfig cfg;
  cfg.routing.overload_threshold = 0.6;
  BrainNode brain(&net, cfg);
  const auto brain_id = net.add_node(&brain);
  Probe node;
  const auto nid = net.add_node(&node);
  sim::LinkConfig lc;
  lc.propagation_delay = 1 * kMs;
  net.add_bidi_link(brain_id, nid, lc);

  auto alarm = sim::make_message<overlay::OverloadAlarm>();
  alarm->node = nid;
  alarm->node_load = 0.7;
  net.send(nid, brain_id, alarm);
  loop.run_until(1 * kSec);

  EXPECT_TRUE(brain.pib().node_overloaded(nid));
}

TEST(BrainNode, UnknownStreamYieldsEmptyPaths) {
  sim::EventLoop loop;
  sim::Network net(&loop);
  BrainNode brain(&net);
  const auto brain_id = net.add_node(&brain);
  Probe consumer;
  const auto cid = net.add_node(&consumer);
  sim::LinkConfig lc;
  lc.propagation_delay = 1 * kMs;
  net.add_bidi_link(brain_id, cid, lc);

  auto req = sim::make_message<overlay::PathRequest>();
  req->request_id = 1;
  req->stream_id = 404;
  req->consumer = cid;
  net.send(cid, brain_id, req);
  loop.run_until(1 * kSec);

  ASSERT_EQ(consumer.responses.size(), 1u);
  EXPECT_TRUE(consumer.responses[0]->paths.empty());
}

TEST(BrainNode, ZeroLengthPathWhenConsumerIsProducer) {
  sim::EventLoop loop;
  sim::Network net(&loop);
  BrainNode brain(&net);
  const auto brain_id = net.add_node(&brain);
  Probe consumer;
  const auto cid = net.add_node(&consumer);
  sim::LinkConfig lc;
  lc.propagation_delay = 1 * kMs;
  net.add_bidi_link(brain_id, cid, lc);

  auto reg = sim::make_message<overlay::StreamRegister>();
  reg->stream_id = 5;
  reg->producer = cid;  // same node
  net.send(cid, brain_id, reg);
  loop.run_until(10 * kMs);

  auto req = sim::make_message<overlay::PathRequest>();
  req->request_id = 1;
  req->stream_id = 5;
  req->consumer = cid;
  net.send(cid, brain_id, req);
  loop.run_until(1 * kSec);

  ASSERT_EQ(consumer.responses.size(), 1u);
  ASSERT_EQ(consumer.responses[0]->paths.size(), 1u);
  EXPECT_EQ(overlay::path_length(consumer.responses[0]->paths[0]), 0);
}

// ------------------------------------------------ PathDecision lookups

void expect_lookup(const PathDecision& pd, media::StreamId s,
                   sim::NodeId consumer, std::vector<overlay::Path> paths,
                   bool last_resort = false, bool known = true) {
  const PathDecision::Lookup got = pd.get_path(s, consumer);
  EXPECT_EQ(got.stream_known, known);
  EXPECT_EQ(got.last_resort, last_resort);
  EXPECT_EQ(got.paths, paths);
}

/// Every kind of PIB/SIB mutation the control plane performs shows up
/// in the next lookup.
TEST(PathDecision, LookupTracksPibChurn) {
  Pib pib;
  Sib sib;
  sib.set_producer(7, 0);
  pib.set_paths(0, 3, {{0, 1, 3}, {0, 2, 3}});
  pib.set_last_resort(0, 3, {0, 5, 3});
  PathDecision pd(&pib, &sib);

  expect_lookup(pd, 7, 3, {{0, 1, 3}, {0, 2, 3}});
  pib.mark_node_overloaded(1);  // kills candidate {0,1,3}
  expect_lookup(pd, 7, 3, {{0, 2, 3}});
  pib.mark_node_overloaded(2);  // kills the rest: last resort serves
  expect_lookup(pd, 7, 3, {{0, 5, 3}}, /*last_resort=*/true);
  pib.clear_node_overloaded(1);
  expect_lookup(pd, 7, 3, {{0, 1, 3}});
  pib.mark_link_overloaded(0, 2);
  expect_lookup(pd, 7, 3, {{0, 1, 3}});
  pib.mark_link_overloaded(0, 1);
  expect_lookup(pd, 7, 3, {{0, 5, 3}}, /*last_resort=*/true);
  pib.clear_link_overloaded(0, 1);
  expect_lookup(pd, 7, 3, {{0, 1, 3}});
  pib.set_paths(0, 3, {{0, 4, 3}});  // route reinstall
  expect_lookup(pd, 7, 3, {{0, 4, 3}});

  // Producer migration: the stream re-keys to a different pair. Node 2
  // is still marked, but endpoints are exempt from the node check.
  sib.set_producer(7, 2);
  pib.set_paths(2, 3, {{2, 3}});
  expect_lookup(pd, 7, 3, {{2, 3}});
  // Unknown stream and producer == consumer corners.
  expect_lookup(pd, 999, 3, {}, false, /*known=*/false);
  expect_lookup(pd, 7, 2, {{2}});

  // Global Routing's double-buffered install path.
  Pib scratch;
  scratch.set_paths(2, 3, {{2, 6, 3}});
  pib.swap_routes(&scratch);
  expect_lookup(pd, 7, 3, {{2, 6, 3}});
  pib.swap_routes(&scratch);  // and back
  expect_lookup(pd, 7, 3, {{2, 3}});
  pib.clear();
  expect_lookup(pd, 7, 3, {});
}

}  // namespace
}  // namespace livenet::brain
