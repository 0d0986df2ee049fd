#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "overlay/messages.h"
#include "overlay/overlay_node.h"
#include "overlay/stream_context.h"
#include "sim/event_loop.h"
#include "sim/network.h"

// The unified StreamTable (FIB view vs. context view) and the stream
// lifecycle invariant it exists to enforce: per-stream state — in
// particular in-flight path lookups and their retry timers — must die
// with the stream. The old split-map node leaked `pending_path_reqs_`
// entries past release_stream()/crash(), so a late PathResponse could
// resurrect a stream nobody wanted and the lookup retry loop kept
// running forever.
namespace livenet {
namespace {

using media::StreamId;
using sim::NodeId;

// ------------------------------------------------------------ StreamTable

TEST(StreamTable, ContextDoesNotActivateFib) {
  overlay::StreamTable t;
  t.context(7).cached_paths.push_back({1, 2});
  EXPECT_EQ(t.find(7), nullptr);  // not a forwarding entry yet
  EXPECT_FALSE(t.contains(7));
  EXPECT_EQ(t.stream_count(), 0u);
  EXPECT_EQ(t.context_count(), 1u);
  EXPECT_TRUE(t.streams().empty());
}

TEST(StreamTable, FibEntryActivatesAndKeepsContextState) {
  overlay::StreamTable t;
  t.context(7).paths_fetched = 123;
  t.fib_entry(7).locally_produced = true;
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_TRUE(t.find(7)->locally_produced);
  EXPECT_EQ(t.stream_count(), 1u);
  // Activation upgraded the existing context in place.
  EXPECT_EQ(t.context_count(), 1u);
  EXPECT_EQ(t.find_context(7)->paths_fetched, 123);
}

TEST(StreamTable, RemoveSubscriberIsNoopWithoutActiveEntry) {
  overlay::StreamTable t;
  t.context(7);  // bare context, FIB inactive
  t.remove_node_subscriber(7, 3);
  t.remove_client_subscriber(7, 4);
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(t.stream_count(), 0u);

  t.remove_node_subscriber(42, 3);  // unknown stream: nothing created
  t.remove_client_subscriber(42, 4);
  EXPECT_FALSE(t.contains(42));
  EXPECT_EQ(t.find_context(42), nullptr);

  t.add_node_subscriber(9, 3);  // creates + activates
  ASSERT_NE(t.find(9), nullptr);
  EXPECT_EQ(t.find(9)->subscriber_nodes.count(3), 1u);
  t.remove_node_subscriber(9, 3);
  EXPECT_TRUE(t.find(9)->subscriber_nodes.empty());
}

TEST(StreamTable, SubscribersAccumulateAndRemove) {
  overlay::StreamTable t;
  t.add_node_subscriber(1, 10);
  t.add_node_subscriber(1, 11);
  t.add_client_subscriber(1, 100);
  const overlay::FibEntry* e = t.find(1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->subscriber_nodes.size(), 2u);
  EXPECT_TRUE(e->has_subscribers());

  t.remove_node_subscriber(1, 10);
  t.remove_node_subscriber(1, 10);  // idempotent
  t.remove_client_subscriber(1, 100);
  EXPECT_EQ(t.find(1)->subscriber_nodes.size(), 1u);
  t.remove_node_subscriber(1, 11);
  EXPECT_FALSE(t.find(1)->has_subscribers());
  EXPECT_TRUE(t.contains(1));  // emptied, not erased
}

TEST(StreamTable, DuplicateSubscriberStoredOnce) {
  overlay::StreamTable t;
  t.add_node_subscriber(1, 10);
  t.add_node_subscriber(1, 10);
  EXPECT_EQ(t.find(1)->subscriber_nodes.size(), 1u);
}

TEST(StreamTable, EraseDropsEverythingInOneStroke) {
  overlay::StreamTable t;
  t.add_client_subscriber(7, 11);
  t.context(7).pending_views.push_back({});
  t.erase(7);
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(t.find_context(7), nullptr);
  EXPECT_EQ(t.stream_count(), 0u);
  EXPECT_EQ(t.context_count(), 0u);
  t.erase(7);  // idempotent
  EXPECT_EQ(t.stream_count(), 0u);
}

TEST(StreamTable, StreamsListsOnlyFibActiveContexts) {
  overlay::StreamTable t;
  t.context(1);
  t.fib_entry(2);
  t.fib_entry(3);
  auto s = t.streams();
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s, (std::vector<StreamId>{2, 3}));
}

// ------------------------------------------------- lookup lifecycle leaks

// A scriptable peer: records the control traffic an OverlayNode under
// test emits and answers only when the test says so.
class Probe final : public sim::SimNode {
 public:
  void on_message(NodeId from, const sim::MessagePtr& msg) override {
    if (const auto req = sim::msg_cast<const overlay::PathRequest>(msg)) {
      path_requests.emplace_back(req->request_id, req->stream_id);
      return;
    }
    if (const auto sub =
            sim::msg_cast<const overlay::SubscribeRequest>(msg)) {
      ++subscribes;
      if (ack_subscribes) {
        auto ack = sim::make_message<overlay::SubscribeAck>();
        ack->stream_id = sub->stream_id;
        ack->ok = true;
        net->send(node_id(), from, std::move(ack));
      }
      return;
    }
    if (sim::msg_cast<const overlay::UnsubscribeRequest>(msg)) {
      ++unsubscribes;
      return;
    }
    if (sim::msg_cast<const overlay::NodeStateReport>(msg)) {
      ++reports;
      return;
    }
    // ViewAck, media, feedback: irrelevant to these tests.
  }

  sim::Network* net = nullptr;
  bool ack_subscribes = true;
  std::vector<std::pair<std::uint64_t, StreamId>> path_requests;
  int subscribes = 0;
  int unsubscribes = 0;
  int reports = 0;
};

struct NodeHarness {
  sim::EventLoop loop;
  sim::Network net{&loop};
  overlay::OverlayMetrics metrics;
  overlay::OverlayNode node{&net, &metrics};
  Probe svc;     // Brain + path service
  Probe up;      // upstream relay
  Probe client;  // viewer endpoint
  NodeId node_id, svc_id, up_id, client_id;

  NodeHarness() {
    node_id = net.add_node(&node);
    svc_id = net.add_node(&svc);
    up_id = net.add_node(&up);
    client_id = net.add_node(&client);
    svc.net = &net;
    up.net = &net;
    client.net = &net;
    sim::LinkConfig lc;
    lc.jitter_stddev = 0;  // deterministic timing
    net.add_bidi_link(node_id, svc_id, lc);
    net.add_bidi_link(node_id, up_id, lc);
    net.add_bidi_link(node_id, client_id, lc);
    node.set_brain(svc_id);
    node.set_path_service(svc_id);
    node.set_overlay_peers({node_id, up_id});
  }

  void send_view_request(StreamId s) {
    auto view = sim::make_message<overlay::ViewRequest>();
    view->stream_id = s;
    view->client_id = 1;
    net.send(client_id, node_id, std::move(view));
  }

  void answer_lookup(std::uint64_t request_id, StreamId s) {
    auto resp = sim::make_message<overlay::PathResponse>();
    resp->request_id = request_id;
    resp->stream_id = s;
    resp->paths = {overlay::Path{up_id, node_id}};
    net.send(svc_id, node_id, std::move(resp));
  }
};

TEST(StreamContextLeak, ReleaseSweepsInFlightLookup) {
  NodeHarness h;

  // Viewer asks for stream 7: no local path, so the node asks the Brain.
  h.send_view_request(7);
  h.loop.run_until(100 * kMs);
  ASSERT_EQ(h.svc.path_requests.size(), 1u);

  // Answer it: the node subscribes through `up` and attaches the view.
  h.answer_lookup(h.svc.path_requests[0].first, 7);
  h.loop.run_until(200 * kMs);
  EXPECT_EQ(h.up.subscribes, 1);
  ASSERT_TRUE(h.node.fib().contains(7));

  // A stalling client triggers a path switch; the only cached path is
  // the current one, so the switch waits on a fresh lookup — which we
  // never answer: the lookup (and its retry loop) stays in flight.
  auto rep = sim::make_message<overlay::ClientQualityReport>();
  rep->stream_id = 7;
  rep->client_id = 1;
  rep->stalls_since_last = 3;
  h.net.send(h.client_id, h.node_id, std::move(rep));
  h.loop.run_until(300 * kMs);
  ASSERT_EQ(h.svc.path_requests.size(), 2u);

  // The viewer leaves; after the linger window the stream is released
  // with the lookup still unanswered.
  auto stop = sim::make_message<overlay::ViewStop>();
  stop->stream_id = 7;
  stop->client_id = 1;
  h.net.send(h.client_id, h.node_id, std::move(stop));
  h.loop.run_until(6 * kSec);
  EXPECT_FALSE(h.node.fib().contains(7));
  EXPECT_GE(h.up.unsubscribes, 1);
  const auto requests_at_release = h.svc.path_requests.size();

  // A late response for the swept lookup must not resurrect the stream,
  // and the retry timer must find nothing and die: no re-subscription,
  // no further lookups, no recreated context.
  h.answer_lookup(h.svc.path_requests.back().first, 7);
  h.loop.run_until(30 * kSec);
  EXPECT_FALSE(h.node.fib().contains(7));
  EXPECT_EQ(h.up.subscribes, 1);
  EXPECT_EQ(h.svc.path_requests.size(), requests_at_release);
}

TEST(StreamContextLeak, CrashSweepsInFlightLookupAndTimers) {
  NodeHarness h;
  h.node.start_reporting();
  h.loop.run_until(50 * kMs);
  const int reports_alive = h.svc.reports;
  EXPECT_GE(reports_alive, 1);  // reporting loop is running

  // Lookup in flight...
  h.send_view_request(7);
  h.loop.run_until(100 * kMs);
  ASSERT_EQ(h.svc.path_requests.size(), 1u);

  // ...and the node dies mid-request.
  h.node.crash();

  // The late response hits the crashed node: its pending-lookup table
  // was swept, so nothing is established and no state reappears.
  h.answer_lookup(h.svc.path_requests[0].first, 7);
  h.loop.run_until(10 * kMin);
  EXPECT_FALSE(h.node.fib().contains(7));
  EXPECT_EQ(h.up.subscribes, 0);
  // The lookup retry died (no re-request) and the report/overload
  // timers were cancelled (no reports after the crash, even far past
  // several report intervals).
  EXPECT_EQ(h.svc.path_requests.size(), 1u);
  EXPECT_EQ(h.svc.reports, reports_alive);
}

}  // namespace
}  // namespace livenet
