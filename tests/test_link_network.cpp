#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"
#include "telemetry/metrics.h"

namespace livenet::sim {
namespace {

class Probe final : public SimNode {
 public:
  void on_message(NodeId from, const MessagePtr& msg) override {
    arrivals.emplace_back(from, msg);
  }
  std::vector<std::pair<NodeId, MessagePtr>> arrivals;
};

class Blob final : public Message {
 public:
  explicit Blob(std::size_t n) : n_(n) {}
  std::size_t wire_size() const override { return n_; }
  std::string describe() const override { return "blob"; }

 private:
  std::size_t n_;
};

LinkConfig fast_link() {
  LinkConfig lc;
  lc.propagation_delay = 10 * kMs;
  lc.bandwidth_bps = 8e6;  // 1 byte/us
  lc.loss_rate = 0.0;
  lc.jitter_stddev = 0;
  return lc;
}

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  EventLoop loop;
  Link link(&loop, 0, 1, fast_link(), Rng(1));
  const SendResult r = link.send(1000);  // 1000 us serialization
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.arrival_time, 1000 + 10 * kMs);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  EventLoop loop;
  Link link(&loop, 0, 1, fast_link(), Rng(1));
  const SendResult a = link.send(1000);
  const SendResult b = link.send(1000);
  ASSERT_TRUE(a.delivered);
  ASSERT_TRUE(b.delivered);
  EXPECT_EQ(b.arrival_time - a.arrival_time, 1000);  // serialization gap
}

TEST(Link, LossRateApproximatelyRespected) {
  EventLoop loop;
  LinkConfig lc = fast_link();
  lc.loss_rate = 0.1;
  Link link(&loop, 0, 1, lc, Rng(99));
  int lost = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (!link.send(100).delivered) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.1, 0.01);
  EXPECT_EQ(link.stats().packets_lost, static_cast<std::uint64_t>(lost));
}

TEST(Link, QueueOverflowDropsTail) {
  EventLoop loop;
  LinkConfig lc = fast_link();
  lc.queue_limit_bytes = 5000;
  Link link(&loop, 0, 1, lc, Rng(1));
  int dropped = 0;
  for (int i = 0; i < 100; ++i) {
    if (!link.send(1000).delivered) ++dropped;
  }
  EXPECT_GT(dropped, 80);  // only ~6 packets fit before the cap
  EXPECT_EQ(link.stats().packets_dropped,
            static_cast<std::uint64_t>(dropped));
}

TEST(Link, UtilizationReflectsLoad) {
  EventLoop loop;
  LinkConfig lc = fast_link();  // 1 MB/s capacity
  Link link(&loop, 0, 1, lc, Rng(1));
  // Send 0.5 MB in the first second -> ~50% bin utilization, halved by
  // the EWMA right after the bin closes.
  for (int i = 0; i < 500; ++i) link.send(1000);
  loop.schedule_at(1 * kSec + 100 * kMs, [] {});
  loop.run();
  EXPECT_NEAR(link.utilization(), 0.25, 0.05);
  EXPECT_LE(link.utilization(), 1.0);
}

TEST(Link, UtilizationDecaysWhenIdle) {
  EventLoop loop;
  Link link(&loop, 0, 1, fast_link(), Rng(1));
  for (int i = 0; i < 500; ++i) link.send(1000);
  loop.schedule_at(60 * kSec, [] {});
  loop.run();
  EXPECT_NEAR(link.utilization(), 0.0, 1e-9);
}

TEST(Network, DeliversToReceiverWithSource) {
  EventLoop loop;
  Network net(&loop);
  Probe a, b;
  const NodeId ida = net.add_node(&a);
  const NodeId idb = net.add_node(&b);
  net.add_bidi_link(ida, idb, fast_link());
  EXPECT_TRUE(net.send(ida, idb, sim::make_message<Blob>(100)));
  loop.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].first, ida);
  EXPECT_TRUE(a.arrivals.empty());
}

TEST(Network, SendWithoutLinkFails) {
  EventLoop loop;
  Network net(&loop);
  Probe a, b;
  const NodeId ida = net.add_node(&a);
  const NodeId idb = net.add_node(&b);
  EXPECT_FALSE(net.send(ida, idb, sim::make_message<Blob>(100)));
}

TEST(Network, NeighborsTracksOutgoingLinks) {
  EventLoop loop;
  Network net(&loop);
  Probe n0, n1, n2;
  net.add_node(&n0);
  net.add_node(&n1);
  net.add_node(&n2);
  net.add_link(0, 1, fast_link());
  net.add_link(0, 2, fast_link());
  const auto nb = net.neighbors(0);
  EXPECT_EQ(nb.size(), 2u);
  EXPECT_TRUE(net.link(0, 1) != nullptr);
  EXPECT_TRUE(net.link(1, 0) == nullptr);
}

TEST(Network, ReplacingLinkKeepsSingleAdjacencyEntry) {
  EventLoop loop;
  Network net(&loop);
  Probe n0, n1;
  net.add_node(&n0);
  net.add_node(&n1);
  net.add_link(0, 1, fast_link());
  net.add_link(0, 1, fast_link());
  EXPECT_EQ(net.neighbors(0).size(), 1u);
}

TEST(Network, NegativeNodeIdsRejectedLoudly) {
  EventLoop loop;
  Network net(&loop);
  Probe n0;
  net.add_node(&n0);
  EXPECT_EQ(net.add_link(-1, 0, fast_link()), nullptr);
  EXPECT_EQ(net.add_link(0, -1, fast_link()), nullptr);
  EXPECT_EQ(net.neighbors(0).size(), 0u);
  EXPECT_FALSE(net.send(0, -1, sim::make_message<Blob>(100)));
}

TEST(Network, LinkAddedAfterFreezeIsRoutable) {
  EventLoop loop;
  Network net(&loop);
  Probe a, b, c;
  net.add_node(&a);
  net.add_node(&b);
  net.add_node(&c);
  net.add_link(0, 1, fast_link());
  net.freeze_topology();
  // A frozen pair gains a link after the freeze: the dense matrix path
  // (send's fast path, with its sync assert) must find it.
  ASSERT_NE(net.add_link(0, 2, fast_link()), nullptr);
  EXPECT_NE(net.link(0, 2), nullptr);
  EXPECT_TRUE(net.send(0, 2, sim::make_message<Blob>(100)));
  loop.run();
  ASSERT_EQ(c.arrivals.size(), 1u);
  // A node registered after the freeze falls back to the sorted rows.
  Probe d;
  const NodeId idd = net.add_node(&d);
  ASSERT_NE(net.add_link(0, idd, fast_link()), nullptr);
  EXPECT_TRUE(net.send(0, idd, sim::make_message<Blob>(100)));
  loop.run();
  EXPECT_EQ(d.arrivals.size(), 1u);
}

// ------------------------------------------------------ delivery order

/// Records each upcall's virtual time, sender and wire size.
class TimedProbe final : public SimNode {
 public:
  explicit TimedProbe(EventLoop* loop) : loop_(loop) {}
  void on_message(NodeId from, const MessagePtr& msg) override {
    arrivals.push_back(Arrival{loop_->now(), from, msg->wire_size()});
  }

  struct Arrival {
    Time at;
    NodeId from;
    std::size_t bytes;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<Arrival> arrivals;

 private:
  EventLoop* loop_;
};

LinkConfig instant_link() {
  LinkConfig lc;
  lc.propagation_delay = 10 * kMs;
  lc.bandwidth_bps = 8e13;  // sub-us serialization: truncates to 0
  lc.loss_rate = 0.0;
  lc.jitter_stddev = 0;
  return lc;
}

TEST(Network, LaterSendArrivingEarlierIsDeliveredFirst) {
  EventLoop loop;
  Network net(&loop);
  Probe a;
  TimedProbe b(&loop);
  net.add_node(&a);
  net.add_node(&b);
  Link* l = net.add_link(0, 1, instant_link());
  // First packet delayed by a degradation fault; the fault clears
  // before the second send, so the later send arrives *earlier*.
  l->set_extra_delay(5 * kMs);
  EXPECT_TRUE(net.send(0, 1, sim::make_message<Blob>(100)));  // t = 15 ms
  l->set_extra_delay(0);
  EXPECT_TRUE(net.send(0, 1, sim::make_message<Blob>(200)));  // t = 10 ms
  loop.run();
  using A = TimedProbe::Arrival;
  EXPECT_EQ(b.arrivals, (std::vector<A>{A{10 * kMs, 0, 200},
                                         A{15 * kMs, 0, 100}}));
}

TEST(Network, LinkFlapMidBurstDropsEachPacketOnce) {
  // Drops are accounted at send time, exactly once per packet; the
  // packets sent around the flap all arrive, one upcall each.
  EventLoop loop;
  Network net(&loop);
  Probe a;
  TimedProbe b(&loop);
  net.add_node(&a);
  net.add_node(&b);
  Link* l = net.add_link(0, 1, instant_link());
  const std::uint64_t down_before =
      telemetry::handles().link_drops_down->value();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(net.send(0, 1, sim::make_message<Blob>(100 + i)));
  }
  l->set_down(true);  // flap strikes mid-burst
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(net.send(0, 1, sim::make_message<Blob>(200)));
  }
  l->set_down(false);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(net.send(0, 1, sim::make_message<Blob>(300 + i)));
  }
  loop.run();
  EXPECT_EQ(telemetry::handles().link_drops_down->value() - down_before, 5u);
  ASSERT_EQ(b.arrivals.size(), 10u);
  for (std::size_t i = 0; i < b.arrivals.size(); ++i) {
    EXPECT_EQ(b.arrivals[i].at, 10 * kMs);
    EXPECT_EQ(b.arrivals[i].bytes, (i < 5 ? 100 : 295) + i);
  }
  EXPECT_EQ(net.batch_upcalls(), 10u);
  EXPECT_EQ(net.batch_packets(), 10u);
}

TEST(Network, SameInstantArrivalsOnTwoLinksFollowSendOrder) {
  // Two senders, one receiver, identical links: every packet is due at
  // the same instant, and they must be delivered in the order sent,
  // interleaved across the links.
  EventLoop loop;
  Network net(&loop);
  Probe a;
  Probe c;
  TimedProbe b(&loop);
  net.add_node(&a);
  net.add_node(&b);
  net.add_node(&c);
  net.add_link(0, 1, instant_link());
  net.add_link(2, 1, instant_link());
  std::vector<TimedProbe::Arrival> sent;
  for (int i = 0; i < 6; ++i) {
    const NodeId from = i % 3 == 0 ? 2 : 0;
    const std::size_t bytes = 100 + static_cast<std::size_t>(i);
    EXPECT_TRUE(net.send(from, 1, sim::make_message<Blob>(bytes)));
    sent.push_back(TimedProbe::Arrival{10 * kMs, from, bytes});
  }
  loop.run();
  EXPECT_EQ(b.arrivals, sent);
}

}  // namespace
}  // namespace livenet::sim
