#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "media/packetizer.h"
#include "media/rtp.h"
#include "sim/event_loop.h"
#include "sim/message.h"

// The zero-copy contract of the forwarding fast path: fan-out forks a
// per-hop trailer and shares the immutable body; cancellation releases
// captured packet references immediately, not at the event's timestamp.
namespace livenet {
namespace {

using media::FrameType;
using media::RtpBody;
using media::RtpPacket;

media::RtpPacketMut make_pkt(media::StreamId s, media::Seq seq,
                             FrameType t = FrameType::kP) {
  RtpBody body;
  body.stream_id = s;
  body.seq = seq;
  body.frame_id = 9;
  body.gop_id = 3;
  body.frame_type = t;
  body.frag_index = 1;
  body.frag_count = 4;
  body.payload_bytes = 1100;
  body.capture_time = 123 * kMs;
  return RtpPacket::make(std::move(body));
}

TEST(ZeroCopy, ForkSharesBodyWithoutDeepCopy) {
  const auto base = RtpBody::deep_copy_count();
  auto pkt = make_pkt(7, 42);
  std::vector<media::RtpPacketMut> clones;
  for (int i = 0; i < 64; ++i) clones.push_back(pkt->fork());
  EXPECT_EQ(RtpBody::deep_copy_count(), base);  // zero body copies
  for (const auto& c : clones) {
    EXPECT_EQ(c->stream_id(), 7u);
    EXPECT_EQ(c->producer_seq(), 42u);
    EXPECT_EQ(c->payload_bytes(), 1100u);
    EXPECT_EQ(c->capture_time(), 123 * kMs);
  }
}

TEST(ZeroCopy, TrailerIsPerHopState) {
  auto pkt = make_pkt(1, 10);
  pkt->delay_ext_us = 500;
  pkt->cdn_hops = 2;
  auto clone = pkt->fork();
  clone->delay_ext_us = 900;
  clone->cdn_hops = 3;
  clone->is_rtx = true;
  clone->seq = 77;  // edge-side client-facing seq rewrite
  // The original hop's trailer is untouched...
  EXPECT_EQ(pkt->delay_ext_us, 500);
  EXPECT_EQ(pkt->cdn_hops, 2);
  EXPECT_FALSE(pkt->is_rtx);
  EXPECT_EQ(pkt->seq, 10u);
  // ...and the shared body still answers identically through both.
  EXPECT_EQ(clone->producer_seq(), 10u);
  EXPECT_EQ(pkt->producer_seq(), 10u);
  EXPECT_EQ(clone->frame_id(), pkt->frame_id());
}

TEST(ZeroCopy, CloneWithDelayAccumulates) {
  const auto base = RtpBody::deep_copy_count();
  auto pkt = make_pkt(1, 1);
  pkt->delay_ext_us = 100;
  auto hop1 = pkt->clone_with_delay(40);
  auto hop2 = hop1->clone_with_delay(60);
  EXPECT_EQ(hop1->delay_ext_us, 140);
  EXPECT_EQ(hop2->delay_ext_us, 200);
  EXPECT_EQ(pkt->delay_ext_us, 100);
  EXPECT_EQ(RtpBody::deep_copy_count(), base);
}

TEST(ZeroCopy, PacketizerOutputForksCleanly) {
  const auto base = RtpBody::deep_copy_count();
  media::Packetizer p(5);
  media::Frame f;
  f.stream_id = 5;
  f.frame_id = 1;
  f.gop_id = 1;
  f.type = FrameType::kI;
  f.size_bytes = 5000;
  const auto pkts = p.packetize(f);
  ASSERT_GT(pkts.size(), 1u);
  for (const auto& pkt : pkts) {
    auto c = pkt->fork();
    EXPECT_EQ(c->frag_count(), pkts.size());
  }
  EXPECT_EQ(RtpBody::deep_copy_count(), base);
}

// A cancelled event must release what its callback captured at cancel()
// time. A shared_ptr captured by a pending timer otherwise pins buffers
// (a whole GoP cache entry, in the worst case) until the cancelled
// event's timestamp surfaces.
TEST(CancelReleases, SharedPtrDroppedImmediatelyOnCancel) {
  sim::EventLoop loop;
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> watch = payload;
  const auto id =
      loop.schedule_after(10 * kSec, [p = std::move(payload)]() { (void)*p; });
  ASSERT_EQ(watch.use_count(), 1);  // callback holds the only reference
  loop.cancel(id);
  // No events ran — the emptied node still queued must not keep the
  // capture.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(loop.dispatched(), 0u);
  loop.run();
  EXPECT_EQ(loop.dispatched(), 0u);
}

struct Probe final : sim::Message {
  inline static int alive = 0;
  Probe() { ++alive; }
  ~Probe() override { --alive; }
  std::size_t wire_size() const override { return 1; }
  std::string describe() const override { return "probe"; }
};

TEST(CancelReleases, IntrusiveMessageDroppedImmediatelyOnCancel) {
  ASSERT_EQ(Probe::alive, 0);
  sim::EventLoop loop;
  sim::MessagePtr msg = sim::make_message<Probe>();
  const auto id = loop.schedule_after(1 * kSec, [m = std::move(msg)]() {});
  ASSERT_EQ(Probe::alive, 1);
  loop.cancel(id);
  EXPECT_EQ(Probe::alive, 0);  // released now, not at t = 1 s
}

}  // namespace
}  // namespace livenet
