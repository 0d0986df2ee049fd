#include <gtest/gtest.h>

#include <vector>

#include "sim/event_loop.h"
#include "transport/pacer.h"

namespace livenet::transport {
namespace {

using media::FrameType;
using media::RtpPacket;
using media::RtpPacketPtr;

media::RtpPacketMut pkt(FrameType t, std::size_t bytes, bool rtx = false) {
  media::RtpBody body;
  body.frame_type = t;
  body.payload_bytes = bytes;
  auto p = RtpPacket::make(std::move(body));
  p->is_rtx = rtx;
  return p;
}

struct Capture {
  std::vector<std::pair<Time, RtpPacketPtr>> sent;
};

TEST(Pacer, SpacesPacketsAtConfiguredRate) {
  sim::EventLoop loop;
  Capture cap;
  Pacer::Config cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us
  cfg.i_frame_gain = 1.0;
  Pacer pacer(
      &loop, [&](const RtpPacketPtr& p) { cap.sent.emplace_back(loop.now(), p); },
      cfg);
  for (int i = 0; i < 3; ++i) {
    pacer.enqueue(pkt(FrameType::kP, 1000 - media::kRtpHeaderBytes));
  }
  loop.run();
  ASSERT_EQ(cap.sent.size(), 3u);
  EXPECT_EQ(cap.sent[1].first - cap.sent[0].first, 1000);
  EXPECT_EQ(cap.sent[2].first - cap.sent[1].first, 1000);
}

TEST(Pacer, AudioJumpsTheVideoQueue) {
  sim::EventLoop loop;
  Capture cap;
  Pacer::Config cfg;
  cfg.rate_bps = 8e6;
  Pacer pacer(
      &loop, [&](const RtpPacketPtr& p) { cap.sent.emplace_back(loop.now(), p); },
      cfg);
  pacer.enqueue(pkt(FrameType::kP, 1000));
  pacer.enqueue(pkt(FrameType::kP, 1000));
  pacer.enqueue(pkt(FrameType::kAudio, 100));
  loop.run();
  ASSERT_EQ(cap.sent.size(), 3u);
  // Dispatch is deferred to the loop, so audio preempts everything
  // still queued at fire time.
  EXPECT_EQ(cap.sent[0].second->frame_type(), FrameType::kAudio);
}

TEST(Pacer, RtxBeatsVideoButNotAudio) {
  sim::EventLoop loop;
  Capture cap;
  Pacer pacer(&loop, [&](const RtpPacketPtr& p) {
    cap.sent.emplace_back(loop.now(), p);
  });
  pacer.enqueue(pkt(FrameType::kP, 1000));
  pacer.enqueue(pkt(FrameType::kP, 1000));
  pacer.enqueue(pkt(FrameType::kP, 1000, /*rtx=*/true));
  pacer.enqueue(pkt(FrameType::kAudio, 100));
  loop.run();
  ASSERT_EQ(cap.sent.size(), 4u);
  EXPECT_EQ(cap.sent[0].second->frame_type(), FrameType::kAudio);
  EXPECT_TRUE(cap.sent[1].second->is_rtx);
  EXPECT_FALSE(cap.sent[2].second->is_rtx);
  EXPECT_FALSE(cap.sent[3].second->is_rtx);
}

TEST(Pacer, IFrameGainAcceleratesKeyframes) {
  sim::EventLoop loop;
  Capture cap;
  Pacer::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.i_frame_gain = 2.0;
  Pacer pacer(
      &loop, [&](const RtpPacketPtr& p) { cap.sent.emplace_back(loop.now(), p); },
      cfg);
  pacer.enqueue(pkt(FrameType::kI, 1000 - media::kRtpHeaderBytes));
  pacer.enqueue(pkt(FrameType::kI, 1000 - media::kRtpHeaderBytes));
  pacer.enqueue(pkt(FrameType::kI, 1000 - media::kRtpHeaderBytes));
  loop.run();
  ASSERT_EQ(cap.sent.size(), 3u);
  // At 2x gain, a 1000-byte packet occupies 500us instead of 1000us.
  EXPECT_EQ(cap.sent[1].first - cap.sent[0].first, 500);
}

TEST(Pacer, DropsVideoWhenQueueCapExceeded) {
  sim::EventLoop loop;
  Capture cap;
  Pacer::Config cfg;
  cfg.rate_bps = 1e6;
  cfg.max_queue_bytes = 3000;
  Pacer pacer(
      &loop, [&](const RtpPacketPtr& p) { cap.sent.emplace_back(loop.now(), p); },
      cfg);
  for (int i = 0; i < 10; ++i) pacer.enqueue(pkt(FrameType::kP, 1000));
  EXPECT_GT(pacer.packets_dropped(), 0u);
  loop.run();
  EXPECT_LT(cap.sent.size(), 10u);
}

TEST(Pacer, AudioNeverDroppedByCap) {
  sim::EventLoop loop;
  Capture cap;
  Pacer::Config cfg;
  cfg.rate_bps = 1e6;
  cfg.max_queue_bytes = 1000;
  Pacer pacer(
      &loop, [&](const RtpPacketPtr& p) { cap.sent.emplace_back(loop.now(), p); },
      cfg);
  for (int i = 0; i < 5; ++i) pacer.enqueue(pkt(FrameType::kP, 900));
  for (int i = 0; i < 5; ++i) pacer.enqueue(pkt(FrameType::kAudio, 100));
  loop.run();
  int audio = 0;
  for (const auto& [t, p] : cap.sent) {
    if (p->is_audio()) ++audio;
  }
  EXPECT_EQ(audio, 5);
}

TEST(Pacer, DrainTimeTracksQueue) {
  sim::EventLoop loop;
  Pacer::Config cfg;
  cfg.rate_bps = 8e6;
  Pacer pacer(&loop, [](const RtpPacketPtr&) {}, cfg);
  EXPECT_EQ(pacer.drain_time(), 0);
  pacer.enqueue(pkt(FrameType::kP, 10000 - media::kRtpHeaderBytes));
  EXPECT_NEAR(static_cast<double>(pacer.drain_time()), 10000.0, 10.0);
}

TEST(Pacer, NoIdleCreditByDefault) {
  // The pacer banks no credit while idle: after any gap packets stay
  // strictly interval-spaced.
  sim::EventLoop loop;
  Capture cap;
  Pacer::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.i_frame_gain = 1.0;
  Pacer pacer(
      &loop, [&](const RtpPacketPtr& p) { cap.sent.emplace_back(loop.now(), p); },
      cfg);
  pacer.enqueue(pkt(FrameType::kP, 1000 - media::kRtpHeaderBytes));
  loop.schedule_at(10 * kSec, [&] {
    for (int i = 0; i < 3; ++i) {
      pacer.enqueue(pkt(FrameType::kP, 1000 - media::kRtpHeaderBytes));
    }
  });
  loop.run();
  ASSERT_EQ(cap.sent.size(), 4u);
  EXPECT_EQ(cap.sent[1].first, 10 * kSec);
  EXPECT_EQ(cap.sent[2].first, 10 * kSec + 1 * kMs);
  EXPECT_EQ(cap.sent[3].first, 10 * kSec + 2 * kMs);
}

TEST(Pacer, RateChangeAffectsSubsequentSpacing) {
  sim::EventLoop loop;
  Capture cap;
  Pacer::Config cfg;
  cfg.rate_bps = 8e6;
  Pacer pacer(
      &loop, [&](const RtpPacketPtr& p) { cap.sent.emplace_back(loop.now(), p); },
      cfg);
  pacer.enqueue(pkt(FrameType::kP, 1000 - media::kRtpHeaderBytes));
  pacer.enqueue(pkt(FrameType::kP, 1000 - media::kRtpHeaderBytes));
  pacer.set_rate_bps(4e6);  // halve the rate
  loop.run();
  ASSERT_EQ(cap.sent.size(), 2u);
  EXPECT_EQ(cap.sent[1].first - cap.sent[0].first, 2000);
}

}  // namespace
}  // namespace livenet::transport
