#include <gtest/gtest.h>

#include "overlay/frame_dropper.h"
#include "overlay/messages.h"
#include "overlay/packet_cache.h"
#include "overlay/path.h"

// Unit tests for the overlay building blocks that are not covered by
// the end-to-end integration suites.
namespace livenet::overlay {
namespace {

using media::FrameType;
using media::RtpPacket;

media::RtpPacketMut pkt(media::StreamId s, media::Seq seq,
                        FrameType t, std::uint64_t frame,
                        std::uint64_t gop, std::uint32_t frag = 0,
                        std::uint32_t frags = 1,
                        bool referenced = true) {
  media::RtpBody body;
  body.stream_id = s;
  body.seq = seq;
  body.frame_type = t;
  body.frame_id = frame;
  body.gop_id = gop;
  body.frag_index = frag;
  body.frag_count = frags;
  body.referenced = referenced;
  body.payload_bytes = 1000;
  return RtpPacket::make(std::move(body));
}

// --------------------------------------------------------- PacketGopCache

TEST(PacketGopCache, StartupBeginsAtNewestKeyframe) {
  PacketGopCache cache(2);
  media::Seq seq = 1;
  for (std::uint64_t gop = 1; gop <= 3; ++gop) {
    cache.add(pkt(1, seq++, FrameType::kI, gop * 10, gop));
    cache.add(pkt(1, seq++, FrameType::kP, gop * 10 + 1, gop));
  }
  const auto burst = cache.startup_packets(1);
  ASSERT_EQ(burst.size(), 2u);
  EXPECT_EQ(burst[0]->gop_id(), 3u);
  EXPECT_TRUE(burst[0]->is_keyframe_packet());
}

TEST(PacketGopCache, PrunesToMaxGops) {
  PacketGopCache cache(2);
  media::Seq seq = 1;
  for (std::uint64_t gop = 1; gop <= 10; ++gop) {
    cache.add(pkt(1, seq++, FrameType::kI, gop * 10, gop));
    for (int i = 0; i < 20; ++i) {
      cache.add(pkt(1, seq++, FrameType::kP, gop * 10 + 1, gop));
    }
  }
  EXPECT_LE(cache.cached_packets(1), 2u * 21u);
}

TEST(PacketGopCache, FindPacketBinarySearch) {
  PacketGopCache cache(3);
  for (media::Seq s = 10; s <= 50; ++s) {
    cache.add(pkt(1, s, s == 10 ? FrameType::kI : FrameType::kP, s, 1));
  }
  ASSERT_NE(cache.find_packet(1, 30), nullptr);
  EXPECT_EQ(cache.find_packet(1, 30)->seq, 30u);
  EXPECT_EQ(cache.find_packet(1, 9), nullptr);
  EXPECT_EQ(cache.find_packet(1, 51), nullptr);
  EXPECT_EQ(cache.find_packet(2, 30), nullptr);
}

TEST(PacketGopCache, HardCapBoundsKeyframelessStream) {
  // Regression: a mid-GoP join delivers only P frames, so the GoP-based
  // prune (keyed on keyframe boundaries) never fires and the cache grew
  // without bound.
  PacketGopCache cache(2, /*max_packets=*/100);
  for (media::Seq s = 1; s <= 5000; ++s) {
    cache.add(pkt(1, s, FrameType::kP, s, 1));
  }
  EXPECT_EQ(cache.cached_packets(1), 100u);
  // The newest packets survive (the ones a late joiner can use).
  EXPECT_NE(cache.find_packet(1, 5000), nullptr);
  EXPECT_EQ(cache.find_packet(1, 1), nullptr);
}

TEST(PacketGopCache, HardCapKeepsKeyframeIndicesConsistent) {
  PacketGopCache cache(8, /*max_packets=*/30);
  media::Seq seq = 1;
  for (std::uint64_t gop = 1; gop <= 5; ++gop) {
    cache.add(pkt(1, seq++, FrameType::kI, gop * 10, gop));
    for (int i = 0; i < 9; ++i) {
      cache.add(pkt(1, seq++, FrameType::kP, gop * 10 + 1, gop));
    }
  }
  EXPECT_LE(cache.cached_packets(1), 30u);
  // Boundary bookkeeping survived front eviction: the burst still opens
  // on the newest keyframe.
  const auto burst = cache.startup_packets(1);
  ASSERT_FALSE(burst.empty());
  EXPECT_TRUE(burst[0]->is_keyframe_packet());
  EXPECT_EQ(burst[0]->gop_id(), 5u);
}

TEST(PacketGopCache, FindPacketSurvivesReorderedInsertion) {
  // Regression: find_packet binary-searches `packets`, which used to be
  // ordered by arrival. Reordered delivery silently broke NACK repair.
  PacketGopCache cache(2);
  cache.add(pkt(1, 10, FrameType::kI, 1, 1));
  cache.add(pkt(1, 13, FrameType::kP, 4, 1));
  cache.add(pkt(1, 11, FrameType::kP, 2, 1));  // late
  cache.add(pkt(1, 14, FrameType::kP, 5, 1));
  cache.add(pkt(1, 12, FrameType::kP, 3, 1));  // late
  for (media::Seq s = 10; s <= 14; ++s) {
    ASSERT_NE(cache.find_packet(1, s), nullptr) << "seq " << s;
    EXPECT_EQ(cache.find_packet(1, s)->seq, s);
  }
  EXPECT_EQ(cache.cached_packets(1), 5u);
}

TEST(PacketGopCache, DuplicatesDroppedAndKeyframeIndexShifts) {
  PacketGopCache cache(4);
  cache.add(pkt(1, 5, FrameType::kP, 1, 1));
  cache.add(pkt(1, 7, FrameType::kP, 3, 1));
  cache.add(pkt(1, 7, FrameType::kP, 3, 1));  // exact duplicate
  cache.add(pkt(1, 6, FrameType::kI, 2, 2));  // late keyframe boundary
  cache.add(pkt(1, 6, FrameType::kI, 2, 2));  // duplicate of the late one
  EXPECT_EQ(cache.cached_packets(1), 3u);
  // The late keyframe was indexed at its sorted position: the startup
  // burst starts at seq 6, not at a stale index.
  const auto burst = cache.startup_packets(1);
  ASSERT_EQ(burst.size(), 2u);
  EXPECT_EQ(burst[0]->seq, 6u);
  EXPECT_TRUE(burst[0]->is_keyframe_packet());
}

TEST(PacketGopCache, AudioNeverCached) {
  PacketGopCache cache(2);
  cache.add(pkt(1, 1, FrameType::kAudio, 1, 0));
  EXPECT_FALSE(cache.has_content(1));
  EXPECT_EQ(cache.cached_packets(1), 0u);
}

TEST(PacketGopCache, ForgetStreamDropsState) {
  PacketGopCache cache(2);
  cache.add(pkt(1, 1, FrameType::kI, 1, 1));
  EXPECT_TRUE(cache.has_content(1));
  cache.forget_stream(1);
  EXPECT_FALSE(cache.has_content(1));
}

// ------------------------------------------------------------ FrameDropper

TEST(FrameDropper, ForwardsEverythingWhenQueueHealthy) {
  FrameDropper d;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(d.should_forward(*pkt(1, static_cast<media::Seq>(i),
                                      FrameType::kP, i, 1),
                                 10 * kMs));
  }
  EXPECT_EQ(d.p_dropped(), 0u);
  EXPECT_FALSE(d.under_pressure());
}

TEST(FrameDropper, DropsUnreferencedBFirst) {
  FrameDropper d;
  const auto b_unref =
      pkt(1, 1, FrameType::kB, 5, 1, 0, 1, /*referenced=*/false);
  const auto b_ref = pkt(1, 2, FrameType::kB, 6, 1, 0, 1, true);
  const auto p = pkt(1, 3, FrameType::kP, 7, 1);
  EXPECT_FALSE(d.should_forward(*b_unref, 400 * kMs));
  EXPECT_TRUE(d.should_forward(*b_ref, 400 * kMs));
  EXPECT_TRUE(d.should_forward(*p, 400 * kMs));
  EXPECT_EQ(d.b_dropped(), 1u);
}

TEST(FrameDropper, DroppedPPoisonsRestOfGop) {
  FrameDropper d;
  EXPECT_FALSE(d.should_forward(*pkt(1, 1, FrameType::kP, 10, 2), 700 * kMs));
  // Later frame of the same GoP: dropped even though the queue drained.
  EXPECT_FALSE(d.should_forward(*pkt(1, 2, FrameType::kP, 11, 2), 10 * kMs));
  // The next GoP's keyframe resets the state.
  EXPECT_TRUE(d.should_forward(*pkt(1, 3, FrameType::kI, 20, 3), 10 * kMs));
  EXPECT_TRUE(d.should_forward(*pkt(1, 4, FrameType::kP, 21, 3), 10 * kMs));
}

TEST(FrameDropper, WholeGopDroppedAboveTopThreshold) {
  FrameDropper d;
  EXPECT_FALSE(d.should_forward(*pkt(1, 1, FrameType::kP, 10, 2), 1500 * kMs));
  EXPECT_FALSE(d.should_forward(*pkt(1, 2, FrameType::kP, 11, 2), 10 * kMs));
  EXPECT_GT(d.gop_dropped(), 0u);
  EXPECT_TRUE(d.should_forward(*pkt(1, 3, FrameType::kI, 20, 3), 10 * kMs));
}

TEST(FrameDropper, RtxSharesFateButNeverCounts) {
  FrameDropper d;
  // The original unreferenced B drop counts once...
  EXPECT_FALSE(d.should_forward(
      *pkt(1, 1, FrameType::kB, 5, 1, 0, 1, /*referenced=*/false),
      400 * kMs));
  EXPECT_EQ(d.b_dropped(), 1u);
  // ...and its retransmission shares the fate without re-counting
  // (inflated totals would skew the consumer's skip discounting).
  auto rtx = pkt(1, 1, FrameType::kB, 5, 1, 0, 1, /*referenced=*/false);
  rtx->is_rtx = true;
  EXPECT_FALSE(d.should_forward(*rtx, 400 * kMs));
  EXPECT_EQ(d.b_dropped(), 1u);
  EXPECT_EQ(d.total_dropped(), 1u);
}

TEST(FrameDropper, RtxExcludedFromGopAndPoisonCounters) {
  FrameDropper d;
  EXPECT_FALSE(d.should_forward(*pkt(1, 1, FrameType::kP, 10, 2),
                                1500 * kMs));
  EXPECT_EQ(d.dropped(telemetry::DropReason::kGopThreshold), 1u);
  auto rtx = pkt(1, 2, FrameType::kP, 11, 2);
  rtx->is_rtx = true;
  EXPECT_FALSE(d.should_forward(*rtx, 10 * kMs));  // GoP still suppressed
  EXPECT_EQ(d.dropped(telemetry::DropReason::kGopSuppressed), 0u);
  EXPECT_EQ(d.gop_dropped(), 1u);

  EXPECT_FALSE(d.should_forward(*pkt(1, 3, FrameType::kP, 12, 2), 10 * kMs));
  EXPECT_EQ(d.dropped(telemetry::DropReason::kGopSuppressed), 1u);
  EXPECT_EQ(d.gop_dropped(), 2u);
}

TEST(FrameDropper, RtxKeyframeDoesNotResurrectSuppressedGop) {
  FrameDropper d;
  EXPECT_FALSE(d.should_forward(*pkt(1, 1, FrameType::kP, 10, 2),
                                1500 * kMs));
  // A retransmitted keyframe is old data: it must neither clear the
  // suppression nor be forwarded from the suppressed GoP.
  auto rtx_key = pkt(1, 2, FrameType::kI, 9, 2);
  rtx_key->is_rtx = true;
  EXPECT_FALSE(d.should_forward(*rtx_key, 10 * kMs));
  EXPECT_FALSE(d.should_forward(*pkt(1, 3, FrameType::kP, 11, 2), 10 * kMs));
  // A fresh keyframe opens the next GoP normally.
  EXPECT_TRUE(d.should_forward(*pkt(1, 4, FrameType::kI, 20, 3), 10 * kMs));
}

TEST(FrameDropper, KeyframeClearsStaleStateAcrossGopIdReuse) {
  FrameDropper d;
  // Poison GoP id 2 via a dropped P frame...
  EXPECT_FALSE(d.should_forward(*pkt(1, 1, FrameType::kP, 10, 2), 700 * kMs));
  // ...then a *reused* gop id 2 arrives with a fresh keyframe (wrapped
  // counter / restarted encoder). The keyframe must clear the stale
  // poison so the new GoP's frames are not spuriously dropped.
  EXPECT_TRUE(d.should_forward(*pkt(1, 2, FrameType::kI, 20, 2), 10 * kMs));
  EXPECT_TRUE(d.should_forward(*pkt(1, 3, FrameType::kP, 21, 2), 10 * kMs));

  // Same for whole-GoP suppression under id reuse.
  EXPECT_FALSE(d.should_forward(*pkt(1, 4, FrameType::kP, 22, 2),
                                1500 * kMs));
  EXPECT_TRUE(d.should_forward(*pkt(1, 5, FrameType::kI, 30, 2), 10 * kMs));
}

TEST(FrameDropper, AudioAlwaysForwarded) {
  FrameDropper d;
  EXPECT_TRUE(d.should_forward(*pkt(1, 1, FrameType::kAudio, 1, 0),
                               10 * kSec));
}

TEST(FrameDropper, PressureSignalTracksQueue) {
  FrameDropper d;
  d.should_forward(*pkt(1, 1, FrameType::kP, 1, 1), 400 * kMs);
  EXPECT_TRUE(d.under_pressure());
  d.should_forward(*pkt(1, 2, FrameType::kP, 2, 1), 10 * kMs);
  EXPECT_FALSE(d.under_pressure());
}

// ------------------------------------------------------------------- Path

TEST(Path, LengthAndToString) {
  EXPECT_EQ(path_length({}), -1);
  EXPECT_EQ(path_length({5}), 0);
  EXPECT_EQ(path_length({1, 2, 3}), 2);
  EXPECT_EQ(to_string({1, 2, 3}), "1->2->3");
}

// --------------------------------------------------------------- messages

TEST(Messages, WireSizesScaleWithContent) {
  SubscribeRequest sub;
  const auto base = sub.wire_size();
  sub.remaining_reverse_path = {1, 2, 3};
  EXPECT_GT(sub.wire_size(), base);

  PathResponse resp;
  const auto rbase = resp.wire_size();
  resp.paths = {{1, 2, 3}, {1, 4, 3}};
  EXPECT_GT(resp.wire_size(), rbase);

  media::NackMessage nack;
  const auto nbase = nack.wire_size();
  nack.missing = {1, 2, 3, 4};
  EXPECT_EQ(nack.wire_size(), nbase + 16);
}

TEST(Messages, DescribeIsNonEmptyForAllTypes) {
  EXPECT_FALSE(SubscribeRequest{}.describe().empty());
  EXPECT_FALSE(SubscribeAck{}.describe().empty());
  EXPECT_FALSE(UnsubscribeRequest{}.describe().empty());
  EXPECT_FALSE(PublishRequest{}.describe().empty());
  EXPECT_FALSE(PublishStop{}.describe().empty());
  EXPECT_FALSE(ViewRequest{}.describe().empty());
  EXPECT_FALSE(ViewStop{}.describe().empty());
  EXPECT_FALSE(ViewAck{}.describe().empty());
  EXPECT_FALSE(ClientQualityReport{}.describe().empty());
  EXPECT_FALSE(PathRequest{}.describe().empty());
  EXPECT_FALSE(PathResponse{}.describe().empty());
  EXPECT_FALSE(PathPush{}.describe().empty());
  EXPECT_FALSE(StreamRegister{}.describe().empty());
  EXPECT_FALSE(NodeStateReport{}.describe().empty());
  EXPECT_FALSE(OverloadAlarm{}.describe().empty());
  EXPECT_FALSE(StreamSwitchNotice{}.describe().empty());
}

}  // namespace
}  // namespace livenet::overlay
