#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "overlay/packet_cache.h"
#include "sim/event_loop.h"
#include "transport/receive_buffer.h"
#include "transport/send_history.h"
#include "util/rng.h"

namespace livenet::transport {
namespace {

using media::RtpPacket;
using media::RtpPacketPtr;
using media::Seq;
using media::StreamId;

// The hash map + FIFO SendHistory the seq rings replaced, kept verbatim
// as the differential oracle: one (time, key) FIFO entry per record,
// pruned from the front by age and by a global max_packets count.
class ReferenceSendHistory {
 public:
  explicit ReferenceSendHistory(const SendHistory::Config& cfg) : cfg_(cfg) {}

  void record(const RtpPacketPtr& pkt, Time now) {
    prune(now);
    const Key k{flow_id(pkt->stream_id(), pkt->is_audio()), pkt->seq};
    by_key_[k] = {pkt, now};
    fifo_.emplace_back(now, k);
  }

  RtpPacketPtr lookup(StreamId stream, bool audio, Seq seq, Time now) {
    prune(now);
    const auto it = by_key_.find(Key{flow_id(stream, audio), seq});
    if (it == by_key_.end()) return nullptr;
    return it->second.first;
  }

  void forget_stream(StreamId stream) {
    for (auto it = by_key_.begin(); it != by_key_.end();) {
      if (it->first.stream / 2 == stream) {
        it = by_key_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  struct Key {
    StreamId stream;  ///< stream*2 + audio-flag (flow id)
    Seq seq;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const {
      return k.stream * 0x9E3779B97F4A7C15ull ^ k.seq;
    }
  };
  static StreamId flow_id(StreamId stream, bool audio) {
    return stream * 2 + (audio ? 1 : 0);
  }

  void prune(Time now) {
    const Time cutoff = now >= cfg_.max_age ? now - cfg_.max_age : 0;
    while (!fifo_.empty() && (fifo_.front().first < cutoff ||
                              fifo_.size() > cfg_.max_packets)) {
      const auto& [t, k] = fifo_.front();
      const auto it = by_key_.find(k);
      // Only erase if this FIFO entry is the latest record for the key
      // (a re-recorded packet leaves a stale FIFO entry behind).
      if (it != by_key_.end() && it->second.second == t) by_key_.erase(it);
      fifo_.pop_front();
    }
  }

  SendHistory::Config cfg_;
  std::unordered_map<Key, std::pair<RtpPacketPtr, Time>, KeyHasher> by_key_;
  std::deque<std::pair<Time, Key>> fifo_;
};

media::RtpPacketMut pkt(StreamId s, Seq seq,
                        media::FrameType t = media::FrameType::kP) {
  media::RtpBody body;
  body.stream_id = s;
  body.seq = seq;
  body.frame_type = t;
  body.payload_bytes = 1000;
  return RtpPacket::make(std::move(body));
}

struct Harness {
  sim::EventLoop loop;
  std::vector<Seq> delivered;
  std::vector<std::vector<Seq>> nacks;
  int gaps = 0;
  std::unique_ptr<ReceiveBuffer> buf;

  explicit Harness(ReceiveBuffer::Config cfg = {}) {
    buf = std::make_unique<ReceiveBuffer>(
        &loop,
        [this](const RtpPacketPtr& p) { delivered.push_back(p->seq); },
        [this](StreamId) { ++gaps; },
        [this](StreamId, bool, const std::vector<Seq>& m) { nacks.push_back(m); },
        cfg);
  }
};

TEST(ReceiveBuffer, InOrderDeliveryIsImmediate) {
  Harness h;
  for (Seq s = 1; s <= 5; ++s) h.buf->on_packet(pkt(1, s));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(h.nacks.empty());
}

TEST(ReceiveBuffer, ReordersOutOfOrderPackets) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.buf->on_packet(pkt(1, 2));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2, 3}));
}

TEST(ReceiveBuffer, NackAfterScanInterval) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 4));  // 2, 3 missing
  h.loop.run_until(60 * kMs);
  ASSERT_FALSE(h.nacks.empty());
  EXPECT_EQ(h.nacks[0], (std::vector<Seq>{2, 3}));
}

TEST(ReceiveBuffer, RecoveredPacketStopsNacking) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.loop.run_until(60 * kMs);
  ASSERT_EQ(h.nacks.size(), 1u);
  h.buf->on_packet(pkt(1, 2));  // recovery
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2, 3}));
  h.loop.run_until(500 * kMs);
  EXPECT_EQ(h.nacks.size(), 1u);  // no further NACKs
}

TEST(ReceiveBuffer, RenacksUntilBoundThenGivesUp) {
  ReceiveBuffer::Config cfg;
  cfg.nack_interval = 50 * kMs;
  cfg.giveup_after = 10 * kSec;  // bound by retries, not time
  cfg.max_nacks_per_seq = 3;
  Harness h(cfg);
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.loop.run_until(5 * kSec);
  EXPECT_EQ(h.nacks.size(), 3u);
  EXPECT_EQ(h.gaps, 1);
  // After giving up, seq 3 must have been delivered past the hole.
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 3}));
}

TEST(ReceiveBuffer, GiveupByAgeSkipsHole) {
  ReceiveBuffer::Config cfg;
  cfg.giveup_after = 200 * kMs;
  Harness h(cfg);
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.loop.run_until(1 * kSec);
  EXPECT_EQ(h.gaps, 1);
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 3}));
}

TEST(ReceiveBuffer, DuplicatesIgnored) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 2));
  h.buf->on_packet(pkt(1, 1));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2}));
  EXPECT_EQ(h.buf->duplicates(), 2u);
}

TEST(ReceiveBuffer, StreamsAreIndependent) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(2, 100));  // different stream starts at 100
  h.buf->on_packet(pkt(2, 101));
  h.buf->on_packet(pkt(1, 2));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 100, 101, 2}));
}

TEST(ReceiveBuffer, FirstPacketSyncsExpectedSeq) {
  Harness h;
  h.buf->on_packet(pkt(1, 500));  // joined mid-stream (cache burst)
  h.buf->on_packet(pkt(1, 501));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{500, 501}));
  h.loop.run_until(1 * kSec);
  EXPECT_TRUE(h.nacks.empty());  // no NACK storm for seqs before join
}

TEST(ReceiveBuffer, LossFractionReflectsHoles) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 2));
  h.buf->on_packet(pkt(1, 4));  // one hole
  const double frac = h.buf->take_loss_fraction();
  EXPECT_NEAR(frac, 0.25, 1e-9);  // 1 hole / (3 received + 1 hole)
  EXPECT_EQ(h.buf->take_loss_fraction(), 0.0);  // counters reset
}

// Torture: the same adversarial arrival order (bounded reordering plus
// sprinkled exact duplicates) is fed to the transport reorder buffer and
// to the overlay packet cache; both must converge to a clean in-order,
// duplicate-free view of the stream.
TEST(TortureReordering, ReceiveBufferAndGopCacheSurviveChaoticFeed) {
  constexpr StreamId kStream = 7;
  constexpr Seq kGopLen = 40;
  constexpr Seq kTotal = 400;

  std::vector<media::RtpPacketMut> wire;
  for (Seq s = 1; s <= kTotal; ++s) {
    const auto t = (s - 1) % kGopLen == 0 ? media::FrameType::kI
                                          : media::FrameType::kP;
    wire.push_back(pkt(kStream, s, t));
  }

  // Bounded shuffle (window 8) keeping the first packet in place, so the
  // receive buffer syncs its expected seq to 1.
  Rng rng(2024);
  for (std::size_t i = 1; i + 1 < wire.size(); ++i) {
    const std::size_t j =
        i + rng.index(std::min<std::size_t>(8, wire.size() - i));
    std::swap(wire[i], wire[j]);
  }
  std::vector<media::RtpPacketMut> feed;
  std::size_t dup_count = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    feed.push_back(wire[i]);
    if (i > 0 && i % 10 == 0) {
      feed.push_back(wire[i - 1 - rng.index(std::min<std::size_t>(i, 8))]);
      ++dup_count;
    }
  }

  Harness h;
  overlay::PacketGopCache cache(2, 4096);
  for (const auto& p : feed) {
    h.buf->on_packet(p);
    cache.add(p);
  }

  // The reorder buffer must emit every packet exactly once, in order.
  ASSERT_EQ(h.delivered.size(), kTotal);
  for (Seq s = 1; s <= kTotal; ++s) EXPECT_EQ(h.delivered[s - 1], s);
  EXPECT_EQ(h.buf->duplicates(), dup_count);
  h.loop.run_until(1 * kSec);
  EXPECT_TRUE(h.nacks.empty());  // every hole was filled during the feed

  // The cache pruned to the newest GoPs; what remains must be a clean
  // seq-sorted, duplicate-free run ending at the newest packet.
  ASSERT_TRUE(cache.has_content(kStream));
  const auto burst = cache.startup_packets(kStream);
  ASSERT_FALSE(burst.empty());
  EXPECT_TRUE(burst.front()->is_keyframe_packet());
  EXPECT_EQ(burst.back()->seq, kTotal);
  for (std::size_t i = 1; i < burst.size(); ++i) {
    EXPECT_LT(burst[i - 1]->seq, burst[i]->seq);
  }
  // Every packet in the burst range is individually findable (the NACK
  // repair path binary-searches by seq).
  for (Seq s = burst.front()->seq; s <= kTotal; ++s) {
    const auto found = cache.find_packet(kStream, s);
    ASSERT_NE(found, nullptr) << "seq " << s;
    EXPECT_EQ(found->seq, s);
  }
  EXPECT_EQ(cache.find_packet(kStream, kTotal + 1), nullptr);
}

TEST(SendHistory, LookupAndExpiry) {
  SendHistory::Config cfg;
  cfg.max_age = 1 * kSec;
  SendHistory hist(cfg);
  auto p = pkt(1, 42);
  hist.record(p, 0);
  EXPECT_EQ(hist.lookup(1, false, 42, 500 * kMs), p);
  EXPECT_EQ(hist.lookup(1, false, 42, 3 * kSec), nullptr);  // expired
}

TEST(SendHistory, ForgetStreamRemovesEntries) {
  SendHistory hist;
  hist.record(pkt(1, 1), 0);
  hist.record(pkt(2, 1), 0);
  hist.forget_stream(1);
  EXPECT_EQ(hist.lookup(1, false, 1, 0), nullptr);
  EXPECT_NE(hist.lookup(2, false, 1, 0), nullptr);
}

TEST(SendHistory, CapacityBounded) {
  SendHistory::Config cfg;
  cfg.max_age = 100 * kSec;
  cfg.max_packets = 100;
  SendHistory hist(cfg);
  for (Seq s = 1; s <= 200; ++s) hist.record(pkt(1, s), static_cast<Time>(s));
  EXPECT_LE(hist.size(), 101u);
  EXPECT_EQ(hist.lookup(1, false, 1, 200), nullptr);    // evicted
  EXPECT_NE(hist.lookup(1, false, 200, 200), nullptr);  // recent kept
}


TEST(SendHistory, SpanBeyondCapKeepsNewest) {
  // Two live seqs of one flow on the same slot of a ring at its cap
  // (2^17 slots for the default max_packets): the newer record wins.
  SendHistory hist;
  const Seq far = 5 + (Seq{1} << 17);
  hist.record(pkt(1, 5), 0);
  hist.record(pkt(1, far), 0);
  EXPECT_EQ(hist.lookup(1, false, 5, 0), nullptr);
  EXPECT_NE(hist.lookup(1, false, far, 0), nullptr);
  EXPECT_EQ(hist.size(), 1u);
}

media::RtpPacketMut flow_pkt(StreamId s, bool audio, Seq seq) {
  return pkt(s, seq, audio ? media::FrameType::kAudio : media::FrameType::kP);
}

// Drives the ring store and the FIFO oracle with one seeded sequence of
// record / lookup / forget_stream calls over several streams, each with
// an audio and a video flow: fresh seqs with layer-filtered gaps,
// out-of-order and re-recorded seqs, bursts at one instant and clock
// jumps across max_age. Every lookup must return the same packet.
//
// The oracle keys a FIFO entry by (time, key), so a seq re-recorded at
// the very instant of its previous record is dropped when the *first*
// of the two leaves the max_packets window; the ring counts the latest
// record, as the oracle does whenever the two instants differ. The
// generator therefore moves the clock on by 1 ns before such a
// re-record (production never re-records a seq within one instant
// while anywhere near 100000 records are live).
void run_history_differential(Duration max_age, std::size_t max_packets,
                              std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "max_age=" << max_age
                                  << " max_packets=" << max_packets
                                  << " seed=" << seed);
  SendHistory::Config cfg;
  cfg.max_age = max_age;
  cfg.max_packets = max_packets;
  SendHistory ring(cfg);
  ReferenceSendHistory oracle(cfg);
  Rng rng(seed);
  constexpr StreamId kStreams = 4;
  std::map<std::pair<StreamId, bool>, Seq> next_seq;
  std::map<std::tuple<StreamId, bool, Seq>, Time> last_record;
  Time now = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;

  const auto record = [&](StreamId s, bool audio, Seq seq) {
    const auto [it, fresh] = last_record.try_emplace({s, audio, seq}, now);
    if (!fresh && it->second == now) ++now;
    it->second = now;
    const RtpPacketPtr p = flow_pkt(s, audio, seq);
    ring.record(p, now);
    oracle.record(p, now);
  };
  const auto check = [&](StreamId s, bool audio, Seq seq) {
    const RtpPacketPtr want = oracle.lookup(s, audio, seq, now);
    ASSERT_EQ(ring.lookup(s, audio, seq, now), want)
        << "stream=" << s << " audio=" << audio << " seq=" << seq
        << " now=" << now;
    ++(want ? hits : misses);
  };

  for (int op = 0; op < 20000; ++op) {
    const double clock = rng.uniform();
    if (clock < 0.01) {
      now += max_age + rng.uniform_int(-2, 2) * kMs;  // across max_age
    } else if (clock < 0.5) {
      now += rng.uniform_int(1, 2 * kMs);
    }  // else: same instant (a burst)
    const StreamId s = 1 + rng.index(kStreams);
    const bool audio = rng.chance(0.3);
    Seq& next = next_seq[{s, audio}];
    if (next == 0) next = 1 + rng.index(1000);
    const double kind = rng.uniform();
    if (kind < 0.55) {
      // Fresh seq; video skips seqs filtered out by a layer mask.
      if (!audio && rng.chance(0.3)) next += 1 + rng.index(3);
      record(s, audio, next++);
    } else if (kind < 0.7) {
      // Out of order (cache burst) or re-recorded.
      const Seq back = 1 + rng.index(64);
      if (next > back) record(s, audio, next - back);
    } else if (kind < 0.995) {
      const Seq back = rng.index(200);
      if (next > back) check(s, audio, next - back);
    } else {
      ring.forget_stream(s);
      oracle.forget_stream(s);
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  for (const auto& [flow, next] : next_seq) {
    for (Seq seq = next > 300 ? next - 300 : 0; seq <= next; ++seq) {
      check(flow.first, flow.second, seq);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(SendHistoryDifferential, AgreesWithFifoOracle) {
  struct Case {
    Duration max_age;
    std::size_t max_packets;
  };
  const Case cases[] = {
      {2 * kSec, 100000},  // production config: age bounds the store
      {40 * kMs, 100000},  // short age: most lookups miss
      {2 * kSec, 50},      // the max_packets count binds
      {30 * kMs, 7},       // both bind; a few entries live at a time
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      run_history_differential(c.max_age, c.max_packets, seed);
    }
  }
}

// A reorder burst far wider than the ring's first allocation, across a
// power-of-two seq boundary so slot order differs from seq order: the
// ring grows and still delivers everything once, in order, and
// buffered_packets() lists each flow in seq order, video first.
TEST(ReceiveBuffer, WideOutOfOrderBurstGrowsRing) {
  constexpr Seq kBase = 1000;
  Harness h;
  h.buf->on_packet(pkt(1, kBase));
  h.buf->on_packet(flow_pkt(1, true, 50));
  for (Seq s = kBase + 299; s >= kBase + 2; --s) h.buf->on_packet(pkt(1, s));
  h.buf->on_packet(flow_pkt(1, true, 52));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{kBase, 50}));

  const auto held = h.buf->buffered_packets(1);
  ASSERT_EQ(held.size(), 298u + 1u);
  for (std::size_t i = 0; i < 298; ++i) {
    EXPECT_EQ(held[i]->seq, kBase + 2 + i);
    EXPECT_FALSE(held[i]->is_audio());
  }
  EXPECT_EQ(held.back()->seq, 52u);
  EXPECT_TRUE(held.back()->is_audio());
  EXPECT_FALSE(h.buf->would_accept(1, false, kBase + 200));
  EXPECT_TRUE(h.buf->would_accept(1, false, kBase + 1));

  h.buf->on_packet(pkt(1, kBase + 1));
  ASSERT_EQ(h.delivered.size(), 2u + 299u);
  for (Seq i = 1; i < 300; ++i) EXPECT_EQ(h.delivered[i + 1], kBase + i);
  EXPECT_EQ(h.buf->buffered_packets(1).size(), 1u);  // audio 52 waits on 51
  EXPECT_EQ(h.buf->duplicates(), 0u);
}

TEST(ReceiveBuffer, OverflowSkipsToFirstBuffered) {
  ReceiveBuffer::Config cfg;
  cfg.max_buffered = 8;
  Harness h(cfg);
  h.buf->on_packet(pkt(1, 1));
  // Seq 2 is lost; 4..11 fill the buffer to its bound, then 3 and 12
  // arrive out of order: the ninth buffered packet forces a skip to the
  // lowest buffered seq (3, not the first to arrive).
  for (Seq s = 4; s <= 11; ++s) h.buf->on_packet(pkt(1, s));
  EXPECT_EQ(h.gaps, 0);
  h.buf->on_packet(pkt(1, 3));
  EXPECT_EQ(h.gaps, 1);
  h.buf->on_packet(pkt(1, 12));
  std::vector<Seq> want{1};
  for (Seq s = 3; s <= 12; ++s) want.push_back(s);
  EXPECT_EQ(h.delivered, want);
  EXPECT_TRUE(h.buf->buffered_packets(1).empty());
  h.loop.run_until(1 * kSec);
  EXPECT_EQ(h.gaps, 1);  // the skipped hole is not revisited
}

// SessionLayer serves a startup burst from inside the delivery upcall
// and reads buffered_packets() there; the packet being delivered must
// still be buffered (and not acceptable again) during its own upcall.
TEST(ReceiveBuffer, PacketStaysBufferedDuringItsDelivery) {
  sim::EventLoop loop;
  std::unique_ptr<ReceiveBuffer> buf;
  std::vector<std::vector<Seq>> seen;
  buf = std::make_unique<ReceiveBuffer>(
      &loop,
      [&](const RtpPacketPtr& p) {
        std::vector<Seq> held;
        for (const auto& q : buf->buffered_packets(1)) held.push_back(q->seq);
        EXPECT_FALSE(buf->would_accept(1, false, p->seq)) << p->seq;
        seen.push_back(held);
      },
      [](StreamId) {}, [](StreamId, bool, const std::vector<Seq>&) {});
  buf->on_packet(pkt(1, 1));
  buf->on_packet(pkt(1, 3));
  buf->on_packet(pkt(1, 2));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::vector<Seq>{1}));
  EXPECT_EQ(seen[1], (std::vector<Seq>{2, 3}));
  EXPECT_EQ(seen[2], (std::vector<Seq>{3}));
  EXPECT_TRUE(buf->buffered_packets(1).empty());
}

}  // namespace
}  // namespace livenet::transport
