#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "livenet/csv.h"
#include "livenet/defaults.h"
#include "livenet/report.h"
#include "media/fec.h"
#include "media/video_source.h"
#include "overlay/forwarding_engine.h"
#include "overlay/overlay_node.h"
#include "overlay/peer_senders.h"
#include "overlay/stream_context.h"
#include "sim/network.h"
#include "telemetry/metrics.h"
#include "transport/receive_buffer.h"

// SVC layered forwarding (DESIGN.md "SVC layered forwarding"): the
// layer lattice the encoder emits, the sparse FEC groups and void
// protocol that keep recovery off filtered layers, the zero-copy
// filtered fan-out, and the scenario-level differential proving the
// SVC-off world is byte-identical to the pre-SVC simulator.
namespace livenet {
namespace {

using media::kAllLayers;
using media::lattice_mask;
using media::layer_bit;
using media::LayerMask;

// ---------------------------------------------------------------------
// Lattice helpers.

TEST(SvcLattice, MaskHelpers) {
  EXPECT_EQ(layer_bit(0, 0), 0x0001u);
  EXPECT_EQ(layer_bit(0, 2), 0x0004u);
  EXPECT_EQ(layer_bit(1, 0), 0x0010u);
  EXPECT_EQ(layer_bit(2, 2), 0x0400u);
  EXPECT_EQ(lattice_mask(1, 1), 0x0001u);
  EXPECT_EQ(lattice_mask(1, 3), 0x0007u);
  EXPECT_EQ(lattice_mask(3, 3), 0x0777u);
  EXPECT_EQ(lattice_mask(4, 4), kAllLayers);
}

// ---------------------------------------------------------------------
// Encoder lattice: dyadic temporal assignment, spatial columns, and the
// bit-identity of a 1x1 source with the pre-SVC frame stream.

TEST(SvcSource, DyadicTemporalPatternL1T3) {
  media::VideoSourceConfig cfg;
  cfg.fps = 25;
  cfg.gop_frames = 8;
  cfg.svc_temporal_layers = 3;
  media::VideoSource src(1, cfg, Rng(7));
  // Dyadic T=3 pattern over one GoP: 0 2 1 2 0... (pos 0 is the I).
  const std::uint8_t expect[] = {0, 2, 1, 2, 0, 2, 1, 2};
  for (int g = 0; g < 2; ++g) {
    for (std::size_t i = 0; i < 8; ++i) {
      const media::Frame f = src.next_frame(0);
      EXPECT_EQ(f.layer.temporal, expect[i]) << "pos " << i;
      EXPECT_EQ(f.layer.spatial, 0);
      EXPECT_TRUE(f.is_svc());
      EXPECT_EQ(f.temporal_layers, 3);
      // Only the top temporal layer is safe to drop mid-GoP.
      EXPECT_EQ(f.discardable, f.layer.temporal == 2);
      EXPECT_EQ(f.is_keyframe(), i == 0);
    }
  }
}

TEST(SvcSource, SpatialColumnsShareTheCaptureTick) {
  media::VideoSourceConfig cfg;
  cfg.fps = 25;
  cfg.gop_frames = 4;
  cfg.svc_spatial_layers = 3;
  cfg.svc_temporal_layers = 3;
  media::VideoSource src(9, cfg, Rng(3));
  const auto picture = src.next_picture(5 * kMs);
  ASSERT_EQ(picture.size(), 3u);
  for (std::uint8_t s = 0; s < 3; ++s) {
    EXPECT_EQ(picture[s].layer.spatial, s);
    EXPECT_EQ(picture[s].layer.temporal, picture[0].layer.temporal);
    EXPECT_EQ(picture[s].capture_time, 5 * kMs);
    EXPECT_EQ(picture[s].gop_id, picture[0].gop_id);
  }
  // Consecutive frame ids: base first, then enhancements.
  EXPECT_EQ(picture[1].frame_id, picture[0].frame_id + 1);
  EXPECT_EQ(picture[2].frame_id, picture[0].frame_id + 2);
  // Spatial enhancements scale up (higher resolution costs bytes).
  EXPECT_GT(picture[1].size_bytes, picture[0].size_bytes);
  EXPECT_GT(picture[2].size_bytes, picture[1].size_bytes);
}

TEST(SvcSource, OneByOneLatticeIsBitIdenticalToPlainSource) {
  media::VideoSourceConfig plain;
  plain.fps = 25;
  plain.gop_frames = 10;
  media::VideoSourceConfig svc_off = plain;
  svc_off.svc_spatial_layers = 1;
  svc_off.svc_temporal_layers = 1;
  media::VideoSource a(3, plain, Rng(11));
  media::VideoSource b(3, svc_off, Rng(11));
  for (int i = 0; i < 50; ++i) {
    const media::Frame fa = a.next_frame(i * kMs);
    const auto pic = b.next_picture(i * kMs);
    ASSERT_EQ(pic.size(), 1u);
    const media::Frame& fb = pic[0];
    EXPECT_EQ(fa.frame_id, fb.frame_id);
    EXPECT_EQ(fa.size_bytes, fb.size_bytes);
    EXPECT_EQ(fa.type, fb.type);
    EXPECT_FALSE(fb.is_svc());
    EXPECT_EQ(fb.layer_mask_bit(), layer_bit(0, 0));
  }
}

// ---------------------------------------------------------------------
// FEC over a layer-filtered link: sparse membership bitmaps.

media::RtpBody svc_body(media::Seq seq, std::uint8_t temporal) {
  media::RtpBody b;
  b.stream_id = 4;
  b.seq = seq;
  b.frame_id = seq;
  b.gop_id = 1;
  b.payload_bytes = 900 + seq;
  b.layer = media::LayerId{0, temporal};
  b.spatial_layers = 1;
  b.temporal_layers = 2;
  b.discardable = temporal == 1;
  return b;
}

TEST(SvcFec, DenseGroupKeepsLegacyZeroBitmap) {
  media::FecGroupEncoder enc(3);
  EXPECT_FALSE(enc.add(svc_body(1, 0)).has_value());
  EXPECT_FALSE(enc.add(svc_body(2, 0)).has_value());
  const auto parity = enc.add(svc_body(3, 0));
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->fec_seq_bitmap, 0u);  // byte-identical legacy parity
  EXPECT_EQ(parity->fec_base_seq, 1u);
  EXPECT_EQ(parity->fec_group_count, 3u);
}

TEST(SvcFec, SparseGroupSpendsNoParityOnFilteredSeqs) {
  // Link forwards T0 only: seqs 1 3 5 are members, 2 and 4 skipped.
  media::FecGroupEncoder enc(3);
  EXPECT_FALSE(enc.add(svc_body(1, 0)).has_value());
  enc.skip(2);
  EXPECT_FALSE(enc.add(svc_body(3, 0)).has_value());
  enc.skip(4);
  const auto parity = enc.add(svc_body(5, 0));
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->fec_seq_bitmap, 0b10101u);  // members 1, 3, 5

  // The decoder reconstructs a lost *member* from the other members —
  // the skipped seqs are not holes.
  media::FecDecoder dec;
  const auto p1 = media::RtpPacket::make(svc_body(1, 0));
  const auto p5 = media::RtpPacket::make(svc_body(5, 0));
  const auto pp = media::RtpPacket::make(*parity);
  dec.on_parity(*pp);  // activates; group held (nothing received yet)
  EXPECT_EQ(dec.on_media(*p1), nullptr);
  media::RtpPacketMut rec = dec.on_media(*p5);  // one hole left: seq 3
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->producer_seq(), 3u);
  EXPECT_TRUE(rec->fec_recovered);
  EXPECT_EQ(rec->payload_bytes(), 903u);
  EXPECT_EQ(rec->layer().temporal, 0);  // lattice coordinates survive XOR
  EXPECT_EQ(rec->temporal_layers(), 2);
}

// ---------------------------------------------------------------------
// Receive-buffer voids: filtered seqs never NACK, and a stale copy of a
// filtered layer can never resurrect through out-of-band recovery.

media::RtpPacketMut make_pkt(media::Seq seq, media::Seq prev_link_seq = 0) {
  media::RtpPacketMut p = media::RtpPacket::make(svc_body(seq, 0));
  p->prev_link_seq = prev_link_seq;
  return p;
}

TEST(SvcVoids, VoidedSeqsDrainWithoutNackOrGap) {
  sim::EventLoop loop;
  std::vector<media::Seq> delivered;
  int gaps = 0;
  int nacks = 0;
  transport::ReceiveBuffer buf(
      &loop,
      [&](const media::RtpPacketPtr& p) { delivered.push_back(p->seq); },
      [&](media::StreamId) { ++gaps; },
      [&](media::StreamId, bool, const std::vector<media::Seq>&) {
        ++nacks;
      });
  buf.on_packet(make_pkt(1));
  // Sender vouches (1, 4) was filtered on purpose: 2 and 3 are voids.
  buf.on_packet(make_pkt(4, /*prev_link_seq=*/1));
  loop.run_until(1 * kSec);
  EXPECT_EQ(delivered, (std::vector<media::Seq>{1, 4}));
  EXPECT_EQ(gaps, 0);
  EXPECT_EQ(nacks, 0);
}

TEST(SvcVoids, StaleFilteredLayerNeverResurrects) {
  sim::EventLoop loop;
  std::vector<media::Seq> delivered;
  transport::ReceiveBuffer buf(
      &loop,
      [&](const media::RtpPacketPtr& p) { delivered.push_back(p->seq); },
      [](media::StreamId) {},
      [](media::StreamId, bool, const std::vector<media::Seq>&) {});
  buf.on_packet(make_pkt(1));
  // Genuine loss of 2..3, then a void at 5: the clean-gap protocol only
  // vouches for (4, 6), so 2..3 stay real holes.
  media::RtpPacketMut p4 = make_pkt(4);
  buf.on_packet(p4);  // hole 2..3 opens
  buf.on_packet(make_pkt(6, /*prev_link_seq=*/4));
  EXPECT_TRUE(buf.would_accept(4, false, 2));   // real hole: recoverable
  EXPECT_FALSE(buf.would_accept(4, false, 5));  // void: injection refused
  // Fill the genuine holes; the drain steps over the void.
  buf.on_packet(make_pkt(2));
  buf.on_packet(make_pkt(3));
  EXPECT_EQ(delivered, (std::vector<media::Seq>{1, 2, 3, 4, 6}));
  // A stale RTX of the voided seq arriving late is a duplicate, not a
  // delivery — the filtered layer cannot resurrect.
  const std::uint64_t dup_before = buf.duplicates();
  media::RtpPacketMut stale = make_pkt(5);
  stale->is_rtx = true;
  buf.on_packet(stale);
  EXPECT_EQ(buf.duplicates(), dup_before + 1);
  EXPECT_EQ(delivered.back(), 6u);
  EXPECT_EQ(buf.packets_delivered(), 5u);
}

// ---------------------------------------------------------------------
// Zero-copy filtered fan-out: a packet excluded by a subscriber's mask
// is never forked for that link — no trailer allocation, no body copy.

class PacketSink final : public sim::SimNode {
 public:
  void on_message(sim::NodeId, const sim::MessagePtr& msg) override {
    if (const auto pkt = sim::msg_cast<const media::RtpPacket>(msg)) {
      seqs.push_back(pkt->producer_seq());
      prevs.push_back(pkt->prev_link_seq);
    }
  }
  std::vector<media::Seq> seqs;
  std::vector<media::Seq> prevs;
};

/// A bare ForwardingEngine on `self` with two 1 Gb/s peers `a` and `b`;
/// the test drives fast_forward with its own StreamContext.
struct FanoutHarness {
  sim::EventLoop loop;
  sim::Network net{&loop, /*seed=*/5};
  PacketSink owner, sink_a, sink_b;
  sim::NodeId self = net.add_node(&owner);
  sim::NodeId a = net.add_node(&sink_a);
  sim::NodeId b = net.add_node(&sink_b);
  overlay::OverlayNodeConfig cfg;
  overlay::NodeEnv env;
  overlay::PeerSenders senders{&net, &owner, cfg.sender};
  overlay::ForwardingEngine engine{&cfg, &env, &senders};
  overlay::StreamContext ctx;

  FanoutHarness() {
    sim::LinkConfig lc;
    lc.bandwidth_bps = 1e9;
    lc.propagation_delay = 1 * kMs;
    lc.loss_rate = 0.0;
    lc.jitter_stddev = 0;
    net.add_bidi_link(self, a, lc);
    net.add_bidi_link(self, b, lc);
    env.net = &net;
    env.owner = &owner;
    env.peers = {a, b};
    env.peer_set = {a, b};
    ctx.fib_active = true;
    ctx.fib.locally_produced = true;
  }

  void forward(media::Seq s, std::uint8_t temporal = 0) {
    engine.fast_forward(sim::kNoNode,
                        media::RtpPacket::make(svc_body(s, temporal)), &ctx);
  }
};

TEST(SvcZeroCopy, FilteredTargetIsNeverForked) {
  reset_telemetry();
  FanoutHarness h;
  PacketSink& dense_peer = h.sink_a;
  PacketSink& masked_peer = h.sink_b;
  h.ctx.fib.subscriber_nodes.insert(h.a);
  h.ctx.fib.subscriber_nodes.insert(h.b);
  h.ctx.fib.set_node_mask(h.b, layer_bit(0, 0));  // base temporal layer only

  const std::uint64_t copies_before = media::RtpBody::deep_copy_count();
  const std::uint64_t filtered_before =
      telemetry::handles().layer_filtered->value();
  // T0 T1 T0: the enhancement (seq 2) is filtered off the masked link.
  for (media::Seq s = 1; s <= 3; ++s) {
    h.forward(s, s == 2 ? 1 : 0);
    h.loop.run();
  }

  EXPECT_EQ(dense_peer.seqs, (std::vector<media::Seq>{1, 2, 3}));
  EXPECT_EQ(dense_peer.prevs, (std::vector<media::Seq>{0, 0, 0}));
  // The masked peer got T0 only; the fork it did receive is stamped
  // with the void range so its receive buffer never NACKs seq 2.
  EXPECT_EQ(masked_peer.seqs, (std::vector<media::Seq>{1, 3}));
  EXPECT_EQ(masked_peer.prevs, (std::vector<media::Seq>{0, 1}));
  // Zero-copy both ways: forwarding shares one body, and the filtered
  // target never allocated so much as a trailer.
  EXPECT_EQ(media::RtpBody::deep_copy_count(), copies_before);
  EXPECT_EQ(telemetry::handles().layer_filtered->value(),
            filtered_before + 1);
  EXPECT_EQ(h.engine.fast_forwards(), 5u);  // 3 dense + 2 masked forks
}

// The deferred fan-out sends each packet to the subscribers it had when
// fast_forward ran, whatever happens to the set during the delay.
TEST(FanoutSnapshot, TargetsAreFixedAtFastForwardTime) {
  reset_telemetry();
  FanoutHarness h;
  h.ctx.fib.subscriber_nodes.insert(h.a);

  // Two packets at the same instant: both forwarded, in arrival order,
  // and neither before the fast-path delay has passed.
  h.forward(1);
  h.forward(2);
  h.loop.run_until(h.loop.now() + overlay::kFastProcDelay - 1);
  EXPECT_EQ(h.engine.fast_forwards(), 0u);
  h.loop.run();
  EXPECT_EQ(h.sink_a.seqs, (std::vector<media::Seq>{1, 2}));

  // Subscribed between fast_forward and its fan-out: not this packet.
  h.forward(3);
  h.ctx.fib.subscriber_nodes.insert(h.b);
  h.loop.run();
  EXPECT_EQ(h.sink_a.seqs, (std::vector<media::Seq>{1, 2, 3}));
  EXPECT_TRUE(h.sink_b.seqs.empty());

  // Unsubscribed in that window: still gets the packet.
  h.forward(4);
  h.ctx.fib.subscriber_nodes.erase(h.b);
  h.loop.run();
  EXPECT_EQ(h.sink_a.seqs, (std::vector<media::Seq>{1, 2, 3, 4}));
  EXPECT_EQ(h.sink_b.seqs, (std::vector<media::Seq>{4}));
  EXPECT_EQ(h.engine.fast_forwards(), 5u);
}

// Per-(stream, link) fast-path state — the FEC group encoders and the
// masked-link seq history — dies with the stream on release and with
// everything else on a crash.
TEST(SvcTeardown, ReleaseAndCrashDropPerLinkState) {
  reset_telemetry();
  sim::EventLoop loop;
  sim::Network net(&loop, /*seed=*/5);
  overlay::OverlayMetrics metrics;
  overlay::OverlayNodeConfig cfg;
  cfg.fec_rate = 1.0;
  overlay::OverlayNode node(&net, &metrics, cfg);
  PacketSink broadcaster, dense_peer, masked_peer;
  const sim::NodeId self = net.add_node(&node);
  const sim::NodeId bcast = net.add_node(&broadcaster);
  const sim::NodeId a = net.add_node(&dense_peer);
  const sim::NodeId b = net.add_node(&masked_peer);
  sim::LinkConfig lc;
  lc.loss_rate = 0.0;
  lc.jitter_stddev = 0;
  net.add_bidi_link(self, bcast, lc);
  net.add_bidi_link(self, a, lc);
  net.add_bidi_link(self, b, lc);
  node.set_overlay_peers({self, a, b});

  for (const media::StreamId s : {7, 8}) {
    auto pub = sim::make_message<overlay::PublishRequest>();
    pub->stream_id = s;
    net.send(bcast, self, std::move(pub));
    for (const sim::NodeId peer : {a, b}) {
      auto sub = sim::make_message<overlay::SubscribeRequest>();
      sub->stream_id = s;
      if (peer == b) sub->layer_mask = layer_bit(0, 0);
      net.send(peer, self, std::move(sub));
    }
  }
  loop.run_until(100 * kMs);
  // T0 T1 T0 on both streams.
  for (media::Seq q = 1; q <= 3; ++q) {
    for (const media::StreamId s : {7, 8}) {
      media::RtpBody body = svc_body(q, q == 2 ? 1 : 0);
      body.stream_id = s;
      net.send(bcast, self, media::RtpPacket::make(std::move(body)));
    }
  }
  loop.run_until(200 * kMs);
  ASSERT_EQ(masked_peer.seqs.size(), 4u);  // seqs 1 and 3 of each stream
  // Per stream: an FEC encoder on each link + the masked link's history.
  EXPECT_EQ(node.forwarding_link_states(7), 3u);
  EXPECT_EQ(node.forwarding_link_states(8), 3u);

  auto stop = sim::make_message<overlay::PublishStop>();
  stop->stream_id = 7;
  net.send(bcast, self, std::move(stop));
  loop.run_until(300 * kMs);
  EXPECT_FALSE(node.fib().contains(7));
  EXPECT_EQ(node.forwarding_link_states(7), 0u);
  EXPECT_EQ(node.forwarding_link_states(8), 3u);

  node.crash();
  EXPECT_EQ(node.forwarding_link_states(8), 0u);
}

// ---------------------------------------------------------------------
// Scenario-level differential + chaos determinism.

ScenarioResult run_scenario(const ScenarioConfig& scn) {
  reset_telemetry();
  SystemConfig sys_cfg = paper_system_config(31);
  sys_cfg.countries = 2;
  sys_cfg.nodes_per_country = 3;
  LiveNetSystem system(sys_cfg);
  ScenarioRunner runner(system, scn);
  return runner.run();
}

ScenarioConfig small_scenario() {
  ScenarioConfig scn;
  scn.duration = 40 * kSec;
  scn.day_length = 20 * kSec;
  scn.broadcasts = 3;
  scn.viewer_rate_peak = 1.0;
  scn.mean_view_time = 10 * kSec;
  scn.seed = 77;
  return scn;
}

std::string all_csv(const ScenarioResult& r) {
  std::ostringstream os;
  os << "# sessions\n";
  write_sessions_csv(r, os);
  os << "# views\n";
  write_views_csv(r, os);
  os << "# path_requests\n";
  write_path_requests_csv(r, os);
  os << "# timeline\n";
  write_timeline_csv(r, os);
  os << "# faults\n";
  write_faults_csv(r, os);
  return os.str();
}

/// Registry dump minus brain.recompute_* (the only wall-clock metrics).
std::string metrics_json_sans_wallclock() {
  std::ostringstream os;
  telemetry::MetricsRegistry::instance().write_json(os);
  std::istringstream in(os.str());
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find("brain.recompute_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(SvcDifferential, SvcOffIsByteIdenticalToPreSvcWorld) {
  // Three spellings of "off": untouched defaults, the explicit
  // --svc-mode off knob, and a zero viewer mask (sanitized to
  // all-layers at the client). All must produce byte-identical CSVs
  // and metrics — SVC machinery is invisible until a lattice exists.
  const ScenarioConfig base = small_scenario();
  const std::string ref_csv = all_csv(run_scenario(base));
  const std::string ref_metrics = metrics_json_sans_wallclock();
  ASSERT_FALSE(ref_csv.empty());

  ScenarioConfig off = small_scenario();
  ASSERT_TRUE(apply_svc_mode(off, "off"));
  EXPECT_EQ(all_csv(run_scenario(off)), ref_csv);
  EXPECT_EQ(metrics_json_sans_wallclock(), ref_metrics);

  ScenarioConfig zero_mask = small_scenario();
  zero_mask.viewer_layer_mask = 0;
  EXPECT_EQ(all_csv(run_scenario(zero_mask)), ref_csv);
  EXPECT_EQ(metrics_json_sans_wallclock(), ref_metrics);

  EXPECT_FALSE(apply_svc_mode(off, "L9T9"));  // unknown modes rejected
}

TEST(SvcChaos, MaskFlipsUnderFaultsAreDeterministicAndZeroCopy) {
  // L3T3 with viewers starting on the base spatial column, chaos faults
  // flapping links mid-stream: up-switch requests race keyframes, narrow
  // requests race losses, and every RTX/FEC/cache path runs against
  // layer-filtered links. Two identical runs must agree byte-for-byte —
  // any stale-layer resurrection (a filtered seq sneaking back in via
  // recovery) would show up as a diverging delivery order or duplicate
  // accounting across the paths.
  ScenarioConfig scn = small_scenario();
  ASSERT_TRUE(apply_svc_mode(scn, "L3T3"));
  scn.viewer_layer_mask = lattice_mask(1, 3);  // base spatial column
  scn.faults.seed = 5;
  scn.faults.link_flaps_per_min = 1.0;
  scn.faults.degrades_per_min = 1.0;

  const std::uint64_t copies_before = media::RtpBody::deep_copy_count();
  const std::string first = all_csv(run_scenario(scn));
  const std::string first_metrics = metrics_json_sans_wallclock();
  const auto& h = telemetry::handles();
  // The lattice is live: enhancement packets were filtered without
  // copies, masks flipped, and at least one widen waited for its
  // decodability anchor (keyframe / T0 commit gate).
  EXPECT_GT(h.layer_filtered->value(), 0u);
  EXPECT_GT(h.svc_mask_flips->value(), 0u);
  EXPECT_GT(h.svc_upswitch_wait_ms->histogram().count(), 0u);
  EXPECT_EQ(media::RtpBody::deep_copy_count(), copies_before);

  const std::string second = all_csv(run_scenario(scn));
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_metrics, metrics_json_sans_wallclock());
}

}  // namespace
}  // namespace livenet
