// Traced build: a span around each layer entry point, recorded from
// outside the simulator by link-time interposition. For every symbol S
// named on a WRAP line below the linker is run with --wrap=S (the flags
// are generated from this file by CMakeLists.txt), so each call into S
// from another object file lands in __wrap_S, which opens a span and
// forwards to __real_S. Calls inside S's own translation unit and
// virtual upcalls are not interposed; their time stays in the caller's
// span (for the event loop's dispatch, in sim.run).
//
// A member function is called here as a free function taking `this`
// first, which is how the Itanium C++ ABI passes it. __real_S is weak
// so that a symbol a later refactor removes only empties its span.
#include <x86intrin.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "brain/global_discovery.h"
#include "brain/global_routing.h"
#include "media/fec.h"
#include "media/framer.h"
#include "media/gop_cache.h"
#include "media/jitter_framer.h"
#include "media/packetizer.h"
#include "media/video_source.h"
#include "overlay/control_agent.h"
#include "overlay/forwarding_engine.h"
#include "overlay/link_receiver.h"
#include "overlay/link_sender.h"
#include "overlay/packet_cache.h"
#include "overlay/session_layer.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "trace.h"
#include "transport/gcc.h"
#include "transport/pacer.h"
#include "transport/receive_buffer.h"
#include "transport/send_history.h"

using namespace livenet;

namespace {

#define PERFBENCH_SPANS(X)                                 \
  X(kSimRun, "sim.run")                                    \
  X(kSimSend, "sim.send")                                  \
  X(kHistoryRecord, "transport.send_history.record")       \
  X(kHistoryLookup, "transport.send_history.lookup")       \
  X(kPacerEnqueue, "transport.pacer.enqueue")              \
  X(kReceiveBuffer, "transport.receive_buffer.on_packet")  \
  X(kGcc, "transport.gcc.on_packet")                       \
  X(kPacketize, "media.packetize")                         \
  X(kFramer, "media.framer.on_packet")                     \
  X(kGopCache, "media.gop_cache.add_frame")                \
  X(kJitterFramer, "media.jitter_framer.on_packet")        \
  X(kFecEncode, "media.fec.encode")                        \
  X(kFecDecode, "media.fec.decode")                        \
  X(kFastForward, "overlay.forwarding.fast_forward")       \
  X(kSendMedia, "overlay.link_sender.send_media")          \
  X(kSendRtx, "overlay.link_sender.send_rtx")              \
  X(kOnNack, "overlay.link_sender.on_nack")                \
  X(kOnRtp, "overlay.link_receiver.on_rtp")                \
  X(kCacheAdd, "overlay.packet_cache.add")                 \
  X(kCacheFind, "overlay.packet_cache.find_packet")        \
  X(kControl, "overlay.control")                           \
  X(kSwitchPath, "overlay.control.switch_path")            \
  X(kMaskUpdate, "overlay.control.update_upstream_mask")   \
  X(kSession, "overlay.session")                           \
  X(kDeliver, "overlay.session.deliver_to_client")         \
  X(kVideoSource, "client.video_source.next_picture")      \
  X(kRecompute, "brain.recompute")                         \
  X(kOnReport, "brain.discovery.on_report")

#define PERFBENCH_ENUM(id, name) id,
enum SpanId : int { PERFBENCH_SPANS(PERFBENCH_ENUM) kSpanCount };
#define PERFBENCH_NAME(id, name) name,
constexpr const char* kSpanNames[kSpanCount] = {
    PERFBENCH_SPANS(PERFBENCH_NAME)};
constexpr int kRoot = kSpanCount;  // parent index of a top-level span
constexpr int kMaxDepth = 128;

struct Cell {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;        // inclusive duration
  std::uint64_t child_ticks = 0;  // covered by child spans
};

struct Frame {
  int id;
  std::uint64_t start;
  std::uint64_t child;
};

// Recording state. Only the thread that called trace_start() touches
// it: the simulation is single-threaded and Brain solver workers call
// no wrapped function.
Cell g_cells[kSpanCount][kSpanCount + 1];
Frame g_stack[kMaxDepth];
int g_depth = 0;
thread_local bool tl_recording = false;

// Tick-to-nanosecond calibration over the recorded intervals.
std::chrono::steady_clock::time_point g_wall_start;
std::uint64_t g_tick_start = 0;
double g_wall_ns = 0.0;
double g_ticks = 0.0;

// Counts read from arguments and results at the boundaries.
std::map<std::string, double> g_extras;
std::map<std::string, std::vector<double>> g_samples;

class Scope {
 public:
  explicit Scope(int id) : active_(tl_recording && g_depth < kMaxDepth) {
    if (active_) g_stack[g_depth++] = Frame{id, __rdtsc(), 0};
  }
  ~Scope() {
    if (!active_) return;
    const std::uint64_t end = __rdtsc();
    const Frame f = g_stack[--g_depth];
    const std::uint64_t dur = end - f.start;
    const int parent = g_depth > 0 ? g_stack[g_depth - 1].id : kRoot;
    Cell& c = g_cells[f.id][parent];
    ++c.calls;
    c.ticks += dur;
    c.child_ticks += f.child;
    if (g_depth > 0) g_stack[g_depth - 1].child += dur;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  bool active() const { return active_; }
  /// Inclusive ticks so far (for per-call samples).
  std::uint64_t elapsed() const {
    return active_ ? __rdtsc() - g_stack[g_depth - 1].start : 0;
  }

 private:
  bool active_;
};

void add_extra(const char* name, double v) {
  if (tl_recording) g_extras[name] += v;
}

}  // namespace

// WRAP(span, return type, symbol, (parameters), (arguments)) defines a
// plain forwarding wrapper. WRAP_CUSTOM(return type, symbol,
// (parameters)) declares the pair and leaves the body to the caller.
#define PERFBENCH_REAL(sym) __real_##sym
#define WRAP_CUSTOM(ret, sym, params)                                 \
  extern "C" ret __real_##sym params __attribute__((weak));           \
  extern "C" ret __wrap_##sym params
#define WRAP(id, ret, sym, params, args) \
  WRAP_CUSTOM(ret, sym, params) {        \
    Scope s_(id);                        \
    return __real_##sym args;            \
  }

using media::RtpPacketPtr;
using media::Seq;
using media::StreamId;
using sim::NodeId;

// ---- sim
WRAP(kSimRun, void, _ZN7livenet3sim9EventLoop9run_untilEl,
     (sim::EventLoop* self, Time t), (self, t))
WRAP(kSimSend, sim::SendResult, _ZN7livenet3sim7Network7send_exEiiNS0_12IntrusivePtrIKNS0_7MessageEEE,
     (sim::Network* self, NodeId a, NodeId b, sim::MessagePtr m),
     (self, a, b, std::move(m)))

// ---- transport
WRAP(kHistoryRecord, void, _ZN7livenet9transport11SendHistory6recordERKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEEl,
     (transport::SendHistory* self, const RtpPacketPtr& p, Time now),
     (self, p, now))
WRAP(kHistoryLookup, RtpPacketPtr, _ZN7livenet9transport11SendHistory6lookupEmbml,
     (transport::SendHistory* self, StreamId s, bool audio, Seq q, Time now),
     (self, s, audio, q, now))
WRAP(kPacerEnqueue, void, _ZN7livenet9transport5Pacer7enqueueENS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEE,
     (transport::Pacer* self, RtpPacketPtr p), (self, std::move(p)))
WRAP(kReceiveBuffer, void, _ZN7livenet9transport13ReceiveBuffer9on_packetERKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEE,
     (transport::ReceiveBuffer* self, const RtpPacketPtr& p), (self, p))
WRAP(kGcc, void, _ZN7livenet9transport11GccReceiver9on_packetEllm,
     (transport::GccReceiver* self, Time sent, Time arrived, std::size_t bytes),
     (self, sent, arrived, bytes))

// ---- media
WRAP(kPacketize, std::vector<media::RtpPacketMut>, _ZN7livenet5media10Packetizer9packetizeERKNS0_5FrameEl,
     (media::Packetizer* self, const media::Frame& f, Duration ext),
     (self, f, ext))
WRAP(kFramer, void, _ZN7livenet5media6Framer9on_packetERKNS0_9RtpPacketE,
     (media::Framer* self, const media::RtpPacket& p), (self, p))
WRAP(kGopCache, void, _ZN7livenet5media8GopCache9add_frameERKNS0_5FrameE,
     (media::GopCache* self, const media::Frame& f), (self, f))
WRAP(kJitterFramer, void, _ZN7livenet5media12JitterFramer9on_packetERKNS0_9RtpPacketEl,
     (media::JitterFramer* self, const media::RtpPacket& p, Time now),
     (self, p, now))
WRAP(kFecEncode, std::optional<media::RtpBody>, _ZN7livenet5media15FecGroupEncoder3addERKNS0_7RtpBodyE,
     (media::FecGroupEncoder* self, const media::RtpBody& b), (self, b))
WRAP_CUSTOM(media::RtpPacketMut, _ZN7livenet5media10FecDecoder9on_parityERKNS0_9RtpPacketE,
            (media::FecDecoder* self, const media::RtpPacket& p)) {
  Scope s(kFecDecode);
  media::RtpPacketMut r =
      PERFBENCH_REAL(_ZN7livenet5media10FecDecoder9on_parityERKNS0_9RtpPacketE)(self, p);
  add_extra("fec.parity_received", 1);
  if (r) add_extra("fec.recovered", 1);
  return r;
}
WRAP_CUSTOM(media::RtpPacketMut, _ZN7livenet5media10FecDecoder8on_mediaERKNS0_9RtpPacketE,
            (media::FecDecoder* self, const media::RtpPacket& p)) {
  Scope s(kFecDecode);
  media::RtpPacketMut r =
      PERFBENCH_REAL(_ZN7livenet5media10FecDecoder8on_mediaERKNS0_9RtpPacketE)(self, p);
  if (r) add_extra("fec.recovered", 1);
  return r;
}

// ---- overlay
WRAP(kFastForward, void, _ZN7livenet7overlay16ForwardingEngine12fast_forwardEiRKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEEPKNS0_13StreamContextE,
     (overlay::ForwardingEngine* self, NodeId from, const RtpPacketPtr& p,
      const overlay::StreamContext* ctx),
     (self, from, p, ctx))
WRAP(kSendMedia, void, _ZN7livenet7overlay10LinkSender10send_mediaERKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEE,
     (overlay::LinkSender* self, const RtpPacketPtr& p), (self, p))
WRAP(kSendRtx, void, _ZN7livenet7overlay10LinkSender8send_rtxERKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEE,
     (overlay::LinkSender* self, const RtpPacketPtr& p), (self, p))
WRAP_CUSTOM(std::vector<Seq>, _ZN7livenet7overlay10LinkSender7on_nackEmbRKSt6vectorImSaImEE,
            (overlay::LinkSender* self, StreamId s, bool audio,
             const std::vector<Seq>& seqs)) {
  Scope sc(kOnNack);
  std::vector<Seq> missing =
      PERFBENCH_REAL(_ZN7livenet7overlay10LinkSender7on_nackEmbRKSt6vectorImSaImEE)(
          self, s, audio, seqs);
  add_extra("nack.seqs", static_cast<double>(seqs.size()));
  add_extra("nack.missing", static_cast<double>(missing.size()));
  return missing;
}
WRAP(kOnRtp, void, _ZN7livenet7overlay12LinkReceiver6on_rtpERKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEE,
     (overlay::LinkReceiver* self, const RtpPacketPtr& p), (self, p))
WRAP(kCacheAdd, void, _ZN7livenet7overlay14PacketGopCache3addERKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEE,
     (overlay::PacketGopCache* self, const RtpPacketPtr& p), (self, p))
WRAP_CUSTOM(RtpPacketPtr, _ZNK7livenet7overlay14PacketGopCache11find_packetEmm,
            (const overlay::PacketGopCache* self, StreamId s, Seq q)) {
  Scope sc(kCacheFind);
  RtpPacketPtr r =
      PERFBENCH_REAL(_ZNK7livenet7overlay14PacketGopCache11find_packetEmm)(self, s, q);
  if (r) add_extra("packet_cache.hits", 1);
  return r;
}
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent14handle_publishEiRKNS0_14PublishRequestE,
     (overlay::ControlAgent* self, NodeId c, const overlay::PublishRequest& m),
     (self, c, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent19handle_publish_stopEiRKNS0_11PublishStopE,
     (overlay::ControlAgent* self, NodeId c, const overlay::PublishStop& m),
     (self, c, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent20handle_path_responseERKNS0_12PathResponseE,
     (overlay::ControlAgent* self, const overlay::PathResponse& m), (self, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent16handle_path_pushERKNS0_8PathPushE,
     (overlay::ControlAgent* self, const overlay::PathPush& m), (self, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent16handle_subscribeEiRKNS0_16SubscribeRequestE,
     (overlay::ControlAgent* self, NodeId f, const overlay::SubscribeRequest& m),
     (self, f, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent20handle_subscribe_ackEiRKNS0_12SubscribeAckE,
     (overlay::ControlAgent* self, NodeId f, const overlay::SubscribeAck& m),
     (self, f, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent18handle_unsubscribeEiRKNS0_18UnsubscribeRequestE,
     (overlay::ControlAgent* self, NodeId f, const overlay::UnsubscribeRequest& m),
     (self, f, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent20handle_switch_noticeEiRKNS0_18StreamSwitchNoticeE,
     (overlay::ControlAgent* self, NodeId f, const overlay::StreamSwitchNotice& m),
     (self, f, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent21handle_producer_relayERKNS0_24ProducerRelayInstructionE,
     (overlay::ControlAgent* self, const overlay::ProducerRelayInstruction& m),
     (self, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent24handle_layer_mask_updateEiRKNS0_15LayerMaskUpdateE,
     (overlay::ControlAgent* self, NodeId f, const overlay::LayerMaskUpdate& m),
     (self, f, m))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent11crash_resetEv,
     (overlay::ControlAgent* self), (self))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent12request_pathEm,
     (overlay::ControlAgent* self, StreamId s), (self, s))
WRAP(kControl, void, _ZN7livenet7overlay12ControlAgent20maybe_release_streamEm,
     (overlay::ControlAgent* self, StreamId s), (self, s))
WRAP(kSwitchPath, void, _ZN7livenet7overlay12ControlAgent11switch_pathEm,
     (overlay::ControlAgent* self, StreamId s), (self, s))
WRAP(kMaskUpdate, void, _ZN7livenet7overlay12ControlAgent20update_upstream_maskEm,
     (overlay::ControlAgent* self, StreamId s), (self, s))
WRAP(kSession, void, _ZN7livenet7overlay12SessionLayer19handle_view_requestEiRKNS0_11ViewRequestE,
     (overlay::SessionLayer* self, NodeId c, const overlay::ViewRequest& m),
     (self, c, m))
WRAP(kSession, void, _ZN7livenet7overlay12SessionLayer16handle_view_stopEiRKNS0_8ViewStopE,
     (overlay::SessionLayer* self, NodeId c, const overlay::ViewStop& m),
     (self, c, m))
WRAP(kSession, void, _ZN7livenet7overlay12SessionLayer21handle_quality_reportEiRKNS0_19ClientQualityReportE,
     (overlay::SessionLayer* self, NodeId c, const overlay::ClientQualityReport& m),
     (self, c, m))
WRAP(kSession, void, _ZN7livenet7overlay12SessionLayer25handle_layer_mask_requestEiRKNS0_15LayerMaskUpdateE,
     (overlay::SessionLayer* self, NodeId c, const overlay::LayerMaskUpdate& m),
     (self, c, m))
WRAP(kDeliver, void, _ZN7livenet7overlay12SessionLayer17deliver_to_clientEiRKNS_3sim12IntrusivePtrIKNS_5media9RtpPacketEEE,
     (overlay::SessionLayer* self, NodeId c, const RtpPacketPtr& p),
     (self, c, p))

// ---- client
WRAP(kVideoSource, std::vector<media::Frame>, _ZN7livenet5media11VideoSource12next_pictureEl,
     (media::VideoSource* self, Time now), (self, now))

// ---- brain
WRAP_CUSTOM(brain::GlobalRouting::Result, _ZN7livenet5brain13GlobalRouting9recomputeERKNS0_15GlobalDiscoveryERKSt6vectorIiSaIiEES9_PNS0_3PibE,
            (brain::GlobalRouting* self, const brain::GlobalDiscovery& view,
             const std::vector<NodeId>& nodes,
             const std::vector<NodeId>& last_resort, brain::Pib* pib)) {
  Scope sc(kRecompute);
  brain::GlobalRouting::Result r =
      PERFBENCH_REAL(_ZN7livenet5brain13GlobalRouting9recomputeERKNS0_15GlobalDiscoveryERKSt6vectorIiSaIiEES9_PNS0_3PibE)(
          self, view, nodes, last_resort, pib);
  if (sc.active()) {
    add_extra("brain.graph_build_ms", r.graph_build_ms);
    add_extra("brain.solve_ms", r.solve_ms);
    add_extra("brain.install_ms", r.install_ms);
    add_extra("brain.pairs_solved", static_cast<double>(r.pairs_solved));
    g_samples["brain.recompute_ticks"].push_back(
        static_cast<double>(sc.elapsed()));
  }
  return r;
}
WRAP(kOnReport, void, _ZN7livenet5brain15GlobalDiscovery9on_reportERKNS_7overlay15NodeStateReportElPNS0_3PibE,
     (brain::GlobalDiscovery* self, const overlay::NodeStateReport& rep,
      Time now, brain::Pib* pib),
     (self, rep, now, pib))

namespace perfbench {

bool trace_linked() { return true; }

void trace_start() {
  g_wall_start = std::chrono::steady_clock::now();
  g_tick_start = __rdtsc();
  tl_recording = true;
}

void trace_stop() {
  tl_recording = false;
  g_ticks += static_cast<double>(__rdtsc() - g_tick_start);
  g_wall_ns += std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - g_wall_start)
                   .count();
}

void trace_write_json(std::ostream& os) {
  const double ms_per_tick = g_ticks > 0 ? g_wall_ns / g_ticks / 1e6 : 0.0;
  os << "{\"spans\": {";
  for (int id = 0; id < kSpanCount; ++id) {
    std::uint64_t calls = 0, ticks = 0, child = 0;
    for (int p = 0; p <= kSpanCount; ++p) {
      calls += g_cells[id][p].calls;
      ticks += g_cells[id][p].ticks;
      child += g_cells[id][p].child_ticks;
    }
    os << (id ? ", " : "") << '"' << kSpanNames[id] << "\": {\"calls\": "
       << calls << ", \"total_ms\": " << static_cast<double>(ticks) * ms_per_tick
       << ", \"self_ms\": "
       << static_cast<double>(ticks - child) * ms_per_tick << ", \"parents\": {";
    bool first = true;
    for (int p = 0; p <= kSpanCount; ++p) {
      if (g_cells[id][p].calls == 0) continue;
      os << (first ? "" : ", ") << '"' << (p == kRoot ? "root" : kSpanNames[p])
         << "\": " << g_cells[id][p].calls;
      first = false;
    }
    os << "}}";
  }
  os << "}, \"extras\": {";
  bool first = true;
  for (const auto& [name, v] : g_extras) {
    os << (first ? "" : ", ") << '"' << name << "\": " << v;
    first = false;
  }
  os << "}, \"samples\": {";
  first = true;
  for (const auto& [name, values] : g_samples) {
    // Tick samples are reported in milliseconds.
    std::string out = name;
    const bool ticks = out.size() > 6 && out.ends_with("_ticks");
    if (ticks) out = out.substr(0, out.size() - 6) + "_ms";
    os << (first ? "" : ", ") << '"' << out << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << (ticks ? values[i] * ms_per_tick : values[i]);
    }
    os << "]";
    first = false;
  }
  os << "}}";
}

}  // namespace perfbench
