#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "media/fec.h"
#include "media/rtp.h"
#include "overlay/node_env.h"
#include "overlay/peer_senders.h"
#include "overlay/stream_context.h"
#include "transport/gcc.h"

// The fast path of a LiveNet node (paper §3): RTP in -> per-subscriber
// clone -> pacer, after a fixed fast-path processing delay. No
// reliability work, no reordering, no caching — those are the
// RecoveryEngine's slow path, fed with a separate copy.
//
// The FIB probe happens *before* this engine runs: the façade resolves
// the packet's StreamContext once per packet and passes it in, so the
// whole per-packet path costs a single hash lookup.
//
// Each forwarded packet gets its own deferred event. fast_forward
// snapshots the packet's targets (subscriber sets may change before
// the event runs) into a slot from a reusable pool, and the callback
// captures only {engine, slot}, small enough for the event loop's
// inline storage. Slots and their vectors are recycled, so a warm
// engine allocates nothing per packet.
namespace livenet::overlay {

struct OverlayNodeConfig;
class SessionLayer;

/// Fast-path per-packet processing delay. The session layer charges the
/// same delay on client delivery.
inline constexpr Duration kFastProcDelay = 2 * kMs;

class ForwardingEngine {
 public:
  ForwardingEngine(const OverlayNodeConfig* cfg, const NodeEnv* env,
                   PeerSenders* senders)
      : cfg_(cfg), env_(env), senders_(senders) {}

  /// Client fan-out target (wired after construction: the session layer
  /// is built later in the façade's member order).
  void set_session(SessionLayer* session) { session_ = session; }

  /// Forwards to the context's subscribers. `ctx` may be null or not
  /// yet forwarding-active (released or still-establishing stream) —
  /// both mean drop, exactly like the old missing-FIB-entry check.
  void fast_forward(sim::NodeId from, const media::RtpPacketPtr& pkt,
                    const StreamContext* ctx);

  /// Node-wide egress accounting (fast path, client delivery, bursts).
  transport::RateMeter& egress_meter() { return egress_meter_; }
  const transport::RateMeter& egress_meter() const { return egress_meter_; }

  std::uint64_t fast_forwards() const { return fast_forwards_; }
  std::uint64_t fec_parity_sent() const { return fec_parity_sent_; }

  /// Stream teardown: drop the stream's per-(stream, link) FEC group
  /// and masked-link seq state.
  void forget_stream(media::StreamId stream);
  /// Crash: all per-(stream, link) state dies with the process.
  void reset() {
    fec_links_.clear();
    link_seq_.clear();
  }

  /// Per-(stream, link) FEC and masked-link seq entries held for
  /// `stream` (teardown tests).
  std::size_t link_states(media::StreamId stream) const;

 private:
  /// Marks a filtered node entry in a masked snapshot's prevs: the
  /// packet is NOT forked for that link (only the FEC group advances).
  static constexpr media::Seq kSkipEntry = static_cast<media::Seq>(-1);

  /// One packet's deferred fan-out. Subscriber sets are copied out at
  /// fast_forward time (they may mutate before the deferred callback
  /// runs); `from` rides along for the echo-suppression check.
  struct Fanout {
    media::RtpPacketPtr pkt;
    sim::NodeId from = sim::kNoNode;
    std::vector<sim::NodeId> nodes;
    std::vector<ClientId> clients;
    /// Only when the stream had a layer filter at snapshot time, aligned
    /// with `nodes`: prev_link_seq to stamp on the fork (0 = dense) or
    /// kSkipEntry for a filtered target. Empty for the unmasked world.
    std::vector<media::Seq> prevs;
  };

  /// Per-(stream, node) producer-seq history of a masked link, kept so
  /// the sender can stamp prev_link_seq void ranges. `clean` means
  /// every seq in (last_fwd, last_seen] was seen here and filtered on
  /// purpose — an upstream hole in the gap clears it, and the next
  /// forward then ships prev = 0 so the receiver NACKs normally.
  struct LinkSeqState {
    media::Seq last_fwd = 0;
    media::Seq last_seen = 0;
    bool clean = true;
  };

  /// Parity bandwidth clamp: parity output on a link may not exceed
  /// this fraction of the link's current pacing rate.
  static constexpr double kFecBudgetFraction = 0.05;

  std::uint32_t acquire_slot();
  void flush(std::uint32_t slot);
  void feed_fec(const media::RtpPacketPtr& pkt, sim::NodeId n, Time now);
  void feed_fec_skip(const media::RtpPacketPtr& pkt, sim::NodeId n);

  /// Per-(stream, link) FEC sender state: the open parity group, the
  /// probe-rate error accumulator (rate < 1 emits every 1/rate groups),
  /// and the parity byte meter the budget clamp reads.
  struct FecLinkState {
    media::FecGroupEncoder enc;
    double err_accum = 0.0;
    transport::RateMeter parity_meter{1 * kSec};
  };

  const OverlayNodeConfig* cfg_;
  const NodeEnv* env_;
  PeerSenders* senders_;
  SessionLayer* session_ = nullptr;
  transport::RateMeter egress_meter_{1 * kSec};
  std::uint64_t fast_forwards_ = 0;
  std::uint64_t fec_parity_sent_ = 0;
  std::map<std::pair<media::StreamId, sim::NodeId>, FecLinkState> fec_links_;
  /// Only populated for (stream, node) links with a layer mask — the
  /// unmasked world never probes it.
  std::map<std::pair<media::StreamId, sim::NodeId>, LinkSeqState> link_seq_;

  /// Snapshot slots of the pending fan-out events (deque: a slot stays
  /// address-stable while the pool grows; its vectors are reused).
  std::deque<Fanout> pool_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace livenet::overlay
