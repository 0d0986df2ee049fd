#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "overlay/link_receiver.h"
#include "overlay/link_sender.h"
#include "overlay/packet_cache.h"
#include "overlay/stream_context.h"
#include "sim/network.h"
#include "sim/sim_node.h"
#include "util/hash_seed.h"

// Slow-path loss recovery of one node (paper §3): the per-upstream
// receive buffers (ordering, hole detection, NACK emission, GCC
// receiver feedback) and the packet-granularity GoP cache fed by their
// ordered output, plus retransmit serving from that cache when a
// downstream NACK cannot be answered from send history. Shared by the
// LiveNet overlay node and the Hier baseline (Hier runs it with
// telemetry off — its cache hits are not LiveNet data-plane metrics).
namespace livenet::overlay {

class RecoveryEngine {
 public:
  struct Config {
    LinkReceiver::Config receiver;
    bool telemetry = true;  ///< record cache-hit counters + trace hops
    /// Multi-supplier RTX (AutoRec-style): route each NACK to the
    /// lowest-RTT established supplier of the stream instead of the
    /// pipeline's own upstream, with a staggered fallback to the next
    /// supplier if the holes survive a round trip. Off = the NACK goes
    /// straight to the upstream peer (bit-identical legacy behaviour).
    bool multi_supplier = false;
  };

  /// `streams` is the node's stream table: multi-supplier NACK routing
  /// reads each stream's established suppliers from its context (the
  /// control agent keeps them current).
  RecoveryEngine(sim::Network* net, const sim::SimNode* owner,
                 const Config& cfg, const StreamTable* streams)
      : net_(net), owner_(owner), cfg_(cfg), streams_(streams) {}

  ~RecoveryEngine() { cancel_staggers(); }

  /// Ordered-delivery upcall shared by every receiver the engine
  /// creates. Set once at wiring time, before any RTP arrives.
  void set_deliver(LinkReceiver::DeliverFn deliver) {
    deliver_ = std::move(deliver);
  }

  /// Slow-path ingress: a copy of every received packet enters the
  /// per-upstream receive pipeline. A retransmission served by an
  /// alternate supplier is redirected into the pipeline of the upstream
  /// whose holes it fills — otherwise it would open a phantom seq space
  /// on the alternate's (media-less) pipeline.
  void ingest(sim::NodeId from, const media::RtpPacketPtr& pkt) {
    if (pkt->is_rtx && !rtx_redirects_.empty()) {
      const auto it =
          rtx_redirects_.find({pkt->stream_id(), pkt->producer_seq()});
      if (it != rtx_redirects_.end()) {
        const sim::NodeId origin = it->second;
        rtx_redirects_.erase(it);
        note_alt_rtx_arrival(from, pkt);
        receiver_for(origin).on_rtp(pkt);
        return;
      }
    }
    receiver_for(from).on_rtp(pkt);
  }

  /// Multi-supplier NACK routing (installed as every receiver's
  /// NackRouteFn when cfg.multi_supplier): race the NACK to the
  /// lowest-RTT supplier, schedule a staggered re-check that escalates
  /// surviving holes to the next-best supplier.
  void route_nack(sim::NodeId primary, media::StreamId stream, bool audio,
                  const std::vector<media::Seq>& missing);

  LinkReceiver& receiver_for(sim::NodeId peer);
  const LinkReceiver* find_receiver(sim::NodeId peer) const {
    const auto it = receivers_.find(peer);
    return it != receivers_.end() ? it->second.get() : nullptr;
  }

  PacketGopCache& cache() { return packet_cache_; }
  const PacketGopCache& cache() const { return packet_cache_; }

  /// Serves NACKed seqs the sender's history could not answer from the
  /// slow path's cached copy (§3: covers packets this node recovered
  /// but never fast-forwarded). `mask` is the requester's SVC layer
  /// mask: filtered-layer seqs are never served (no stale-layer
  /// resurrection), and base-layer holes are served first. Seqs whose
  /// cached copy the mask excludes are answered with a NackVoid notice
  /// instead — the hole is intentional, and without the answer the
  /// requester's drain would block on it until the NACK give-up.
  void serve_nack_fallback(LinkSender& snd, sim::NodeId to,
                           media::StreamId stream,
                           const std::vector<media::Seq>& unserved,
                           media::LayerMask mask = media::kAllLayers);

  /// A NackVoid answer from a supplier: fold the vouched seqs into the
  /// owning pipeline's void set. Multi-supplier NACKs may have been
  /// raced to an alternate; the redirect table maps each seq back to
  /// the primary pipeline whose hole it names, exactly as RTX arrivals
  /// are redirected in ingest().
  void on_void_notice(sim::NodeId from, media::StreamId stream, bool audio,
                      const std::vector<media::Seq>& voided);

  /// Packets received for `stream` but still blocked behind a recovery
  /// hole at `peer` (startup-burst seam shrinking).
  std::vector<media::RtpPacketPtr> buffered_packets(
      sim::NodeId peer, media::StreamId stream) const {
    const LinkReceiver* rx = find_receiver(peer);
    return rx != nullptr ? rx->buffered_packets(stream)
                         : std::vector<media::RtpPacketPtr>{};
  }

  /// Stream teardown: drop the cached packets and, if an upstream is
  /// named, the receive-buffer state on that pipeline.
  void forget_stream(media::StreamId stream,
                     sim::NodeId upstream = sim::kNoNode) {
    if (upstream != sim::kNoNode) {
      const auto it = receivers_.find(upstream);
      if (it != receivers_.end()) it->second->forget_stream(stream);
    }
    packet_cache_.forget_stream(stream);
  }

  /// Receive-buffer teardown only (make-before-break grace expiry).
  void forget_upstream(sim::NodeId peer, media::StreamId stream) {
    const auto it = receivers_.find(peer);
    if (it != receivers_.end()) it->second->forget_stream(stream);
  }

  /// Crash: all in-memory recovery state dies with the process.
  void reset() {
    cancel_staggers();
    rtx_redirects_.clear();
    receivers_.clear();
    packet_cache_ = PacketGopCache();
  }

 private:
  /// Slack added to the best supplier's RTT before escalating to the
  /// next supplier.
  static constexpr Duration kStaggerExtra = 20 * kMs;
  /// Bound on outstanding (stream, seq) -> origin-pipeline redirects.
  static constexpr std::size_t kMaxRedirects = 1024;

  void cancel_staggers();
  void note_alt_rtx_arrival(sim::NodeId from,
                            const media::RtpPacketPtr& pkt) const;
  void send_nack_to(sim::NodeId target, sim::NodeId primary,
                    media::StreamId stream, bool audio,
                    const std::vector<media::Seq>& seqs);
  Duration rtt_to(sim::NodeId peer) const;

  sim::Network* net_;
  const sim::SimNode* owner_;
  Config cfg_;
  const StreamTable* streams_;
  LinkReceiver::DeliverFn deliver_;
  PacketGopCache packet_cache_;
  std::unordered_map<sim::NodeId, std::unique_ptr<LinkReceiver>,
                     SeededHash<sim::NodeId>>
      receivers_;
  /// (stream, producer seq) -> pipeline (upstream peer) whose hole an
  /// alternate supplier's RTX fills. FIFO-bounded at kMaxRedirects.
  std::map<std::pair<media::StreamId, media::Seq>, sim::NodeId>
      rtx_redirects_;
  std::unordered_set<sim::EventId> stagger_timers_;
};

}  // namespace livenet::overlay
