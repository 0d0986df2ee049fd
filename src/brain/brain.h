#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "brain/global_discovery.h"
#include "brain/global_routing.h"
#include "brain/path_decision.h"
#include "brain/pib.h"
#include "brain/stream_mgmt.h"
#include "overlay/messages.h"
#include "sim/network.h"
#include "sim/sim_node.h"
#include "util/time.h"

// The Streaming Brain (paper §4): the logically centralized controller,
// composed of Global Discovery, Global Routing, Path Decision and
// Stream Management. In production it is geo-replicated with Paxos;
// here it is one SimNode whose service model (a single queue with a
// per-request service time) reproduces the response-time behaviour of
// Figure 10(a): fast hash lookups plus load-dependent queueing.
namespace livenet::brain {

struct BrainConfig {
  Duration routing_interval = 10 * kMin;  ///< Global Routing cycle
  Duration request_service_time = 1500 * kUs;  ///< per path request
  std::size_t push_top_n = 3;  ///< popular streams to push proactively
  /// Also the source of Discovery's overload threshold, whose marks the
  /// replicas mirror, so the Brain has exactly one.
  GlobalRoutingConfig routing;
};

/// Brain-side measurement log (the paper's third data source: "logged
/// at the Path Decision module... each log corresponds to a path
/// request, and records the path request response time").
struct BrainMetrics {
  struct PathRequestLog {
    Time arrival = 0;
    Duration response_time = 0;
    bool last_resort = false;
    bool stream_known = true;
  };
  std::deque<PathRequestLog> path_requests;
  std::uint64_t reports_received = 0;
  std::uint64_t alarms_received = 0;
  std::uint64_t recomputes = 0;
  GlobalRouting::Result last_recompute;
};

class BrainNode final : public sim::SimNode {
 public:
  BrainNode(sim::Network* net) : BrainNode(net, BrainConfig()) {}
  BrainNode(sim::Network* net, const BrainConfig& cfg);
  ~BrainNode() override;

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Regular overlay nodes (graph vertices for Global Routing).
  void set_overlay_nodes(std::vector<sim::NodeId> nodes);

  /// Reserved last-resort relays (excluded from regular routing).
  void set_last_resort_nodes(std::vector<sim::NodeId> nodes);

  /// Path Decision replicas to keep in sync (§7.1). They receive a full
  /// PIB snapshot after every routing cycle plus incremental SIB and
  /// overload updates.
  void set_replicas(std::vector<sim::NodeId> replicas);

  /// Starts the periodic Global Routing cycle (runs one cycle
  /// immediately so early lookups find paths).
  void start();

  /// Forces a routing recompute now (used by tests and by operational
  /// "scale-up" events).
  void recompute_routes();

  /// Marks a stream as popular (advance campaign notification).
  void mark_popular(media::StreamId s) { stream_mgmt_.mark_popular(s); }

  const Pib& pib() const { return pib_; }
  const Sib& sib() const { return sib_; }
  const GlobalDiscovery& discovery() const { return discovery_; }
  const BrainMetrics& metrics() const { return metrics_; }
  PathDecision& path_decision() { return path_decision_; }

 private:
  void handle_path_request(sim::NodeId from, const overlay::PathRequest& req);
  void push_popular_paths();
  void sync_replicas_pib();
  /// Sends the PIB overload marks and clears the primary just applied
  /// to every replica, so replica lookups filter the same elements.
  void mirror_overload(OverloadMarks marks);

  sim::Network* net_;
  BrainConfig cfg_;
  std::vector<sim::NodeId> overlay_nodes_;
  std::vector<sim::NodeId> last_resort_nodes_;
  std::vector<sim::NodeId> replicas_;
  std::uint64_t pib_version_ = 0;

  Pib pib_;
  Sib sib_;
  GlobalDiscovery discovery_;
  GlobalRouting routing_;
  PathDecision path_decision_;
  StreamMgmt stream_mgmt_;
  BrainMetrics metrics_;

  Time busy_until_ = 0;  ///< single-server queue model for Path Decision
  sim::EventId routing_timer_ = sim::kInvalidEvent;
};

}  // namespace livenet::brain
