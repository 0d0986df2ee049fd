#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "util/time.h"

// Deterministic fault injection against a live simulated network.
//
// The injector schedules faults on the event loop — scripted ones from
// a FaultPlan plus pseudo-random ones drawn from the plan's seed — and
// applies them through the Link fault hooks (set_down / loss override /
// extra delay). Node-level faults (overlay-node crash, controller
// outage) additionally invoke caller-registered handlers so the layer
// that owns the node objects can wipe and restore their software state;
// the injector itself stays below that layer and only touches links.
//
// Every fault is recorded with its injection time, repair time, and the
// measured recovery time: the delay from repair until the first packet
// is delivered again on any of the fault's links (polled at a fixed
// cadence, so the measurement itself is deterministic). The whole
// schedule is a pure function of (plan, candidates, loop state): the
// same seed replays the same chaos, bit for bit.
namespace livenet::sim {

enum class FaultKind {
  kLinkFlap,       ///< link(s) down for `duration`, then back up
  kLinkDegrade,    ///< loss-rate override + extra delay for `duration`
  kNodeCrash,      ///< all links of node `a` down + crash/restart handlers
  kControlOutage,  ///< controller isolation: same mechanics, labeled apart
};

std::string to_string(FaultKind k);

struct FaultSpec {
  FaultKind kind = FaultKind::kLinkFlap;
  Time at = 0;                ///< injection time (clamped to >= now)
  Duration duration = 1 * kSec;  ///< outage length; 0 = never repaired
  NodeId a = kNoNode;         ///< link src, or the crashed node
  NodeId b = kNoNode;         ///< link dst (link faults only)
  bool bidirectional = true;  ///< link faults hit both directions
  double loss = 0.3;          ///< degrade: loss-rate override
  Duration extra_delay = 0;   ///< degrade: added one-way delay
};

struct FaultRecord {
  FaultSpec spec;
  Time injected_at = kNever;
  Time repaired_at = kNever;
  Time recovered_at = kNever;  ///< first packet delivered after repair

  bool repaired() const { return repaired_at != kNever; }
  bool recovered() const { return recovered_at != kNever; }
  /// Repair -> first-packet delay; kNever until both ends are observed.
  Duration recovery_time() const {
    return repaired() && recovered() ? recovered_at - repaired_at : kNever;
  }
};

/// Declarative chaos configuration: a scripted fault list plus per-kind
/// Poisson processes expanded deterministically from `seed`.
struct FaultPlan {
  std::vector<FaultSpec> scripted;
  std::uint64_t seed = 1;

  double link_flaps_per_min = 0.0;
  Duration flap_outage_mean = 2 * kSec;

  double degrades_per_min = 0.0;
  double degrade_loss = 0.25;
  Duration degrade_extra_delay = 30 * kMs;
  Duration degrade_outage_mean = 5 * kSec;

  double node_crashes_per_min = 0.0;
  Duration crash_downtime_mean = 5 * kSec;

  double control_outages_per_min = 0.0;
  Duration control_outage_mean = 10 * kSec;

  bool enabled() const {
    return !scripted.empty() || link_flaps_per_min > 0.0 ||
           degrades_per_min > 0.0 || node_crashes_per_min > 0.0 ||
           control_outages_per_min > 0.0;
  }
};

class FaultInjector {
 public:
  /// Node-fault upcall (crash at injection, restart at repair).
  using NodeHandler = std::function<void(NodeId)>;

  explicit FaultInjector(Network* net) : net_(net) {}
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void set_node_handlers(NodeHandler on_crash, NodeHandler on_restart) {
    on_crash_ = std::move(on_crash);
    on_restart_ = std::move(on_restart);
  }

  /// Schedules one fault (injection at spec.at, repair after duration).
  void inject(const FaultSpec& spec);

  /// Expands a plan: scripted faults verbatim, plus random faults drawn
  /// over [now, horizon). `links` are the (src, dst) pairs eligible for
  /// flaps/degradation, `crashable` the nodes eligible for crashes,
  /// `control` the controller for control outages (kNoNode disables
  /// them). Same plan + same candidates => same schedule.
  void load_plan(const FaultPlan& plan, Time horizon,
                 const std::vector<std::pair<NodeId, NodeId>>& links,
                 const std::vector<NodeId>& crashable,
                 NodeId control = kNoNode);

  const std::vector<FaultRecord>& records() const { return records_; }
  /// Faults currently applied (injected, not yet repaired).
  std::size_t faults_active() const { return active_; }

 private:
  static constexpr Duration kRecoveryPoll = 10 * kMs;  ///< first-packet poll
  static constexpr Duration kRecoveryTimeout = 30 * kSec;  ///< stop watching
  static constexpr Duration kMinOutage = 250 * kMs;  ///< random-duration floor

  static std::uint64_t link_key(const Link* l) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(l->src()))
            << 32) |
           static_cast<std::uint32_t>(l->dst());
  }

  void schedule(Time when, std::function<void()> fn);
  void apply(std::size_t idx);
  void repair(std::size_t idx);
  void watch_recovery(std::size_t idx);
  void poll_recovery(std::size_t idx,
                     std::vector<std::pair<Link*, std::uint64_t>> watch,
                     Time deadline);
  /// Links a fault manipulates: the configured pair (and reverse) for
  /// link faults, every link touching the node for node faults.
  std::vector<Link*> fault_links(const FaultSpec& spec) const;

  Network* net_;
  NodeHandler on_crash_;
  NodeHandler on_restart_;
  std::vector<FaultRecord> records_;
  std::size_t active_ = 0;
  // Overlap guards: a link stays down / degraded until the last fault
  // holding it is repaired.
  std::unordered_map<std::uint64_t, int> down_count_;
  std::unordered_map<std::uint64_t, int> degrade_count_;
  std::unordered_set<EventId> pending_;  ///< cancelled on destruction
};

}  // namespace livenet::sim
