#pragma once

#include <memory>
#include <vector>

#include "brain/brain.h"
#include "brain/path_decision.h"
#include "brain/pib.h"
#include "overlay/messages.h"
#include "sim/network.h"
#include "sim/sim_node.h"

// Replicated Path Decision (paper §7.1, "Streaming Brain Scalability"):
// "Because the Path Decision module may impact stream startup delays,
// we replicate it in more locations to shorten the distances to
// consumer nodes... replicas of the Path Decision module are updated by
// the Global Routing module."
//
// A PathDecisionReplica holds copies of the PIB and SIB, refreshed by
// the primary BrainNode after every Global Routing cycle and on every
// stream (de)registration and overload transition. Consumer nodes send
// their path lookups to the nearest replica; everything else (reports,
// alarms, registrations) still flows to the primary.
namespace livenet::brain {

/// Primary -> replica: full PIB snapshot after a routing recompute.
class ReplicaPibUpdate final : public sim::Message {
 public:
  struct Entry {
    sim::NodeId src = sim::kNoNode;
    sim::NodeId dst = sim::kNoNode;
    std::vector<overlay::Path> paths;
    overlay::Path last_resort;
  };
  std::vector<Entry> entries;
  std::uint64_t version = 0;

  std::size_t wire_size() const override {
    std::size_t n = 16;
    for (const auto& e : entries) {
      n += 16 + 4 * e.last_resort.size();
      for (const auto& p : e.paths) n += 4 + 4 * p.size();
    }
    return n;
  }
  std::string describe() const override;
};

/// Primary -> replica: incremental SIB change.
class ReplicaSibUpdate final : public sim::Message {
 public:
  media::StreamId stream_id = media::kNoStream;
  sim::NodeId producer = sim::kNoNode;
  bool active = true;

  std::size_t wire_size() const override { return 24; }
  std::string describe() const override;
};

/// Primary -> replica: the real-time overload marks and clears the
/// primary applied to its own PIB.
class ReplicaOverloadUpdate final : public sim::Message {
 public:
  OverloadMarks marks;

  std::size_t wire_size() const override {
    return 16 + 4 * (marks.mark_links.size() + marks.clear_links.size());
  }
  std::string describe() const override;
};

class PathDecisionReplica final : public sim::SimNode {
 public:
  explicit PathDecisionReplica(sim::Network* net)
      : PathDecisionReplica(net, BrainConfig()) {}
  PathDecisionReplica(sim::Network* net, const BrainConfig& cfg)
      : net_(net), cfg_(cfg), path_decision_(&pib_, &sib_) {}

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  const Pib& pib() const { return pib_; }
  const Sib& sib() const { return sib_; }
  const BrainMetrics& metrics() const { return metrics_; }
  std::uint64_t pib_version() const { return pib_version_; }

 private:
  void handle_path_request(sim::NodeId from, const overlay::PathRequest& req);

  sim::Network* net_;
  BrainConfig cfg_;
  Pib pib_;
  Sib sib_;
  PathDecision path_decision_;
  BrainMetrics metrics_;
  Time busy_until_ = 0;
  std::uint64_t pib_version_ = 0;
};

}  // namespace livenet::brain
