#pragma once

#include "sim/message.h"

// Interface implemented by anything attached to the simulated network:
// overlay CDN nodes, the Streaming Brain, broadcasters and viewers.
namespace livenet::sim {

class SimNode {
 public:
  virtual ~SimNode() = default;

  /// Delivery upcall: `msg` arrived from `from` over the connecting link.
  virtual void on_message(NodeId from, const MessagePtr& msg) = 0;

  NodeId node_id() const { return id_; }

  /// Set once by Network::add_node; nodes must not change it.
  void set_node_id(NodeId id) { id_ = id; }

 private:
  NodeId id_ = kNoNode;
};

}  // namespace livenet::sim
