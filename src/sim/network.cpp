#include "sim/network.h"

#include <algorithm>
#include <cassert>

#include "telemetry/trace.h"
#include "util/logging.h"

namespace livenet::sim {

NodeId Network::add_node(SimNode* node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  node->set_node_id(id);
  return id;
}

NodeId Network::add_remote_node() {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(nullptr);
  return id;
}

std::size_t Network::index_pos(NodeId src, NodeId dst) const {
  const auto& row = rows_[static_cast<std::size_t>(src)];
  const auto& idx = row_index_[static_cast<std::size_t>(src)];
  return static_cast<std::size_t>(
      std::lower_bound(idx.begin(), idx.end(), dst,
                       [&row](std::uint32_t pos, NodeId d) {
                         return row[pos].dst < d;
                       }) -
      idx.begin());
}

const Network::Edge* Network::find_edge(NodeId src, NodeId dst) const {
  if (src < 0 || static_cast<std::size_t>(src) >= rows_.size()) return nullptr;
  const auto& row = rows_[static_cast<std::size_t>(src)];
  const auto& idx = row_index_[static_cast<std::size_t>(src)];
  const std::size_t p = index_pos(src, dst);
  if (p == idx.size() || row[idx[p]].dst != dst) return nullptr;
  return &row[idx[p]];
}

Link* Network::lookup(NodeId src, NodeId dst) const {
  const Edge* e = find_edge(src, dst);
  return e != nullptr ? e->link.get() : nullptr;
}

Link* Network::add_link(NodeId src, NodeId dst, const LinkConfig& cfg) {
  // Fork the per-link rng before anything else so the stream a link
  // receives depends only on the add_link call order.
  return add_link_impl(src, dst, cfg, rng_.fork());
}

Link* Network::add_link(NodeId src, NodeId dst, const LinkConfig& cfg,
                        std::uint64_t rng_seed) {
  return add_link_impl(src, dst, cfg, Rng(rng_seed));
}

Link* Network::add_link_impl(NodeId src, NodeId dst, const LinkConfig& cfg,
                             Rng rng) {
  if (src < 0 || dst < 0) {
    // Reject loudly: a negative id would previously index rows_ with a
    // huge size_t (UB) or create a link the frozen matrix can never
    // see, silently shadowed behind the sorted-row fallback.
    LIVENET_LOG(kError) << "add_link: invalid node pair " << src << "->"
                        << dst;
    return nullptr;
  }
  auto link_ptr = std::make_unique<Link>(loop_, src, dst, cfg, rng);
  Link* raw = link_ptr.get();
  if (static_cast<std::size_t>(src) >= rows_.size()) {
    rows_.resize(static_cast<std::size_t>(src) + 1);
    row_index_.resize(static_cast<std::size_t>(src) + 1);
  }
  auto& row = rows_[static_cast<std::size_t>(src)];
  auto& idx = row_index_[static_cast<std::size_t>(src)];
  const std::size_t p = index_pos(src, dst);
  if (p < idx.size() && row[idx[p]].dst == dst) {
    // Replace in place; in-flight deliveries are already scheduled
    // events and are unaffected by a link swap.
    row[idx[p]].link = std::move(link_ptr);
  } else {
    idx.insert(idx.begin() + static_cast<std::ptrdiff_t>(p),
               static_cast<std::uint32_t>(row.size()));
    row.push_back(Edge{dst, std::move(link_ptr)});
  }
  if (src < frozen_n_ && dst < frozen_n_) {
    matrix_[static_cast<std::size_t>(src) * static_cast<std::size_t>(frozen_n_) +
            static_cast<std::size_t>(dst)] = raw;
  }
  return raw;
}

void Network::add_bidi_link(NodeId a, NodeId b, const LinkConfig& cfg) {
  add_link(a, b, cfg);
  add_link(b, a, cfg);
}

void Network::freeze_topology() {
  frozen_n_ = static_cast<NodeId>(nodes_.size());
  const auto n = static_cast<std::size_t>(frozen_n_);
  matrix_.assign(n * n, nullptr);
  for (std::size_t src = 0; src < rows_.size() && src < n; ++src) {
    for (const auto& e : rows_[src]) {
      if (e.dst >= 0 && static_cast<std::size_t>(e.dst) < n) {
        matrix_[src * n + static_cast<std::size_t>(e.dst)] = e.link.get();
      }
    }
  }
}

SendResult Network::send_ex(NodeId src, NodeId dst, MessagePtr msg) {
  Link* l = link(src, dst);
  if (l == nullptr) {
    // Routing miss: reason-coded drop, never an abort. A bad partition
    // map (or any post-freeze misroute) shows up as kNoRoute drops that
    // tests can count; Release runs keep going.
    ++route_misses_;
    LIVENET_LOG(kError) << "send: no link " << src << "->" << dst << " for "
                        << msg->describe();
    return SendResult{false, kNever, SendDrop::kNoRoute};
  }
  const SendResult res = l->send(msg->wire_size());
  // Sampled per-hop tracing: record the link transit (or its loss) for
  // traced packets. The tag extraction is a virtual call, so it is
  // gated on the tracer having handed out any ids at all this run.
  if (telemetry::Tracer::active()) {
    const Message::TraceTag tag = msg->trace_tag();
    if (tag.trace_id != 0) {
      if (res.delivered) {
        // Both ends of the wire, stamped with their own virtual times
        // (the dequeue record is written now but dated at arrival; the
        // exporter orders by time, not by append order).
        telemetry::record_hop(tag.trace_id, loop_->now(), tag.stream, tag.seq,
                              src, dst, telemetry::HopEvent::kLinkEnqueue);
        telemetry::record_hop(tag.trace_id, res.arrival_time, tag.stream,
                              tag.seq, dst, src,
                              telemetry::HopEvent::kLinkDequeue);
      } else {
        telemetry::DropReason reason = telemetry::DropReason::kWireLoss;
        if (res.drop == SendDrop::kDown) {
          reason = telemetry::DropReason::kLinkDown;
        } else if (res.drop == SendDrop::kQueue) {
          reason = telemetry::DropReason::kQueueOverflow;
        }
        telemetry::record_hop(tag.trace_id, loop_->now(), tag.stream, tag.seq,
                              src, dst, telemetry::HopEvent::kDrop, reason);
      }
    }
  }
  if (!res.delivered) return res;
  const Time arrival = std::max(res.arrival_time, loop_->now());
  if (region_of_ != nullptr && region_of_[src] != region_of_[dst]) {
    // Region boundary: hand the delivered packet to the sharded runtime
    // instead of delivering it locally. Taken for *every* cross-region
    // send, in single-shard runs too — the delivery path must not depend
    // on the shard count or the goldens would.
    xregion_(src, dst, arrival, std::move(msg));
    return res;
  }
  // One event per packet, sequenced now: same-instant arrivals are
  // delivered in send order.
  loop_->schedule_at(arrival, [this, src, dst, m = std::move(msg)] {
    deliver(src, dst, m);
  });
  return res;
}

void Network::deliver_remote(NodeId src, NodeId dst, Time arrival,
                             MessagePtr msg) {
  loop_->schedule_at(arrival, [this, src, dst, m = std::move(msg)] {
    deliver(src, dst, m);
  });
}

void Network::deliver(NodeId src, NodeId dst, const MessagePtr& msg) {
  SimNode* receiver = node(dst);
  if (receiver == nullptr) {
    // A link to an unregistered (or remote) node: drop the traffic
    // loudly rather than crash on the upcall.
    LIVENET_LOG(kError) << "deliver: no node " << dst << " for link " << src
                        << "->" << dst;
    return;
  }
  ++delivered_;
  receiver->on_message(src, msg);
}

Link* Network::link(NodeId src, NodeId dst) {
  return const_cast<Link*>(
      static_cast<const Network*>(this)->link(src, dst));
}

const Link* Network::link(NodeId src, NodeId dst) const {
  // Hot path: frozen core pairs resolve with one indexed load.
  if (static_cast<std::uint32_t>(src) < static_cast<std::uint32_t>(frozen_n_) &&
      static_cast<std::uint32_t>(dst) < static_cast<std::uint32_t>(frozen_n_)) {
    Link* l = matrix_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(frozen_n_) +
                      static_cast<std::size_t>(dst)];
    // The dense matrix must never shadow the authoritative rows: every
    // add_link on a frozen pair updates both.
    assert(l == lookup(src, dst) &&
           "frozen matrix out of sync with sorted-row index");
    return l;
  }
  return lookup(src, dst);
}

std::vector<NodeId> Network::neighbors(NodeId src) const {
  std::vector<NodeId> out;
  if (src < 0 || static_cast<std::size_t>(src) >= rows_.size()) return out;
  const auto& row = rows_[static_cast<std::size_t>(src)];
  out.reserve(row.size());
  for (const auto& e : row) out.push_back(e.dst);
  return out;
}

}  // namespace livenet::sim
