#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "media/frame.h"
#include "overlay/path.h"

// Path Information Base (paper §4.4): for each (producer, consumer)
// node pair, the candidate overlay paths computed by Global Routing,
// ordered by preference. The PIB also tracks which nodes/links are
// currently overloaded (set by Global Discovery on real-time alarms) so
// that lookups can filter invalid paths — Algorithm 1's IsInvalid().
namespace livenet::brain {

class Pib {
 public:
  /// Replaces the candidate set for a pair (Global Routing output).
  void set_paths(sim::NodeId src, sim::NodeId dst,
                 std::vector<overlay::Path> paths);

  /// Replaces the last-resort fallback for a pair.
  void set_last_resort(sim::NodeId src, sim::NodeId dst,
                       overlay::Path path);

  /// Raw candidate list (may contain currently-invalid paths).
  const std::vector<overlay::Path>* find(sim::NodeId src,
                                         sim::NodeId dst) const;

  /// Candidates surviving the overload filter, in preference order.
  std::vector<overlay::Path> valid_paths(sim::NodeId src,
                                         sim::NodeId dst) const;

  /// Last-resort path for the pair (empty if none installed).
  overlay::Path last_resort(sim::NodeId src, sim::NodeId dst) const;

  /// Pointer form of last_resort() (nullptr if none installed), for
  /// callers that only inspect the fallback and need no copy.
  const overlay::Path* find_last_resort(sim::NodeId src,
                                        sim::NodeId dst) const;

  /// Swaps the *routes* (candidate sets + fallbacks) with `other`,
  /// leaving the real-time overload marks of both sides untouched.
  /// Global Routing double-buffers installs through this: it fills a
  /// scratch Pib off to the side and swaps it in atomically, so readers
  /// never observe a half-installed cycle and the live hot-node/link
  /// marks survive the swap.
  void swap_routes(Pib* other);

  // Real-time overload marks (Global Discovery).
  void mark_node_overloaded(sim::NodeId n) { hot_nodes_.insert(n); }
  void clear_node_overloaded(sim::NodeId n) { hot_nodes_.erase(n); }
  void mark_link_overloaded(sim::NodeId a, sim::NodeId b) {
    hot_links_.insert(link_key(a, b));
  }
  void clear_link_overloaded(sim::NodeId a, sim::NodeId b) {
    hot_links_.erase(link_key(a, b));
  }
  bool node_overloaded(sim::NodeId n) const {
    return hot_nodes_.count(n) != 0;
  }

  /// Algorithm 1's IsInvalid(): true if the path crosses an overloaded
  /// node or link. Endpoints are exempt from the node check — the
  /// producer/consumer are fixed by the stream and the viewer.
  bool is_invalid(const overlay::Path& p) const;

  std::size_t pair_count() const { return paths_.size(); }

  /// All (src, dst) pairs with installed candidate sets (replication).
  std::vector<std::pair<sim::NodeId, sim::NodeId>> pairs() const;
  std::size_t overloaded_nodes() const { return hot_nodes_.size(); }
  void clear() {
    paths_.clear();
    fallbacks_.clear();
  }

 private:
  static std::uint64_t pair_key(sim::NodeId a, sim::NodeId b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }
  static std::uint64_t link_key(sim::NodeId a, sim::NodeId b) {
    return pair_key(a, b);
  }

  std::unordered_map<std::uint64_t, std::vector<overlay::Path>> paths_;
  std::unordered_map<std::uint64_t, overlay::Path> fallbacks_;
  std::unordered_set<sim::NodeId> hot_nodes_;
  std::unordered_set<std::uint64_t> hot_links_;
};

/// Stream Information Base: stream -> producer node (hash table keyed
/// by stream ID, updated on stream start/finish).
class Sib {
 public:
  void set_producer(media::StreamId s, sim::NodeId producer) {
    map_[s] = producer;
  }
  void erase(media::StreamId s) { map_.erase(s); }
  sim::NodeId producer_of(media::StreamId s) const {
    const auto it = map_.find(s);
    return it != map_.end() ? it->second : sim::kNoNode;
  }
  std::size_t stream_count() const { return map_.size(); }

 private:
  std::unordered_map<media::StreamId, sim::NodeId> map_;
};

}  // namespace livenet::brain
