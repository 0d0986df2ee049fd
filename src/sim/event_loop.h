#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "util/inline_function.h"
#include "util/time.h"

// Discrete-event simulation core.
//
// The event loop owns virtual time. Components schedule callbacks at
// absolute times or after delays; run() dispatches them in (time, FIFO)
// order. Events scheduled for the same instant run in the order they
// were scheduled, which keeps whole-system runs deterministic.
//
// The hot path is allocation-free: callbacks with captures up to 48 B
// live inline in a slab node (util::InlineFunction), slab nodes are
// recycled through a free list, and the priority queue holds POD
// entries only. Cancellation is generation-stamped: cancel() destroys
// the callback immediately — releasing any shared_ptrs it captured —
// bumps the slot's generation so the handle dies, and leaves a zombie
// queue entry that is discarded when it surfaces.
namespace livenet::sim {

/// Handle used to cancel a scheduled event: (generation << 32) | slot.
/// Generations start at 1, so no valid handle equals kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventLoop {
 public:
  using Callback = util::InlineFunction;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules cb at absolute time `when` (clamped to >= now). Returns a
  /// handle usable with cancel().
  EventId schedule_at(Time when, Callback cb);

  /// Schedules cb `delay` after now (delay clamped to >= 0).
  EventId schedule_after(Duration delay, Callback cb);

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  /// The callback (and anything it captured) is destroyed before this
  /// returns, not when the event's timestamp comes up.
  void cancel(EventId id);

  /// Runs until the queue drains or until_time is passed (whichever is
  /// first). Events at exactly until_time still run, and now() advances
  /// to until_time even if the queue drains earlier.
  void run_until(Time until_time);

  /// Runs until the queue is empty.
  void run();

  /// Dispatches at most one event; returns false if the queue is empty.
  bool step();

  /// Number of events dispatched so far (for tests / sanity checks).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Pending (non-cancelled) events.
  std::size_t pending() const { return live_count_; }

  /// High-water mark of pending events over the loop's lifetime — the
  /// telemetry gauge for event-queue headroom (one compare per
  /// schedule; no allocation).
  std::size_t peak_pending() const { return peak_live_; }

 private:
  // Slab node: the callback plus the slot's current generation. Nodes
  // live in fixed 256-entry chunks so pointers stay stable while the
  // slab grows; freed slots are recycled LIFO via free_slots_.
  struct Node {
    Callback cb;
    std::uint32_t gen = 1;
  };
  static constexpr std::size_t kChunkSize = 256;

  // Priority-queue entry: POD, 24 B. The (slot, gen) pair revalidates
  // against the slab on pop; a stale gen marks a cancelled event.
  struct Entry {
    Time when;
    std::uint64_t seq;  // tie-breaker: FIFO within the same instant
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Node& node(std::uint32_t slot) {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  bool dispatch_next();
  void prune();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t live_count_ = 0;
  std::size_t peak_live_ = 0;
  /// Stale queue entries left behind by cancel(); prune() is a no-op
  /// while this is zero.
  std::size_t zombies_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace livenet::sim
