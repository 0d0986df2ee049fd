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
// Queue: a timing wheel (Varghese & Lauck) of 1-us buckets spanning
// kWheelSpan = 2^17 us (~131 ms) ahead of now(), plus a binary heap
// ordered by (when, seq) for events further out. A bucket only ever
// holds one instant, because every wheel event lies in
// [now, now + kWheelSpan), so appending to its FIFO chain keeps it in
// schedule order. Each time the clock advances — to the next event, to
// the first overflow event when the wheel is empty, or to run_until's
// end — overflow events now inside the span move into the wheel, in
// heap order and before any callback at the new time runs. Pending
// events of one instant are therefore either all in the wheel or all in
// the heap, and (time, FIFO) order holds across both. A two-level
// bitmap finds the next non-empty bucket.
//
// The hot path is allocation-free: callbacks with captures up to 48 B
// live inline in a slab node (util::InlineFunction), bucket chains
// thread through the nodes by slot index, nodes are recycled through a
// free list, and the overflow heap holds POD entries only. A callback
// runs in place in its node. Cancellation is generation-stamped:
// cancel() destroys the callback immediately — releasing any
// shared_ptrs it captured — and bumps the slot's generation so the
// handle dies; the emptied node stays queued and its slot is recycled
// when it surfaces.
namespace livenet::sim {

/// Handle used to cancel a scheduled event: (generation << 32) | slot.
/// Generations start at 1, so no valid handle equals kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventLoop {
 public:
  using Callback = util::InlineFunction;

  /// Width of the timing wheel in microseconds: events due less than
  /// this far after now() go straight into a 1-us bucket.
  static constexpr Duration kWheelSpan = Duration{1} << 17;

  EventLoop();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules cb at absolute time `when` (clamped to >= now). Returns a
  /// handle usable with cancel(). cb must not be empty.
  EventId schedule_at(Time when, Callback cb);

  /// Schedules cb `delay` after now (delay clamped to >= 0).
  EventId schedule_after(Duration delay, Callback cb);

  /// Cancels a pending event; no-op if it already ran, is running, or
  /// was cancelled. The callback (and anything it captured) is destroyed
  /// before this returns, not when the event's timestamp comes up.
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
  static constexpr std::uint32_t kBuckets =
      static_cast<std::uint32_t>(kWheelSpan);
  static constexpr std::uint32_t kBucketMask = kBuckets - 1;
  static constexpr std::uint32_t kWords = kBuckets / 64;  // bitmap level 0
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  // Slab node: the callback, the slot's current generation and the
  // bucket-chain links. An empty callback marks a cancelled event still
  // queued. `tail` is read only on a chain's head node. Nodes live in
  // fixed 256-entry chunks so references stay valid while the slab
  // grows; freed slots are recycled LIFO via free_slots_.
  struct Node {
    Callback cb;
    std::uint32_t gen = 1;
    std::uint32_t next = kNil;
    std::uint32_t tail = kNil;
  };
  static constexpr std::size_t kChunkSize = 256;

  // Overflow-heap entry for events at least kWheelSpan after now.
  struct Entry {
    Time when;
    std::uint64_t seq;  // tie-breaker: FIFO within the same instant
    std::uint32_t slot;
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
  void append(std::uint32_t bucket, std::uint32_t slot);
  std::uint32_t pop_head(std::uint32_t bucket);
  std::uint32_t next_bucket() const;
  void advance(Time t);
  bool dispatch_next(Time limit);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t live_count_ = 0;
  std::size_t peak_live_ = 0;
  /// Nodes linked into the wheel, cancelled ones included.
  std::size_t wheel_count_ = 0;
  /// Head slot of each bucket's chain (512 KiB); meaningful only where
  /// the bucket's bit is set, so it is left uninitialised and only the
  /// pages of buckets in use are ever touched.
  std::unique_ptr<std::uint32_t[]> heads_;
  /// Bit b of words_[b / 64] is set iff bucket b is non-empty; bit w of
  /// summary_[w / 64] is set iff words_[w] != 0.
  std::vector<std::uint64_t> words_;
  std::uint64_t summary_[kWords / 64] = {};
  std::priority_queue<Entry, std::vector<Entry>, Later> overflow_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace livenet::sim
