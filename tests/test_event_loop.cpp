#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/message.h"
#include "util/rng.h"

namespace livenet::sim {
namespace {

TEST(EventLoop, DispatchesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, FifoWithinSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time fired_at = kNever;
  loop.schedule_at(50, [&] {
    loop.schedule_after(25, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 75);
}

TEST(EventLoop, CancelPreventsDispatch) {
  EventLoop loop;
  bool fired = false;
  const EventId id = loop.schedule_at(10, [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.dispatched(), 0u);
}

TEST(EventLoop, CancelIsIdempotentAndSafeAfterRun) {
  EventLoop loop;
  int count = 0;
  const EventId id = loop.schedule_at(5, [&] { ++count; });
  loop.run();
  EXPECT_EQ(count, 1);
  loop.cancel(id);  // already ran: must be a no-op
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunUntilStopsAtBoundaryInclusive) {
  EventLoop loop;
  std::vector<Time> fired;
  loop.schedule_at(10, [&] { fired.push_back(10); });
  loop.schedule_at(20, [&] { fired.push_back(20); });
  loop.schedule_at(21, [&] { fired.push_back(21); });
  loop.run_until(20);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(loop.now(), 20);
  loop.run();
  EXPECT_EQ(fired.back(), 21);
}

TEST(EventLoop, RunUntilAdvancesTimeWithEmptyQueue) {
  EventLoop loop;
  loop.run_until(1000);
  EXPECT_EQ(loop.now(), 1000);
}

TEST(EventLoop, CancelledHeadDoesNotLeakPastRunUntil) {
  EventLoop loop;
  bool late_fired = false;
  const EventId id = loop.schedule_at(10, [] {});
  loop.schedule_at(50, [&] { late_fired = true; });
  loop.cancel(id);
  loop.run_until(20);
  EXPECT_FALSE(late_fired);  // the event at 50 must not run early
  EXPECT_EQ(loop.now(), 20);
}

TEST(EventLoop, PastDeadlineClampsToNow) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  Time fired_at = kNever;
  loop.schedule_at(10, [&] { fired_at = loop.now(); });  // in the past
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

// Slab-allocator torture: a fixed-seed storm of schedule / cancel /
// reschedule churns slots through the free list, recycling generations,
// while a naive reference model (a multimap ordered by (time, seq))
// tracks which events must fire and in what order. Divergence means a
// stale-generation handle resurrected a recycled slot or the queue
// dropped a live event.
TEST(EventLoopStress, RandomCancelRescheduleMatchesReferenceModel) {
  EventLoop loop;
  Rng rng(9001);
  std::vector<int> fired;          // ids in dispatch order (actual)
  std::vector<int> expected;       // ids in dispatch order (model)
  struct Pending {
    EventId handle;
    Time when;
    std::uint64_t order;  // model FIFO tie-breaker
  };
  std::map<int, Pending> live;     // id -> pending event
  std::uint64_t order_counter = 0;
  int next_id = 0;

  // Interleave 2000 operations with partial dispatching so slots are
  // released both by cancellation and by normal dispatch, forcing heavy
  // free-list reuse across generations.
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 50; ++op) {
      const auto roll = rng.index(10);
      if (roll < 6 || live.empty()) {
        const int id = next_id++;
        const Time when = loop.now() + static_cast<Time>(rng.index(500));
        const auto handle =
            loop.schedule_at(when, [&fired, id] { fired.push_back(id); });
        live[id] = Pending{handle, std::max(when, loop.now()), order_counter++};
      } else if (roll < 8) {
        // Cancel a pseudo-random live event.
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.index(live.size())));
        loop.cancel(it->second.handle);
        live.erase(it);
      } else {
        // Reschedule: cancel + schedule again at a new time.
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.index(live.size())));
        loop.cancel(it->second.handle);
        const int id = it->first;
        const Time when = loop.now() + static_cast<Time>(rng.index(500));
        it->second.handle =
            loop.schedule_at(when, [&fired, id] { fired.push_back(id); });
        it->second.when = std::max(when, loop.now());
        it->second.order = order_counter++;
      }
    }
    // Dispatch everything due in the next 100 us of virtual time.
    const Time horizon = loop.now() + 100;
    loop.run_until(horizon);
    // Drain the model the same way: (when, order) ascending.
    std::vector<std::pair<int, Pending>> due;
    for (const auto& [id, p] : live) {
      if (p.when <= horizon) due.emplace_back(id, p);
    }
    std::sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
      return a.second.when != b.second.when ? a.second.when < b.second.when
                                            : a.second.order < b.second.order;
    });
    for (const auto& [id, p] : due) {
      expected.push_back(id);
      live.erase(id);
    }
    ASSERT_EQ(fired, expected) << "diverged in round " << round;
    EXPECT_EQ(loop.pending(), live.size());
  }
  loop.run();
  std::vector<std::pair<int, Pending>> rest;
  for (const auto& [id, p] : live) rest.emplace_back(id, p);
  std::sort(rest.begin(), rest.end(), [](const auto& a, const auto& b) {
    return a.second.when != b.second.when ? a.second.when < b.second.when
                                          : a.second.order < b.second.order;
  });
  for (const auto& [id, p] : rest) expected.push_back(id);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.dispatched(), fired.size());
}

// Cancelling inside a callback — including self-cancellation and
// cancelling an event at the same instant — must be safe and exact.
TEST(EventLoopStress, CancelDuringDispatchOfSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  EventId b = kInvalidEvent;
  loop.schedule_at(10, [&] {
    order.push_back(0);
    loop.cancel(b);  // b is due at the same instant, later in FIFO
  });
  b = loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(10, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventLoop, EventsScheduledDuringDispatchRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) loop.schedule_after(1, recurse);
  };
  loop.schedule_at(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.now(), 9);
}

// ---- Timing wheel + overflow heap.

constexpr Duration kSpan = EventLoop::kWheelSpan;

// An event parked in the overflow heap must reach its bucket before
// anything else is scheduled at its instant, even when run_until jumps
// the clock further than the wheel spans.
TEST(EventLoopWheel, OverflowMigratesBeforeSameInstantSchedule) {
  EventLoop loop;
  std::vector<int> order;
  const Time far = 3 * kSpan + 5;
  loop.schedule_at(far, [&] { order.push_back(0); });
  loop.run_until(far - 10);  // one jump of ~3 spans, no event on the way
  EXPECT_EQ(loop.now(), far - 10);
  loop.schedule_at(far, [&] { order.push_back(1); });
  loop.schedule_after(10, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.now(), far);
}

// The same ordering when the clock reaches the parked instant's window
// by dispatching a near event rather than by run_until.
TEST(EventLoopWheel, OverflowMigratesOnDispatchAdvance) {
  EventLoop loop;
  std::vector<int> order;
  const Time far = kSpan + 7;  // overflow: exactly one span past now + 7
  loop.schedule_at(far, [&] { order.push_back(0); });
  loop.schedule_at(8, [&] {
    order.push_back(1);
    loop.schedule_at(far, [&] { order.push_back(2); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventLoopWheel, DelayBoundariesAroundTheSpan) {
  EventLoop loop;
  std::vector<Time> fired;
  for (const Duration d : {kSpan + 1, kSpan, kSpan - 1, Duration{0},
                           100 * kSpan, Duration{1}}) {
    loop.schedule_after(d, [&] { fired.push_back(loop.now()); });
  }
  loop.run();
  EXPECT_EQ(fired, (std::vector<Time>{0, 1, kSpan - 1, kSpan, kSpan + 1,
                                      100 * kSpan}));
}

// Events appended to an instant's bucket while it is being drained
// run after everything already queued there, in schedule order.
TEST(EventLoopWheel, SameInstantAppendsDuringDrainKeepFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    loop.schedule_at(10, [&, i] {
      order.push_back(i);
      loop.schedule_after(0, [&, i] { order.push_back(10 + i); });
    });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
  EXPECT_EQ(loop.now(), 10);
}

// Buckets are indexed by absolute time, so the next event after now
// may sit in a bucket below now's: the search wraps past the end.
TEST(EventLoopWheel, NextEventWrapsPastTheWheelEnd) {
  EventLoop loop;
  std::vector<Time> fired;
  const Time start = kSpan - 10;  // now's bucket is in the last word
  loop.run_until(start);
  for (const Duration d : {Duration{200}, Duration{20}, Duration{5},
                           kSpan - 1}) {
    loop.schedule_after(d, [&] { fired.push_back(loop.now()); });
  }
  loop.run();
  EXPECT_EQ(fired, (std::vector<Time>{start + 5, start + 20, start + 200,
                                      start + kSpan - 1}));
}

// A cancelled far event frees its slot when it surfaces and never
// moves the clock: run() ends at the last event that ran.
TEST(EventLoopWheel, CancelledFarEventsSurfaceWithoutMovingTheClock) {
  EventLoop loop;
  int fired = 0;
  std::vector<EventId> far;
  for (int i = 0; i < 300; ++i) {
    far.push_back(loop.schedule_at((i + 2) * kSpan + i, [&] { ++fired; }));
  }
  loop.schedule_at(5, [&] { ++fired; });
  for (const EventId id : far) loop.cancel(id);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 5);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_FALSE(loop.step());
  // Also across a run_until that passes every cancelled instant.
  loop.schedule_at(3 * kSpan, [&] { ++fired; });
  loop.cancel(loop.schedule_at(2 * kSpan, [&] { ++fired; }));
  loop.run_until(400 * kSpan);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 400 * kSpan);
  EXPECT_EQ(loop.peak_pending(), 301u);
}

// Differential storm: schedule / cancel / step / run_until against a
// plain (when, seq) reference queue, with delays straddling the wheel
// span and callbacks that schedule, self-cancel and cancel events at
// their own instant. Every dispatch checks it is the model's next event;
// every operation checks pending() and peak_pending() exactly.
class WheelStorm {
 public:
  explicit WheelStorm(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      const auto roll = rng_.index(100);
      if (roll < 40) {
        schedule(pick_delay());
      } else if (roll < 55) {
        cancel_random();
      } else if (roll < 58) {
        // Stale handles: the event already ran or was cancelled.
        if (!stale_.empty()) loop_.cancel(stale_[rng_.index(stale_.size())]);
      } else if (roll < 80) {
        const bool had = !queue_.empty();
        const auto before = dispatched_;
        EXPECT_EQ(loop_.step(), had);
        EXPECT_EQ(dispatched_, before + (had ? 1 : 0));
      } else if (roll < 99) {
        const Time until = loop_.now() + pick_horizon();
        loop_.run_until(until);
        EXPECT_TRUE(queue_.empty() || std::get<0>(*queue_.begin()) > until);
        EXPECT_EQ(loop_.now(), until);
      } else {
        loop_.run();
        EXPECT_TRUE(queue_.empty());
      }
      EXPECT_EQ(loop_.pending(), queue_.size()) << "op " << op;
      EXPECT_EQ(loop_.peak_pending(), peak_) << "op " << op;
      EXPECT_EQ(loop_.dispatched(), dispatched_);
    }
    loop_.run();
    EXPECT_TRUE(queue_.empty());
    EXPECT_EQ(loop_.pending(), 0u);
  }

  std::uint64_t dispatched() const { return dispatched_; }

 private:
  Duration pick_delay() {
    switch (rng_.index(10)) {
      case 0: return 0;
      case 1: return kSpan - 1;
      case 2: return kSpan;
      case 3: return kSpan + 1;
      case 4: return 2 * kMs;
      case 5: return 40 * kSpan + static_cast<Duration>(rng_.index(1000));
      case 6: return static_cast<Duration>(rng_.index(3 * kSpan));
      case 7: {
        // The instant of a pending event, in the wheel or parked: ties
        // build multi-event buckets that are popped and appended to.
        if (key_.empty()) return 0;
        auto it = key_.begin();
        std::advance(it, static_cast<long>(rng_.index(key_.size())));
        return it->second.first - loop_.now();
      }
      default: return static_cast<Duration>(rng_.index(1000));
    }
  }

  Duration pick_horizon() {
    switch (rng_.index(6)) {
      case 0: return 0;
      case 1: return kSpan - 1;
      case 2: return kSpan + 1;
      case 3: return 3 * kSpan;
      default: return static_cast<Duration>(rng_.index(2000));
    }
  }

  void schedule(Duration delay) {
    const int id = next_id_++;
    const Time when = loop_.now() + delay;
    handle_[id] = loop_.schedule_after(delay, [this, id] { on_fire(id); });
    key_[id] = {when, seq_};
    queue_.emplace(when, seq_++, id);
    peak_ = std::max(peak_, queue_.size());
  }

  void cancel(int id) {
    loop_.cancel(handle_.at(id));
    stale_.push_back(handle_.at(id));
    const auto [when, seq] = key_.at(id);
    queue_.erase({when, seq, id});
    key_.erase(id);
    handle_.erase(id);
  }

  void cancel_random() {
    if (key_.empty()) return;
    auto it = key_.begin();
    std::advance(it, static_cast<long>(rng_.index(key_.size())));
    cancel(it->first);
  }

  void on_fire(int id) {
    ASSERT_FALSE(queue_.empty()) << "event " << id << " ran unmodelled";
    const auto [when, seq, expect] = *queue_.begin();
    ASSERT_EQ(id, expect) << "at t=" << loop_.now();
    ASSERT_EQ(loop_.now(), when);
    queue_.erase(queue_.begin());
    key_.erase(id);
    const EventId self = handle_.at(id);
    handle_.erase(id);
    stale_.push_back(self);
    ++dispatched_;
    const auto roll = rng_.index(10);
    if (roll < 3) {
      schedule(pick_delay());
      if (roll == 0) schedule(0);
    } else if (roll == 3) {
      loop_.cancel(self);  // running: must be a no-op
    } else if (roll == 4) {
      // Cancel the next event at this same instant, if there is one.
      if (!queue_.empty() && std::get<0>(*queue_.begin()) == loop_.now()) {
        cancel(std::get<2>(*queue_.begin()));
      }
    } else if (roll == 5) {
      cancel_random();
    }
    EXPECT_EQ(loop_.pending(), queue_.size());
  }

  EventLoop loop_;
  Rng rng_;
  std::set<std::tuple<Time, std::uint64_t, int>> queue_;  // (when, seq, id)
  std::map<int, std::pair<Time, std::uint64_t>> key_;
  std::map<int, EventId> handle_;
  std::vector<EventId> stale_;
  std::uint64_t seq_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t dispatched_ = 0;
  int next_id_ = 0;
};

TEST(EventLoopWheel, StormMatchesReferenceQueue) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WheelStorm storm(seed);
    storm.run(4000);
    EXPECT_GT(storm.dispatched(), 1000u);
    if (HasFailure()) return;
  }
}

// ---- msg_cast: exact-type compare; targets must be final.

class FinalA final : public Message {
 public:
  std::size_t wire_size() const override { return 1; }
  std::string describe() const override { return "A"; }
};

class Member final : public Message {
 public:
  std::size_t wire_size() const override { return 2; }
  std::string describe() const override { return "member"; }
};

TEST(MsgCast, FinalTargetHitAndMiss) {
  const MessagePtr a = make_message<FinalA>();
  const MessagePtr m = make_message<Member>();
  const auto hit = msg_cast<const FinalA>(a);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(static_cast<const Message*>(hit.get()), a.get());
  EXPECT_EQ(a->msg_ref_count(), 2u);  // the cast holds a reference
  EXPECT_EQ(msg_cast<const FinalA>(m), nullptr);
  EXPECT_EQ(msg_cast<const Member>(a), nullptr);
  EXPECT_NE(msg_cast<const Member>(m), nullptr);
}

TEST(MsgCast, NullPointerYieldsNull) {
  const MessagePtr none;
  EXPECT_EQ(msg_cast<const FinalA>(none), nullptr);
  EXPECT_EQ(msg_cast<const Member>(none), nullptr);
}

}  // namespace
}  // namespace livenet::sim
