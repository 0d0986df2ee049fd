#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

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

}  // namespace
}  // namespace livenet::sim
