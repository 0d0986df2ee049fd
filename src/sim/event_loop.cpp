#include "sim/event_loop.h"

#include "util/logging.h"

namespace livenet::sim {

std::uint32_t EventLoop::acquire_slot() {
  if (free_slots_.empty()) {
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    free_slots_.reserve(free_slots_.size() + kChunkSize);
    // Push in reverse so the lowest new slot is handed out first.
    for (std::uint32_t i = kChunkSize; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventLoop::release_slot(std::uint32_t slot) {
  // Bump the generation so every outstanding handle/queue entry for
  // this slot is now stale. Generations are per-slot, 32-bit; skipping
  // 0 keeps (gen << 32 | slot) != kInvalidEvent even for slot 0.
  Node& n = node(slot);
  if (++n.gen == 0) n.gen = 1;
  free_slots_.push_back(slot);
}

EventId EventLoop::schedule_at(Time when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint32_t slot = acquire_slot();
  Node& n = node(slot);
  n.cb = std::move(cb);
  queue_.push(Entry{when, next_seq_++, slot, n.gen});
  ++live_count_;
  if (live_count_ > peak_live_) peak_live_ = live_count_;
  return (static_cast<EventId>(n.gen) << 32) | slot;
}

EventId EventLoop::schedule_after(Duration delay, Callback cb) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(cb));
}

void EventLoop::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= chunks_.size() * kChunkSize) return;
  Node& n = node(slot);
  if (n.gen != gen) return;  // already ran or already cancelled
  n.cb.reset();              // release captures *now*
  release_slot(slot);
  --live_count_;
  // The queue entry stays behind as a zombie; prune()/dispatch drop it
  // when it reaches the top, recognising the stale generation.
  ++zombies_;
}

void EventLoop::prune() {
  // Zombies exist only after a cancel(); the counter lets the hot
  // dispatch path skip the slab lookup entirely.
  if (zombies_ == 0) return;
  while (!queue_.empty()) {
    const Entry& top = queue_.top();
    if (node(top.slot).gen == top.gen) break;
    queue_.pop();
    --zombies_;
  }
}

bool EventLoop::dispatch_next() {
  prune();
  if (queue_.empty()) return false;
  const Entry top = queue_.top();
  queue_.pop();
  Node& n = node(top.slot);
  // Move the callback out before releasing the slot: the callback may
  // itself schedule (reusing this slot) or cancel other events.
  Callback cb = std::move(n.cb);
  n.cb.reset();
  release_slot(top.slot);
  --live_count_;
  now_ = top.when;
  Logger::set_now(now_);
  ++dispatched_;
  cb();
  return true;
}

void EventLoop::run_until(Time until_time) {
  for (;;) {
    prune();
    if (queue_.empty() || queue_.top().when > until_time) break;
    dispatch_next();
  }
  if (now_ < until_time) {
    now_ = until_time;
    Logger::set_now(now_);
  }
}

void EventLoop::run() {
  while (dispatch_next()) {
  }
}

bool EventLoop::step() { return dispatch_next(); }

}  // namespace livenet::sim
