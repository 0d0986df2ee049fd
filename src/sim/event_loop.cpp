#include "sim/event_loop.h"

#include <bit>
#include <limits>

#include "util/logging.h"

namespace livenet::sim {

namespace {

constexpr Time kForever = std::numeric_limits<Time>::max();

std::uint32_t bucket_of(Time when) {
  return static_cast<std::uint32_t>(when) &
         static_cast<std::uint32_t>(EventLoop::kWheelSpan - 1);
}

}  // namespace

EventLoop::EventLoop()
    : heads_(new std::uint32_t[kBuckets]), words_(kWords, 0) {}

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

void EventLoop::append(std::uint32_t bucket, std::uint32_t slot) {
  Node& n = node(slot);
  n.next = kNil;
  const std::uint32_t w = bucket >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (bucket & 63);
  if ((words_[w] & bit) == 0) {
    if (words_[w] == 0) summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
    words_[w] |= bit;
    heads_[bucket] = slot;
    n.tail = slot;
  } else {
    Node& head = node(heads_[bucket]);
    node(head.tail).next = slot;
    head.tail = slot;
  }
  ++wheel_count_;
}

std::uint32_t EventLoop::pop_head(std::uint32_t bucket) {
  const std::uint32_t slot = heads_[bucket];
  const Node& n = node(slot);
  if (n.next == kNil) {
    const std::uint32_t w = bucket >> 6;
    words_[w] &= ~(std::uint64_t{1} << (bucket & 63));
    if (words_[w] == 0) summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
  } else {
    heads_[bucket] = n.next;
    node(n.next).tail = n.tail;
  }
  --wheel_count_;
  return slot;
}

std::uint32_t EventLoop::next_bucket() const {
  // First non-empty bucket at or after now's, wrapping once: the wheel
  // holds [now, now + kWheelSpan), so cyclic bucket order is time order.
  const std::uint32_t p = bucket_of(now_);
  const std::uint32_t w = p >> 6;
  const std::uint64_t here = words_[w] & (~std::uint64_t{0} << (p & 63));
  if (here != 0) return (w << 6) | std::countr_zero(here);
  // First non-empty word in [from, kWords), or kWords.
  const auto first_word = [this](std::uint32_t from) {
    for (std::uint32_t s = from >> 6; s < kWords / 64; ++s) {
      std::uint64_t bits = summary_[s];
      if (s == from >> 6) bits &= ~std::uint64_t{0} << (from & 63);
      if (bits != 0) return (s << 6) | std::countr_zero(bits);
    }
    return kWords;
  };
  std::uint32_t next = first_word(w + 1);
  if (next == kWords) next = first_word(0);
  return (next << 6) | std::countr_zero(words_[next]);
}

void EventLoop::advance(Time t) {
  now_ = t;
  // Pull in every overflow event the window now covers, in (when, seq)
  // order, before anything can be scheduled at the new time.
  while (!overflow_.empty() && overflow_.top().when - now_ < kWheelSpan) {
    const Entry e = overflow_.top();
    overflow_.pop();
    if (node(e.slot).cb) {
      append(bucket_of(e.when), e.slot);
    } else {
      free_slots_.push_back(e.slot);  // cancelled while parked
    }
  }
}

EventId EventLoop::schedule_at(Time when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint32_t slot = acquire_slot();
  Node& n = node(slot);
  n.cb = std::move(cb);
  const std::uint64_t seq = next_seq_++;
  if (when - now_ < kWheelSpan) {
    append(bucket_of(when), slot);
  } else {
    overflow_.push(Entry{when, seq, slot});
  }
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
  if (n.gen != gen) return;  // already ran, running, or cancelled
  // Kill the handle first so a capture's destructor cancelling this
  // same event again is a no-op. Generations are per-slot, 32-bit;
  // skipping 0 keeps (gen << 32 | slot) != kInvalidEvent for slot 0.
  if (++n.gen == 0) n.gen = 1;
  n.cb.reset();  // release captures *now*
  --live_count_;
  // The emptied node stays queued; its slot is freed when it surfaces.
}

bool EventLoop::dispatch_next(Time limit) {
  for (;;) {
    if (wheel_count_ == 0) {
      while (!overflow_.empty() && !node(overflow_.top().slot).cb) {
        free_slots_.push_back(overflow_.top().slot);
        overflow_.pop();
      }
      if (overflow_.empty() || overflow_.top().when > limit) return false;
      advance(overflow_.top().when);
      continue;
    }
    const std::uint32_t b = next_bucket();
    const Time when = now_ + ((b - bucket_of(now_)) & kBucketMask);
    if (when > limit) return false;
    const std::uint32_t slot = pop_head(b);
    Node& n = node(slot);
    if (!n.cb) {  // cancelled
      free_slots_.push_back(slot);
      continue;
    }
    if (when != now_) advance(when);
    Logger::set_now(now_);
    // Run in place: the slot stays off the free list until the call
    // returns, so the callback may schedule (growing the slab) or
    // cancel freely; its own handle is already stale.
    if (++n.gen == 0) n.gen = 1;
    --live_count_;
    ++dispatched_;
    n.cb();
    n.cb.reset();
    free_slots_.push_back(slot);
    return true;
  }
}

void EventLoop::run_until(Time until_time) {
  while (dispatch_next(until_time)) {
  }
  if (now_ < until_time) {
    advance(until_time);
    Logger::set_now(now_);
  }
}

void EventLoop::run() {
  while (dispatch_next(kForever)) {
  }
}

bool EventLoop::step() { return dispatch_next(kForever); }

}  // namespace livenet::sim
