#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

// Freelist arenas for the simulator's per-packet hot path.
//
// Each simulation thread is single-threaded by design (one EventLoop,
// one virtual clock per shard), so these pools deliberately skip all
// synchronisation: an allocation is a pointer pop, a deallocation a
// pointer push. The freelist head is thread_local, which makes every
// shard of a sharded run (see sim/shard.h) its own arena with zero
// cross-thread contention. Blocks are carved from geometrically-growing
// chunks that are never returned to the OS — the working set of
// in-flight packets/events reaches a steady state within the first
// simulated seconds and the arena stops touching the system allocator
// entirely after that. A block freed on a different thread than the one
// that allocated it simply migrates to the freeing thread's freelist
// (chunks are never unmapped, so the memory stays valid); the sharded
// runtime still keeps object *ownership* single-threaded — only whole,
// sole-owner handoffs cross a shard boundary.
//
// Because blocks migrate, a chunk cannot be freed when the thread that
// carved it exits. Every chunk is instead recorded in one process-wide
// list (appended under a mutex in refill(), the only slow path), so
// chunks carved by short-lived shard threads stay reachable and leak
// checkers do not report them.
namespace livenet::util {

/// Fixed-size block arena. All users of the same `Size` bucket share
/// one freelist (packets, event nodes, spilled callbacks of equal
/// size), which keeps the hot freelist in cache.
template <std::size_t Size>
class FreeListArena {
 public:
  static void* allocate() {
    if (head_ref() == nullptr) refill();
    Node* n = head_ref();
    head_ref() = n->next;
    return n;
  }

  static void deallocate(void* p) noexcept {
    Node* n = static_cast<Node*>(p);
    n->next = head_ref();
    head_ref() = n;
  }

 private:
  union Node {
    Node* next;
    alignas(std::max_align_t) unsigned char storage[Size];
  };

  static Node*& head_ref() {
    static thread_local Node* head = nullptr;
    return head;
  }

  static void refill() {
    // Geometric growth, capped: start small so micro uses stay cheap,
    // grow fast enough that a 600-node run does O(log n) system allocs.
    static thread_local std::size_t chunk_nodes = 64;
    Node* chunk =
        static_cast<Node*>(::operator new(chunk_nodes * sizeof(Node)));
    {
      static std::mutex mu;
      static std::vector<Node*>* chunks = new std::vector<Node*>();
      const std::lock_guard<std::mutex> lock(mu);
      chunks->push_back(chunk);
    }
    for (std::size_t i = 0; i < chunk_nodes; ++i) {
      chunk[i].next = head_ref();
      head_ref() = &chunk[i];
    }
    if (chunk_nodes < 16384) chunk_nodes *= 2;
  }
};

/// Rounds an allocation size up to a pool bucket so types that differ
/// by a few bytes share an arena.
constexpr std::size_t pool_bucket(std::size_t n) {
  std::size_t b = 32;
  while (b < n) b *= 2;
  return b;
}

/// Pool-backed `new` for a single object of type T. Pairs with
/// `pool_delete`.
template <typename T, typename... Args>
T* pool_new(Args&&... args) {
  void* p = FreeListArena<pool_bucket(sizeof(T))>::allocate();
  return ::new (p) T(std::forward<Args>(args)...);
}

template <typename T>
void pool_delete(T* p) noexcept {
  p->~T();
  FreeListArena<pool_bucket(sizeof(T))>::deallocate(p);
}

/// Minimal std::allocator-compatible adapter over FreeListArena, for
/// `std::allocate_shared` and friends when a shared_ptr is still the
/// right ownership tool off the hot path.
template <typename T>
struct PoolAlloc {
  using value_type = T;

  PoolAlloc() = default;
  template <typename U>
  PoolAlloc(const PoolAlloc<U>&) {}

  T* allocate(std::size_t n) {
    if (n != 1) return static_cast<T*>(::operator new(n * sizeof(T)));
    return static_cast<T*>(FreeListArena<pool_bucket(sizeof(T))>::allocate());
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    FreeListArena<pool_bucket(sizeof(T))>::deallocate(p);
  }

  template <typename U>
  bool operator==(const PoolAlloc<U>&) const {
    return true;
  }
};

}  // namespace livenet::util
