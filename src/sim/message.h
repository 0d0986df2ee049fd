#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "util/pool.h"

// Messages exchanged between simulated nodes.
//
// The simulator treats payloads as opaque: a Message carries only its
// wire size (which drives serialization delay and bandwidth accounting)
// and a runtime type used by receivers to dispatch. Higher layers
// subclass Message (RtpPacket, NackMessage, SubscribeRequest, ...).
//
// Messages are immutable once sent and are shared by reference count:
// the fast path forwards the *same* packet object to many subscribers,
// mirroring the zero-copy forwarding the paper's nodes implement. The
// count is intrusive and non-atomic — the simulator is single-threaded
// by construction (one EventLoop, one virtual clock), so the fan-out
// path pays a plain increment, not an atomic RMW, per subscriber.
// Allocation goes through make_message(), which draws from a per-size
// freelist arena and records the matching deleter, so steady-state
// message traffic never touches the system allocator.
namespace livenet::sim {

/// Node identifier within a Network. Dense, assigned at registration.
using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

template <typename T>
class IntrusivePtr;

class Message {
 public:
  Message() = default;
  virtual ~Message() = default;
  /// Copying a message never copies its identity as a refcounted
  /// object: the copy starts unreferenced and unpooled.
  Message(const Message&) noexcept {}
  Message& operator=(const Message&) noexcept { return *this; }

  /// Wire size in bytes (headers + payload), used for link transmission
  /// time and utilization accounting.
  virtual std::size_t wire_size() const = 0;

  /// Human-readable type tag for logs and traces.
  virtual std::string describe() const = 0;

  /// Telemetry identity for sampled per-hop tracing. A zero trace_id
  /// means "untraced"; only RtpPacket overrides this (control messages
  /// are not traced). The network layer consults it solely when the
  /// tracer is active, so untraced runs never pay the virtual call.
  struct TraceTag {
    std::uint64_t trace_id = 0;
    std::uint64_t stream = 0;
    std::uint64_t seq = 0;
  };
  virtual TraceTag trace_tag() const { return {}; }

  // ---- Shard-boundary support (see DESIGN.md "Sharded simulation").
  //
  // A message crossing from one shard's thread to another must not
  // share mutable state (the non-atomic refcount, pooled sub-objects)
  // with anything the sending shard retains. Two safe transfers exist:
  //   - move-through: the handoff queue holds the *only* reference and
  //     the subclass owns all of its state exclusively
  //     (transfer_safe() == true) — the pointer itself migrates;
  //   - deep copy: clone_message() builds an independent replica on the
  //     sending thread; the original stays behind.
  // The base defaults are maximally conservative: not transfer-safe and
  // not cloneable (a nullptr clone makes the boundary drop the message
  // loudly). Plain-data messages opt in via CloneableMessage<T> below;
  // RtpPacket implements a counted deep-body clone of its own.

  /// True if handing the sole reference to another thread shares no
  /// state with the originating shard. False for anything holding a
  /// refcounted sub-object (RtpPacket's shared body).
  virtual bool transfer_safe() const { return false; }

  /// Independent deep replica allocated from the calling thread's pool;
  /// a null pointer means "not cloneable" (the shard boundary drops the
  /// message and logs).
  virtual IntrusivePtr<const Message> clone_message() const;

  // Intrusive refcount plumbing (used by IntrusivePtr; not part of the
  // message API proper).
  void msg_add_ref() const noexcept { ++refs_; }
  void msg_release() const noexcept {
    if (--refs_ == 0) {
      if (deleter_ != nullptr) {
        deleter_(this);
      } else {
        delete this;
      }
    }
  }

  /// Installed by make_message() so release returns the object to the
  /// pool it came from; not for general use.
  void msg_set_deleter(void (*d)(const Message*) noexcept) noexcept {
    deleter_ = d;
  }

  /// Current reference count (shard-boundary move-through is legal only
  /// at exactly one reference — the handoff queue's own).
  std::uint32_t msg_ref_count() const noexcept { return refs_; }

 private:
  mutable std::uint32_t refs_ = 0;
  /// Returns the object to its pool; nullptr means plain `delete`.
  void (*deleter_)(const Message*) noexcept = nullptr;
};

/// Non-atomic intrusive smart pointer for Message subclasses. Mirrors
/// the shared_ptr surface the codebase used before (copy/move, get,
/// ->, bool, ==), minus weak pointers and aliasing, which nothing
/// needed. T may be const-qualified; the refcount is mutable.
template <typename T>
class IntrusivePtr {
 public:
  using element_type = T;

  IntrusivePtr() = default;
  IntrusivePtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// Wraps a raw pointer, taking one reference.
  explicit IntrusivePtr(T* p) : p_(p) {
    if (p_ != nullptr) p_->msg_add_ref();
  }

  IntrusivePtr(const IntrusivePtr& o) : p_(o.p_) {
    if (p_ != nullptr) p_->msg_add_ref();
  }
  IntrusivePtr(IntrusivePtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  /// Converting copy/move (derived-to-base, non-const to const).
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  IntrusivePtr(const IntrusivePtr<U>& o)  // NOLINT
      : p_(o.get()) {
    if (p_ != nullptr) p_->msg_add_ref();
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  IntrusivePtr(IntrusivePtr<U>&& o) noexcept  // NOLINT
      : p_(o.detach()) {}

  ~IntrusivePtr() {
    if (p_ != nullptr) p_->msg_release();
  }

  IntrusivePtr& operator=(const IntrusivePtr& o) {
    IntrusivePtr(o).swap(*this);
    return *this;
  }
  IntrusivePtr& operator=(IntrusivePtr&& o) noexcept {
    IntrusivePtr(std::move(o)).swap(*this);
    return *this;
  }
  IntrusivePtr& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  void swap(IntrusivePtr& o) noexcept { std::swap(p_, o.p_); }
  void reset() {
    if (p_ != nullptr) p_->msg_release();
    p_ = nullptr;
  }

  T* get() const { return p_; }
  T* operator->() const { return p_; }
  T& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

  /// Releases ownership of the raw pointer without dropping the ref.
  T* detach() noexcept {
    T* p = p_;
    p_ = nullptr;
    return p;
  }

  friend bool operator==(const IntrusivePtr& a, const IntrusivePtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const IntrusivePtr& a, const IntrusivePtr& b) {
    return a.p_ != b.p_;
  }
  friend bool operator==(const IntrusivePtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }
  friend bool operator!=(const IntrusivePtr& a, std::nullptr_t) {
    return a.p_ != nullptr;
  }

 private:
  T* p_ = nullptr;
};

using MessagePtr = IntrusivePtr<const Message>;

/// Allocates a message from the per-size freelist arena (replacement
/// for std::make_shared at every message construction site).
template <typename T, typename... Args>
auto make_message(Args&&... args) {
  static_assert(std::is_base_of_v<Message, T>);
  T* p = util::pool_new<T>(std::forward<Args>(args)...);
  p->msg_set_deleter([](const Message* m) noexcept {
    util::pool_delete(const_cast<T*>(static_cast<const T*>(m)));
  });
  return IntrusivePtr<T>(p);
}

/// Checked downcast across IntrusivePtr for receiver dispatch; null
/// when `m` is null or not a To. Every message type is `final` (checked
/// at compile time), so an exact typeid compare decides and the cast is
/// static — no walk of the class hierarchy per packet.
template <typename To, typename From>
IntrusivePtr<To> msg_cast(const IntrusivePtr<From>& m) {
  static_assert(std::is_final_v<std::remove_cv_t<To>>,
                "message types must be final");
  if (m == nullptr || typeid(*m) != typeid(To)) return {};
  return IntrusivePtr<To>(static_cast<To*>(m.get()));
}

inline IntrusivePtr<const Message> Message::clone_message() const {
  return {};
}

/// CRTP base for plain-data messages (no refcounted sub-objects): gives
/// the subclass a pooled copy-constructor clone and marks it safe to
/// move through a shard boundary when the handoff holds the only
/// reference. All control-plane messages derive from this; RtpPacket
/// does not (its body is shared and needs a counted deep copy).
template <typename Derived>
class CloneableMessage : public Message {
 public:
  IntrusivePtr<const Message> clone_message() const override {
    return make_message<Derived>(static_cast<const Derived&>(*this));
  }
  bool transfer_safe() const override { return true; }
};

}  // namespace livenet::sim
