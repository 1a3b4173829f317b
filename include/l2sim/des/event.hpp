// Allocation-free event callable for the DES kernel.
//
// InlineEvent is a move-only, type-erased `void()` callable held in place,
// in a buffer sized for the captures the simulator creates (`[this, conn]`,
// `[this, conn, bytes]`, ...), so scheduling an event never allocates.
// There is no second storage mode: a callable over kInlineSize bytes,
// aligned to more than kInlineAlign, or whose move may throw does not
// convert to an InlineEvent, so scheduling one is a compile error at its
// call site (Scheduler::at/after, Resource::submit, every VIA entry point)
// and nothing is left to count at run time. Captures stay small because a
// continuation waiting on a resource or a network hop is held by that
// resource or by the VIA message record; events capture `this` plus
// scalars, never another InlineEvent. The engine's captures are trivially
// copyable (a connection handle is a slot pointer and a generation), so
// they relocate by memcpy and need no destructor call.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace l2s::des {

/// Move-only type-erased `void()` callable stored in place.
class InlineEvent {
 public:
  /// Inline capture capacity: the simulator's shapes, `[this, conn]`
  /// (8 + 16) up to the miss read's `[this, conn, file_bytes, file, att,
  /// read_node, read_epoch]` (48), in one cache line per InlineEvent.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = 16;

  InlineEvent() noexcept = default;
  InlineEvent(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  InlineEvent(InlineEvent&& other) noexcept { move_from(other); }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  InlineEvent& operator=(std::nullptr_t) noexcept {
    destroy();
    ops_ = nullptr;
    return *this;
  }

  /// Replace the callable with `f`, built directly in this object's
  /// storage (no temporary InlineEvent to relocate). `f` must be a `void()`
  /// callable of at most kInlineSize bytes, aligned to at most
  /// kInlineAlign, whose move cannot throw (events relocate inside
  /// noexcept moves). If building `f` throws, the event is left empty.
  template <typename F, typename Fn = std::remove_cvref_t<F>>
    requires(!std::is_same_v<Fn, InlineEvent> && std::is_invocable_r_v<void, Fn&> &&
             sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
             std::is_nothrow_move_constructible_v<Fn>)
  void emplace(F&& f) {
    *this = nullptr;
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &ops_for<Fn>;
  }

  /// Converts from exactly the callables emplace() accepts.
  template <typename F>
    requires requires(InlineEvent& e, F&& f) { e.emplace(std::forward<F>(f)); }
  InlineEvent(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  ~InlineEvent() { destroy(); }

  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const InlineEvent& e, std::nullptr_t) noexcept { return !e; }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct `dst` from `src` and destroy `src`. nullptr means the
    // callable is trivially copyable and relocates by memcpy, the common
    // case (captures of `this`, raw pointers and scalars).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;  ///< nullptr = trivially destructible
  };

  template <typename Fn>
  static constexpr Ops ops_for = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
              static_cast<Fn*>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  void destroy() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
  }

  void move_from(InlineEvent& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      // Trivially copyable: copying the whole buffer (tail included)
      // beats an indirect call for these 48 bytes.
      __builtin_memcpy(buf_, other.buf_, kInlineSize);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
};

static_assert(sizeof(InlineEvent) == 64, "one event header per cache line");

}  // namespace l2s::des
