// A move-only, type-erased `void()` callable with inline storage.
//
// std::function must be copyable, so a closure that captures a Packet (or
// anything else past its 16-byte small buffer) costs one heap allocation
// per scheduled event. Callback stores any nothrow-movable callable of up
// to kCapacity bytes in place and only falls back to the heap for larger
// ones; it never copies, so closures may own move-only state
// (std::unique_ptr and friends).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tussle::sim {

/// Per-callable-type operations. `relocate` move-constructs the object into
/// raw storage and destroys the source; it and `destroy` never throw, so a
/// callback move cannot fail.
struct CallbackOps {
  void (*invoke)(void* obj);
  void (*relocate)(void* dst, void* src) noexcept;
  void (*destroy)(void* obj) noexcept;
  bool heap = false;  ///< stored object is a pointer to a heap copy
};

namespace detail {

/// `T` stored in place in the buffer.
template <typename T>
struct InlineOps {
  static void invoke(void* obj) { (*static_cast<T*>(obj))(); }
  static void relocate(void* dst, void* src) noexcept {
    T* from = static_cast<T*>(src);
    ::new (dst) T(std::move(*from));
    from->~T();
  }
  static void destroy(void* obj) noexcept { static_cast<T*>(obj)->~T(); }
  static constexpr CallbackOps kOps{&invoke, &relocate, &destroy, false};
};

/// `T` too large (or not nothrow-movable): the buffer holds a `T*`.
template <typename T>
struct HeapOps {
  static void invoke(void* obj) { (**static_cast<T**>(obj))(); }
  static void relocate(void* dst, void* src) noexcept {
    ::new (dst) T*(*static_cast<T**>(src));
  }
  static void destroy(void* obj) noexcept { delete *static_cast<T**>(obj); }
  static constexpr CallbackOps kOps{&invoke, &relocate, &destroy, true};
};

}  // namespace detail

/// The simulator's event action.
class Callback {
 public:
  /// Inline bytes: a link-hop closure (the link's `this`, one reference or
  /// id, and one net::Packet by value) fits.
  static constexpr std::size_t kCapacity = 184;

  Callback() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&> &&
             std::is_constructible_v<std::decay_t<F>, F>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    using T = std::decay_t<F>;
    if constexpr (kFitsInline<T>) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(f));
      ops_ = &detail::InlineOps<T>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) T*(new T(std::forward<F>(f)));
      ops_ = &detail::HeapOps<T>::kOps;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the stored callable now; the callback becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True when the callable lives in a heap block (too large for kCapacity).
  bool on_heap() const noexcept { return ops_ != nullptr && ops_->heap; }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  /// True when a callable of type T is stored in place rather than on the heap.
  template <typename T>
  static constexpr bool kFitsInline = sizeof(T) <= kCapacity && alignof(T) <= kAlign &&
                                      std::is_nothrow_move_constructible_v<T>;

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(kAlign) unsigned char buf_[kCapacity];
  const CallbackOps* ops_ = nullptr;
};

}  // namespace tussle::sim
