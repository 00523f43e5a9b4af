#pragma once
// Small-buffer-optimized, move-only callable for the event loop.
//
// Every simulated action is an event, and every event carries a callable.
// `std::function` heap-allocates for captures beyond ~16 bytes and drags in
// copy machinery the engine never uses; `Callback` instead guarantees inline
// storage for any nothrow-movable callable up to `kInlineSize` (48) bytes —
// which covers every scheduling call site in the runtime (coroutine-handle
// resumptions, `[this]` member timers, `shared_ptr` fiber starts) — so the
// steady-state event loop performs no heap allocation.  Larger or
// throwing-move callables transparently fall back to the heap.

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ars::sim {

class Callback {
 public:
  /// Callables up to this size/alignment (and nothrow-movable) are stored
  /// inline; pointer alignment covers every lambda capture in the runtime.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wrap any void() callable.  Intentionally implicit so existing
  /// `schedule_at(t, [..] { .. })` call sites read unchanged.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (storage()) D(std::forward<F>(fn));
      ops_ = &inline_ops<D>;
    } else {
      ::new (storage()) D*(new D(std::forward<F>(fn)));
      ops_ = &boxed_ops<D>;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() {
    ops_->invoke(storage());
  }

  /// Destroy the wrapped callable (releasing captured resources) and return
  /// to the empty state.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage());
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-construct the callable from `src` storage into `dst` storage and
    // destroy the source (a destructive move, i.e. relocation).  nullptr
    // means "relocate by memcpy" — the hot path for trivially copyable
    // captures avoids an indirect call per move.
    void (*relocate)(void* dst, void* src) noexcept;
    // nullptr means "trivially destructible, nothing to do".
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops inline_ops{
      [](void* self) { (*static_cast<D*>(self))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              D* from = static_cast<D*>(src);
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops boxed_ops{
      [](void* self) { (**static_cast<D**>(self))(); },
      /*relocate=*/nullptr,  // moving the box is copying one pointer
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  void move_from(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage(), other.storage());
      } else {
        std::memcpy(buffer_, other.buffer_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  [[nodiscard]] void* storage() noexcept { return buffer_; }
  [[nodiscard]] const void* storage() const noexcept { return buffer_; }

  alignas(kInlineAlign) std::byte buffer_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ars::sim
