#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace wlgen::sim {

template <typename Signature>
class Callback;

/// Move-only type-erased callable with a small-buffer optimisation.
///
/// Captures up to kInlineCapacity bytes are stored inline — constructing,
/// moving and destroying such a callback never touches the heap, which is
/// what makes scheduling a simulation event, queueing on a Resource and
/// completing a stage chain allocation-free.  Larger captures (rare: replay
/// completions carrying a whole record) fall back to a single heap cell.
///
/// Replaces std::function: its small buffer is both smaller (16 bytes in
/// libstdc++) and unspecified, and its copyability forces
/// capture-by-shared-state idioms the DES kernel does not need.
template <typename R, typename... Args>
class Callback<R(Args...)> {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    // An empty std::function (or null function pointer) wraps to an empty
    // Callback, so the schedule/use/execute_chain validation still rejects
    // it instead of crashing at dispatch time.
    if constexpr (requires { fn == nullptr; }) {
      if (fn == nullptr) return;
    }
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
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

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args...);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static inline const Ops kInlineOps = {
      [](void* s, Args... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static inline const Ops kHeapOps = {
      [](void* s, Args... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(s)))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); },
  };

  void move_from(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity]{};
  const Ops* ops_ = nullptr;
};

/// A simulation event / resource completion: `void()`.
using EventFn = Callback<void()>;

}  // namespace wlgen::sim
