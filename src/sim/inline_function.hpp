// InlineFunction — a move-only callable wrapper that never heap-allocates.
//
// std::function's small-buffer capacity (16 bytes on libstdc++) is
// exceeded by most simulator captures, so steady-state traffic would pay
// one heap allocation per call site. InlineFunction stores the callable in
// an in-object buffer sized by the template parameter and *refuses to
// compile* when a capture does not fit: growth of a hot-path capture is a
// build error, not a silent allocation (the same design as the engine's
// event nodes, which the whole-machine gate in sim_microbench enforces at
// run time). Interconnect delivery handlers, poll_until predicates and root
// tasks' completion hooks use it; the memory-operation path itself carries
// no callables (Core's per-core operation record).
//
// Semantics: move-only (captures may own move-only state), nullable,
// invocable via operator(). Moved-from objects are empty. Unlike
// std::function, invoking an empty InlineFunction is undefined (assert in
// debug builds) — the simulator never stores "maybe" callbacks.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sbq::sim {

template <typename Sig, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction& operator=(F&& fn) {
    reset();
    emplace(std::forward<F>(fn));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  R operator()(Args... args) {
    assert(vtable_ != nullptr && "invoking empty InlineFunction");
    return vtable_->invoke(buf_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    R (*invoke)(void* buf, Args&&... args);
    void (*destroy)(void* buf) noexcept;
    void (*relocate)(void* dst, void* src) noexcept;  // move + destroy src
  };

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "callable capture exceeds InlineFunction capacity — grow "
                  "the capacity constant at the typedef, do not box");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<Fn>);
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    static const VTable vt{
        [](void* buf, Args&&... args) -> R {
          return (*std::launder(reinterpret_cast<Fn*>(buf)))(
              std::forward<Args>(args)...);
        },
        [](void* buf) noexcept { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); },
        [](void* dst, void* src) noexcept {
          Fn* s = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        },
    };
    vtable_ = &vt;
  }

  void move_from(InlineFunction& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(buf_, other.buf_);
      other.vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace sbq::sim
