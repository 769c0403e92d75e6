// Minimal lazy coroutine task used for simulated threads.
//
// Simulated programs (the queue algorithms re-expressed over simulated
// memory) are coroutines; every memory operation is an awaitable that
// suspends the coroutine until the coherence transaction completes in the
// event engine. Task<T> supports nesting with symmetric transfer, so a
// simulated basket_insert can be an ordinary sub-coroutine.
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <utility>
#include <vector>

namespace sbq::sim {

template <typename T>
class Task;

namespace detail {

// Frame pool for simulated-thread coroutines. Queue operations nest
// sub-coroutines (enqueue -> protect -> try_append ...), so steady-state
// traffic creates and destroys one frame per operation; recycling frames
// through size-class freelists removes that heap churn (the whole-machine
// allocs/event = 0 gate in sim_microbench). Each thread owns a pool because
// the parallel sweep runner drives one machine per thread.
class FramePool {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 32;  // pool frames up to 2 KiB

  static void* allocate(std::size_t n) {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (cls < kClasses) {
      auto& bucket = pool().by_class[cls];
      if (!bucket.empty()) {
        void* p = bucket.back();
        bucket.pop_back();
        return p;
      }
      return ::operator new(cls * kGranularity);
    }
    return ::operator new(n);
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (cls < kClasses) {
      pool().by_class[cls].push_back(p);
      return;
    }
    ::operator delete(p);
  }

 private:
  struct Pool {
    Pool() = default;
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool() {
      for (auto& bucket : by_class) {
        for (void* p : bucket) ::operator delete(p);
      }
    }
    std::array<std::vector<void*>, kClasses> by_class;
  };
  static Pool& pool() {
    static thread_local Pool p;
    return p;
  }
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  // Set on root tasks by the machine: its finished-task counter, bumped
  // when the task reaches its final suspend point.
  std::size_t* finished = nullptr;

  // Coroutine frames are allocated through the promise: route them to the
  // per-thread frame pool.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.finished != nullptr) ++*p.finished;
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  [[noreturn]] void unhandled_exception() const noexcept { std::terminate(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};
    Task get_return_object() noexcept {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) noexcept { value = std::move(v); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  std::coroutine_handle<promise_type> handle() const noexcept { return handle_; }
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

  // Awaiting a task starts it and resumes the awaiter when it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // symmetric transfer into the child
      }
      T await_resume() noexcept { return std::move(child.promise().value); }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() noexcept {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() const noexcept {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  std::coroutine_handle<promise_type> handle() const noexcept { return handle_; }
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace sbq::sim
