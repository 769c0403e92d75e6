// InlineVec — a small vector with inline storage for the common case.
//
// Stall queues and the waiter list on the core request path hold at most
// a handful of entries (one stalled forward per contending core round, a
// parked re-acquire or two per core), but std::vector heap-allocates on
// the first push_back and re-allocates as protocol bursts churn the list.
// InlineVec keeps the first N elements in the object; longer bursts spill
// to a doubling heap buffer (counted by the sim_microbench global-alloc
// gate, so a spill that becomes steady-state traffic fails the bench).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sbq::sim {

template <typename T, std::size_t N>
class InlineVec {
 public:
  InlineVec() = default;

  InlineVec(InlineVec&& other) noexcept { steal(other); }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      clear_and_release();
      steal(other);
    }
    return *this;
  }
  InlineVec(const InlineVec&) = delete;
  InlineVec& operator=(const InlineVec&) = delete;
  ~InlineVec() { clear_and_release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }
  T& operator[](std::size_t i) noexcept { return data()[i]; }

  void push_back(T value) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(data() + size_)) T(std::move(value));
    ++size_;
  }

  void clear() noexcept {
    T* d = data();
    for (std::size_t i = 0; i < size_; ++i) d[i].~T();
    size_ = 0;
  }

 private:
  T* data() noexcept {
    return heap_ != nullptr ? heap_
                            : std::launder(reinterpret_cast<T*>(inline_));
  }
  const T* data() const noexcept {
    return heap_ != nullptr
               ? heap_
               : std::launder(reinterpret_cast<const T*>(inline_));
  }

  void grow() {
    const std::size_t new_cap = cap_ * 2;
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T),
                                              std::align_val_t{alignof(T)}));
    T* d = data();
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(d[i]));
      d[i].~T();
    }
    release_heap();
    heap_ = fresh;
    cap_ = new_cap;
  }

  void release_heap() noexcept {
    if (heap_ != nullptr) {
      ::operator delete(heap_, std::align_val_t{alignof(T)});
      heap_ = nullptr;
    }
  }

  void clear_and_release() noexcept {
    clear();
    release_heap();
    cap_ = N;
  }

  void steal(InlineVec& other) noexcept {
    static_assert(std::is_nothrow_move_constructible_v<T>);
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.cap_ = N;
      other.size_ = 0;
    } else {
      T* src = other.data();
      T* dst = data();
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(dst + i)) T(std::move(src[i]));
        src[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace sbq::sim
