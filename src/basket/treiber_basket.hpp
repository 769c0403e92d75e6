// A LIFO Treiber-stack basket with close-on-empty semantics.
//
// §5.2 of the paper observes that the *original* baskets queue can be viewed,
// in the modular framework, as using a Treiber-stack variant as its basket:
// once an element has been removed (or emptiness observed), further
// insertions must fail so that the queue stays linearizable. We realize that
// here explicitly: the stack's head pointer carries a CLOSED tag bit; the
// first extract that leaves the basket empty (or any emptiness indication)
// closes it, and closed baskets reject all inserts.
//
// This basket makes the modular queue behave like BQ-Original structurally:
// inserts all CAS the same head pointer, so insertion is contended (the
// non-scalable part SBQ's array basket removes).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

namespace sbq {

template <typename T>
class TreiberBasket {
 public:
  struct Cell {
    T* element;
    Cell* next;
  };

  // Cells are owned by the inserting thread and recycled with the node; we
  // keep one embedded cell per inserter slot inside the basket so that
  // insert is allocation-free. `capacity` = number of inserters.
  explicit TreiberBasket(std::size_t capacity, std::size_t /*live*/ = 0)
      : capacity_(capacity), cells_(new Cell[capacity]) {}

  TreiberBasket(const TreiberBasket&) = delete;
  TreiberBasket& operator=(const TreiberBasket&) = delete;
  ~TreiberBasket() { delete[] cells_; }

  bool insert(T* element, int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < capacity_);
    Cell* cell = &cells_[static_cast<std::size_t>(id)];
    cell->element = element;
    std::uintptr_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      if (is_closed(head)) return false;
      cell->next = ptr(head);
      if (head_.compare_exchange_weak(head, pack(cell), std::memory_order_release,
                                      std::memory_order_acquire)) {
        return true;
      }
    }
  }

  T* extract(int /*id*/) {
    std::uintptr_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      Cell* top = ptr(head);
      if (top == nullptr) {
        if (try_close(head)) return nullptr;
        continue;
      }
      // Preserve the closed bit (it can only be set when the list is empty,
      // so it is clear here, but keep the invariant explicit).
      const std::uintptr_t next = pack(top->next) | (head & kClosedBit);
      if (head_.compare_exchange_weak(head, next, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return top->element;
      }
    }
  }

  // An empty indication closes the basket too: the queue's dequeue skips a
  // basket that reports empty, so an insert accepted afterwards would land
  // behind head and be lost.
  bool empty() const {
    std::uintptr_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      if (ptr(head) != nullptr) return false;
      if (try_close(head)) return true;
    }
  }

  void reset(int /*id*/) { head_.store(0, std::memory_order_relaxed); }

  bool closed() const {
    return is_closed(head_.load(std::memory_order_acquire));
  }

 private:
  static constexpr std::uintptr_t kClosedBit = 1;

  static Cell* ptr(std::uintptr_t v) noexcept {
    return reinterpret_cast<Cell*>(v & ~kClosedBit);
  }
  static std::uintptr_t pack(Cell* c) noexcept {
    return reinterpret_cast<std::uintptr_t>(c);
  }
  static bool is_closed(std::uintptr_t v) noexcept { return (v & kClosedBit) != 0; }

  // `head` was read with an empty list. Closes the basket so later inserts
  // fail (linearizability requirement from §5.2.2 "Linearizability"); true
  // once closed, false (with `head` reloaded) if the head changed first.
  bool try_close(std::uintptr_t& head) const {
    return is_closed(head) ||
           head_.compare_exchange_weak(head, head | kClosedBit,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  const std::size_t capacity_;
  Cell* cells_;
  // Mutable: empty() is const in the Basket concept but closes the basket.
  mutable std::atomic<std::uintptr_t> head_{0};
};

}  // namespace sbq
