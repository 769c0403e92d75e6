#include "sim/engine.hpp"

#include <cassert>

namespace sbq::sim {

Engine::Engine() : wheel_(std::make_unique<Slot[]>(kWheelSlots)) {}

Engine::~Engine() {
  // Destroy (without running) any events still pending; slab storage is
  // reclaimed by the slabs_ vector.
  for (std::size_t w = 0; w < kOccWords; ++w) {
    std::uint64_t bits = occ_[w];
    while (bits != 0) {
      const std::size_t idx = (w << 6) + std::countr_zero(bits);
      bits &= bits - 1;
      for (Node* n = wheel_[idx].head; n != nullptr; n = n->next)
        n->run_and_destroy(n, /*run=*/false);
    }
  }
  for (Node* n : overflow_) n->run_and_destroy(n, /*run=*/false);
}

void Engine::refill_slab() {
  ++alloc_.slab_refills;
  slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
  Node* chunk = slabs_.back().get();
  for (std::size_t i = 0; i < kSlabNodes; ++i) release_node(&chunk[i]);
}

void Engine::prewarm_nodes(std::size_t n) {
  while (node_capacity() < n) refill_slab();
}

void Engine::insert_slot_by_seq(Node* n) noexcept {
  const std::size_t idx = static_cast<std::size_t>(n->time) & kWheelMask;
  Slot& s = wheel_[idx];
  ++wheel_count_;
  if (s.head == nullptr) {
    n->next = nullptr;
    s.head = s.tail = n;
    mark(idx);
    return;
  }
  // Same slot => same time (window invariant), so order purely by seq.
  assert(s.head->time == n->time);
  if (n->seq < s.head->seq) {
    n->next = s.head;
    s.head = n;
    return;
  }
  if (s.tail->seq < n->seq) {
    n->next = nullptr;
    s.tail->next = n;
    s.tail = n;
    return;
  }
  Node* p = s.head;
  while (p->next->seq < n->seq) p = p->next;
  n->next = p->next;
  p->next = n;
}

void Engine::drain_overflow(Time base) {
  while (!overflow_.empty() && overflow_.front()->time < base + kWheelSlots) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Node* n = overflow_.back();
    overflow_.pop_back();
    insert_slot_by_seq(n);
  }
}

std::size_t Engine::first_occupied(std::size_t from) const noexcept {
  const std::size_t w0 = from >> 6;
  if (const std::uint64_t word = occ_[w0] >> (from & 63); word != 0)
    return from + static_cast<std::size_t>(std::countr_zero(word));
  for (std::size_t i = 1; i < kOccWords; ++i) {
    const std::size_t w = (w0 + i) & (kOccWords - 1);
    if (occ_[w] != 0)
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(occ_[w]));
  }
  // Wrapped all the way: the hit is in the low bits of the starting word
  // (slots cyclically before `from`, i.e. times in the next wheel lap).
  const std::uint64_t low =
      occ_[w0] & ((std::uint64_t{1} << (from & 63)) - 1);
  assert(low != 0 && "first_occupied called with empty wheel");
  return (w0 << 6) + static_cast<std::size_t>(std::countr_zero(low));
}

Time Engine::next_event_time() {
  drain_overflow(now_);
  if (wheel_count_ != 0) {
    next_idx_ = first_occupied(static_cast<std::size_t>(now_) & kWheelMask);
    return wheel_[next_idx_].head->time;
  }
  // Every pending event is >= now_ + kWheelSlots: report the overflow
  // minimum without advancing the window (run_until must not move the
  // clock when it bails out at the limit).
  return overflow_.front()->time;
}

void Engine::dispatch_at(Time t) {
  if (wheel_count_ == 0) {
    // Far-future hop: nothing lies in (now_, t), so sliding the window
    // straight to `t` preserves the (time, seq) dispatch order.
    now_ = t;
    drain_overflow(now_);
    next_idx_ = first_occupied(static_cast<std::size_t>(now_) & kWheelMask);
  }
  step_at(next_idx_);
}

void Engine::step_at(std::size_t idx) {
  Slot& s = wheel_[idx];
  Node* n = s.head;
  s.head = n->next;
  if (s.head == nullptr) {
    s.tail = nullptr;
    clear_mark(idx);
  }
  --wheel_count_;
  now_ = n->time;
  ++processed_;
  // The callable may re-enter schedule(); the node is already off its slot
  // list and is recycled only after the callable finishes.
  n->run_and_destroy(n, /*run=*/true);
  release_node(n);
}

Engine::Checkpoint Engine::save_checkpoint() const {
  assert(idle() && "checkpoint requires a drained event queue");
  return Checkpoint{now_, next_seq_, processed_, alloc_};
}

void Engine::restore_checkpoint(const Checkpoint& c) {
  assert(idle() && "restore requires a drained event queue");
  now_ = c.now;
  next_seq_ = c.next_seq;
  processed_ = c.processed;
  alloc_ = c.alloc;
  // Wheel and occupancy bitmap are empty at idle; slot lookup is keyed on
  // absolute time, so restoring now_ fully re-anchors the window.
  next_idx_ = static_cast<std::size_t>(now_) & kWheelMask;
}

Time Engine::run() {
  while (!idle()) dispatch_at(next_event_time());
  return now_;
}

bool Engine::run_until(Time limit) {
  while (!idle()) {
    const Time t = next_event_time();
    if (t > limit) return false;
    dispatch_at(t);
  }
  return true;
}

}  // namespace sbq::sim
