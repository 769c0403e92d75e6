#include "sim/engine.hpp"

#include <cassert>

namespace sbq::sim {

Engine::Engine() : wheel_(std::make_unique<Slot[]>(kWheelSlots)) {}

void Engine::refill_slab() {
  ++alloc_.slab_refills;
  slabs_.push_back(std::make_unique<Event[]>(kSlabNodes));
  Event* chunk = slabs_.back().get();
  for (std::size_t i = 0; i < kSlabNodes; ++i) release_event(&chunk[i]);
}

void Engine::prewarm_nodes(std::size_t n) {
  while (node_capacity() < n) refill_slab();
}

void Engine::insert_slot_by_seq(Event* e) noexcept {
  const std::size_t idx = static_cast<std::size_t>(e->time) & kWheelMask;
  Slot& s = wheel_[idx];
  ++wheel_count_;
  if (s.head == nullptr) {
    e->next = nullptr;
    s.head = s.tail = e;
    mark(idx);
    return;
  }
  // Same slot => same time (window invariant), so order purely by seq.
  assert(s.head->time == e->time);
  if (e->seq < s.head->seq) {
    e->next = s.head;
    s.head = e;
    return;
  }
  if (s.tail->seq < e->seq) {
    e->next = nullptr;
    s.tail->next = e;
    s.tail = e;
    return;
  }
  Event* p = s.head;
  while (p->next->seq < e->seq) p = p->next;
  e->next = p->next;
  p->next = e;
}

void Engine::drain_overflow(Time base) {
  while (!overflow_.empty() && overflow_.front()->time < base + kWheelSlots) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Event* e = overflow_.back();
    overflow_.pop_back();
    insert_slot_by_seq(e);
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

inline Event* Engine::pop_next(Time limit) {
  if (!overflow_.empty()) [[unlikely]] {
    drain_overflow(now_);
    if (wheel_count_ == 0) {
      // Every pending event is >= now_ + kWheelSlots. Nothing lies in
      // (now_, t), so sliding the window straight to the overflow minimum
      // preserves the (time, seq) order; past the limit the clock must
      // not move.
      const Time t = overflow_.front()->time;
      if (t > limit) return nullptr;
      now_ = t;
      drain_overflow(now_);
    }
  } else if (wheel_count_ == 0) {
    return nullptr;
  }
  const std::size_t from = static_cast<std::size_t>(now_) & kWheelMask;
  const std::uint64_t word = occ_[from >> 6] >> (from & 63);
  const std::size_t idx =
      word != 0 ? from + static_cast<std::size_t>(std::countr_zero(word))
                : first_occupied(from);
  Slot& s = wheel_[idx];
  Event* e = s.head;
  if (e->time > limit) return nullptr;
  s.head = e->next;
  if (s.head == nullptr) {
    s.tail = nullptr;
    clear_mark(idx);
  }
  --wheel_count_;
  now_ = e->time;
  ++processed_;
  return e;
}

inline void Engine::fire(Event* e) {
  // The handler may schedule more events; this record is already off its
  // slot list and is recycled only after it has run.
  assert(handler_ != nullptr && "event with no handler installed");
  handler_(handler_ctx_, *e);
  release_event(e);
}

Engine::Checkpoint Engine::save_checkpoint() const {
  assert(idle() && "checkpoint requires a drained event queue");
  return Checkpoint{now_, next_seq_, processed_, alloc_};
}

void Engine::restore_checkpoint(const Checkpoint& c) {
  assert(idle() && "restore requires a drained event queue");
  // Wheel and occupancy bitmap are empty at idle; slot lookup is keyed on
  // absolute time, so restoring now_ fully re-anchors the window.
  now_ = c.now;
  next_seq_ = c.next_seq;
  processed_ = c.processed;
  alloc_ = c.alloc;
}

Time Engine::run() {
  while (Event* e = pop_next(std::numeric_limits<Time>::max())) fire(e);
  return now_;
}

bool Engine::run_until(Time limit) {
  while (Event* e = pop_next(limit)) fire(e);
  return idle();
}

}  // namespace sbq::sim
