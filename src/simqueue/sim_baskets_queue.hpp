// The original baskets queue (Hoffman–Shalev–Shavit) on the coherence
// simulator: BQ-Original in the paper's evaluation (§6.1).
//
// Enqueues that lose the tail-link CAS retry *at the same node* — the
// implicit LIFO basket — by CASing themselves between the tail node and its
// successor. Dequeues logically delete nodes by setting a deleted bit in the
// next pointer (bit 63 of the word) and periodically swing the head across
// the deleted prefix. All the contended operations are CASes on shared
// lines, so under §3.2's cost model the queue serializes exactly like the
// other CAS-retry queues.
//
// Node layout: [0] value, [1] next (bit 63 = deleted).
// Queue layout: [0] head, [1] tail.
#pragma once

#include <cassert>

#include "simqueue/sim_queue_base.hpp"

namespace sbq::simq {

class SimBasketsQueue {
 public:
  explicit SimBasketsQueue(Machine& m) : machine_(&m) {
    queue_ = m.alloc(2);
    const Addr sentinel = m.alloc(2);
    m.poke(head_addr(), sentinel);
    m.poke(tail_addr(), sentinel);
  }

  void save_host_state(std::vector<std::uint64_t>& out) const {
    out.push_back(queue_);
    out.push_back(deq_ops_.size());
    out.insert(out.end(), deq_ops_.begin(), deq_ops_.end());
  }

  // Re-point at a forked machine (see SimSbq::rebind).
  void rebind(Machine& m) { machine_ = &m; }

  Addr head_addr() const { return queue_; }
  Addr tail_addr() const { return queue_ + 1; }
  static Addr node_value(Addr n) { return n; }
  static Addr node_next(Addr n) { return n + 1; }

  static constexpr Value kDeletedBit = Value{1} << 63;
  static Addr ptr(Value next_word) { return next_word & ~kDeletedBit; }
  static bool deleted(Value next_word) { return (next_word & kDeletedBit) != 0; }

  Task<void> enqueue(Core& c, Value element, int /*id*/) {
    assert(element >= kFirstElement && element < kDeletedBit);
    const Addr node = machine_->alloc(2);
    co_await c.store(node_value(node), element);
    // A failed basket attempt leaves node.next pointing back into the list
    // (the succ_w stored before the lost CAS). The original algorithm's E7
    // resets nd->next to NULL before every tail-append attempt; without it
    // a later *winning* append would link a backward edge — a cycle.
    bool next_dirty = false;
    for (;;) {
      const Addr tail = co_await c.load(tail_addr());
      const Value next_w = co_await c.load(node_next(tail));
      if (tail != co_await c.load(tail_addr())) continue;
      if (ptr(next_w) == 0 && !deleted(next_w)) {
        if (next_dirty) {
          co_await c.store(node_next(node), 0);
          next_dirty = false;
        }
        if (co_await c.cas(node_next(tail), next_w, node) != 0) {
          co_await c.cas(tail_addr(), tail, node);
          co_return;
        }
        // CAS failed: we belong to the winner's basket. Retry insertion at
        // the same node, between `tail` and its current successor.
        for (;;) {
          const Value succ_w = co_await c.load(node_next(tail));
          if (deleted(succ_w) || tail != co_await c.load(tail_addr())) break;
          co_await c.store(node_next(node), succ_w);
          next_dirty = true;
          if (co_await c.cas(node_next(tail), succ_w, node) != 0) co_return;
        }
      } else {
        // Stale tail: chase the last node and swing the tail pointer.
        Addr last = tail;
        Value ln = next_w;
        while (ptr(ln) != 0) {
          last = ptr(ln);
          ln = co_await c.load(node_next(last));
        }
        co_await c.cas(tail_addr(), tail, last);
      }
    }
  }

  Task<Value> dequeue(Core& c, int id) {
    for (;;) {
      const Addr head = co_await c.load(head_addr());
      const Addr tail = co_await c.load(tail_addr());
      // Skip the logically deleted prefix.
      Addr iter = head;
      Value next_w = co_await c.load(node_next(iter));
      while (deleted(next_w) && ptr(next_w) != 0) {
        iter = ptr(next_w);
        next_w = co_await c.load(node_next(iter));
      }
      if (head != co_await c.load(head_addr())) continue;

      if (ptr(next_w) == 0) {
        if (iter != head) co_await c.cas(head_addr(), head, iter);
        if (iter == co_await c.load(tail_addr())) co_return 0;  // empty
        continue;  // tail lags behind the deleted chain
      }
      if (head == tail) {
        // Help the stale tail forward.
        Addr last = iter;
        Value ln = next_w;
        while (ptr(ln) != 0) {
          last = ptr(ln);
          ln = co_await c.load(node_next(last));
        }
        co_await c.cas(tail_addr(), tail, last);
        continue;
      }
      const Addr next = ptr(next_w);
      const Value element = co_await c.load(node_value(next));
      if (co_await c.cas(node_next(iter), next_w, next | kDeletedBit) != 0) {
        // Periodically swing the head over the deleted prefix.
        if (++deq_ops_[static_cast<std::size_t>(id)] % kHopFrequency == 0) {
          co_await c.cas(head_addr(), head, next);
        }
        co_return element;
      }
    }
  }

  Task<void> prefill(Core& c, Value first_element, Value count) {
    for (Value i = 0; i < count; ++i) {
      co_await enqueue(c, first_element + i, 0);
    }
  }

  void set_dequeuers(int n) {
    deq_ops_.assign(static_cast<std::size_t>(n), 0);
  }

 private:
  static constexpr std::uint64_t kHopFrequency = 8;

  Machine* machine_;
  Addr queue_ = 0;
  std::vector<std::uint64_t> deq_ops_ = std::vector<std::uint64_t>(64, 0);
};

}  // namespace sbq::simq
