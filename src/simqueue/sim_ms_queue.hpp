// Michael–Scott queue on the coherence simulator: the CAS-retry baseline.
// Contended enqueues retry their tail-link CAS until they win, which under
// §3.2's cost model costs multiple serialized ownership acquisitions per
// operation.
//
// Node layout: [0] value, [1] next. Queue layout: [0] head, [1] tail.
#pragma once

#include <cassert>

#include "simqueue/sim_queue_base.hpp"

namespace sbq::simq {

class SimMsQueue {
 public:
  explicit SimMsQueue(Machine& m) : machine_(&m) {
    queue_ = m.alloc(2);
    const Addr sentinel = m.alloc(2);
    m.poke(head_addr(), sentinel);
    m.poke(tail_addr(), sentinel);
  }

  void save_host_state(std::vector<std::uint64_t>& out) const {
    out.push_back(queue_);
  }

  // Re-point at a forked machine (see SimSbq::rebind).
  void rebind(Machine& m) { machine_ = &m; }

  Addr head_addr() const { return queue_; }
  Addr tail_addr() const { return queue_ + 1; }
  static Addr node_value(Addr n) { return n; }
  static Addr node_next(Addr n) { return n + 1; }

  Task<void> enqueue(Core& c, Value element, int /*id*/) {
    assert(element >= kFirstElement);
    const Addr node = machine_->alloc(2);
    co_await c.store(node_value(node), element);
    for (;;) {
      const Addr tail = co_await c.load(tail_addr());
      const Addr next = co_await c.load(node_next(tail));
      if (tail != co_await c.load(tail_addr())) continue;
      if (next != 0) {
        co_await c.cas(tail_addr(), tail, next);  // help swing the tail
        continue;
      }
      if (co_await c.cas(node_next(tail), 0, node) != 0) {
        co_await c.cas(tail_addr(), tail, node);
        co_return;
      }
    }
  }

  Task<Value> dequeue(Core& c, int /*id*/) {
    for (;;) {
      const Addr head = co_await c.load(head_addr());
      const Addr tail = co_await c.load(tail_addr());
      const Addr next = co_await c.load(node_next(head));
      if (head != co_await c.load(head_addr())) continue;
      if (next == 0) co_return 0;  // empty
      if (head == tail) {
        co_await c.cas(tail_addr(), tail, next);
        continue;
      }
      const Value element = co_await c.load(node_value(next));
      if (co_await c.cas(head_addr(), head, next) != 0) co_return element;
    }
  }

  Task<void> prefill(Core& c, Value first_element, Value count) {
    for (Value i = 0; i < count; ++i) {
      co_await enqueue(c, first_element + i, 0);
    }
  }

 private:
  Machine* machine_;
  Addr queue_ = 0;
};

}  // namespace sbq::simq
