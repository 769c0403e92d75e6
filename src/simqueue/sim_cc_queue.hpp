// CC-Queue (Fatourou–Kallimanis CC-Synch combining) on the coherence
// simulator. Every operation performs one contended SWAP on the combining
// list's tail; the thread that lands at the head becomes the combiner and
// executes everyone's pending operations on a combiner-private sequential
// queue. Waiters spin locally on their own record's line; the combiner's
// completion store invalidates it and wakes them — exactly the two-message
// hand-off CC-Synch is designed around. The spin is Core::poll_until (a
// load every 1 + 12 cycles): the waiter parks on its valid line and costs
// no engine events until that invalidation arrives.
//
// Record layout: [0] op (1=enq, 2=deq), [1] argument, [2] result,
//                [3] status (0=pending, 1=completed, 2=lock passed),
//                [4] next record.
// Queue layout:  [0] combining tail, [1] seq head, [2] seq tail.
// Seq node:      [0] value, [1] next.
#pragma once

#include <cassert>
#include <vector>

#include "simqueue/sim_queue_base.hpp"

namespace sbq::simq {

class SimCcQueue {
 public:
  struct Config {
    int threads = 2;  // total operating threads (single id space)
  };

  SimCcQueue(Machine& m, Config cfg) : machine_(&m) {
    queue_ = m.alloc(3);
    const Addr dummy = alloc_record();
    m.poke(rec_status(dummy), 2);  // dummy holds the lock
    m.poke(combining_tail(), dummy);
    const Addr sentinel = m.alloc(2);
    m.poke(seq_head(), sentinel);
    m.poke(seq_tail(), sentinel);
    spare_.assign(static_cast<std::size_t>(cfg.threads), 0);
  }

  void save_host_state(std::vector<std::uint64_t>& out) const {
    out.push_back(queue_);
    out.push_back(spare_.size());
    out.insert(out.end(), spare_.begin(), spare_.end());
  }

  // Re-point at a forked machine (see SimSbq::rebind).
  void rebind(Machine& m) { machine_ = &m; }

  Addr combining_tail() const { return queue_; }
  Addr seq_head() const { return queue_ + 1; }
  Addr seq_tail() const { return queue_ + 2; }

  static Addr rec_op(Addr r) { return r; }
  static Addr rec_arg(Addr r) { return r + 1; }
  static Addr rec_result(Addr r) { return r + 2; }
  static Addr rec_status(Addr r) { return r + 3; }
  static Addr rec_next(Addr r) { return r + 4; }

  Task<void> enqueue(Core& c, Value element, int id) {
    assert(element >= kFirstElement);
    co_await apply(c, /*op=*/1, element, id);
  }

  Task<Value> dequeue(Core& c, int id) {
    co_return co_await apply(c, /*op=*/2, 0, id);
  }

  Task<void> prefill(Core& c, Value first_element, Value count) {
    for (Value i = 0; i < count; ++i) {
      co_await enqueue(c, first_element + i, 0);
    }
  }

 private:
  static constexpr std::size_t kHelpBound = 64;

  Addr alloc_record() { return machine_->alloc(5); }

  Addr take_spare(int id) {
    Addr& slot = spare_[static_cast<std::size_t>(id)];
    if (slot != 0) {
      const Addr r = slot;
      slot = 0;
      return r;
    }
    return alloc_record();
  }

  Task<Value> apply(Core& c, Value op, Value arg, int id) {
    const Addr next_dummy = take_spare(id);
    co_await c.store(rec_next(next_dummy), 0);
    co_await c.store(rec_status(next_dummy), 0);

    const Addr cur = co_await c.swap(combining_tail(), next_dummy);
    co_await c.store(rec_op(cur), op);
    co_await c.store(rec_arg(cur), arg);
    co_await c.store(rec_result(cur), 0);
    co_await c.store(rec_next(cur), next_dummy);

    // Local spin on our own record's status word.
    const Value status = co_await c.poll_until(
        rec_status(cur), /*at_least=*/1, 12);
    if (status == 1) {
      // Combined by someone else.
      const Value result = co_await c.load(rec_result(cur));
      spare_[static_cast<std::size_t>(id)] = cur;
      co_return result;
    }

    // status == 2: we hold the combiner lock. Serve the list: every node
    // with a non-null next pointer holds a fully posted request (posting
    // stores next last). The node we stop at — the tail dummy, or a posted
    // request past the help bound — receives the lock; its owner becomes
    // the next combiner and serves itself first.
    Addr node = cur;
    std::size_t helped = 0;
    for (;;) {
      const Addr next = co_await c.load(rec_next(node));
      if (next == 0 || helped >= kHelpBound) break;
      co_await execute(c, node);
      co_await c.store(rec_status(node), 1);
      ++helped;
      node = next;
    }
    co_await c.store(rec_status(node), 2);  // pass the lock
    const Value result = co_await c.load(rec_result(cur));
    spare_[static_cast<std::size_t>(id)] = cur;
    co_return result;
  }

  Task<void> execute(Core& c, Addr record) {
    const Value op = co_await c.load(rec_op(record));
    if (op == 1) {
      const Addr n = machine_->alloc(2);
      co_await c.store(n, co_await c.load(rec_arg(record)));
      const Addr tail = co_await c.load(seq_tail());
      co_await c.store(tail + 1, n);
      co_await c.store(seq_tail(), n);
    } else {
      const Addr head = co_await c.load(seq_head());
      const Addr first = co_await c.load(head + 1);
      if (first == 0) {
        co_await c.store(rec_result(record), 0);
      } else {
        co_await c.store(rec_result(record), co_await c.load(first));
        co_await c.store(seq_head(), first);
      }
    }
  }

  Machine* machine_;
  Addr queue_ = 0;
  std::vector<Addr> spare_;
};

}  // namespace sbq::simq
