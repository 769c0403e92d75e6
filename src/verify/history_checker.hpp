// Aspect-oriented linearizability checking for queue histories.
//
// §5.3.2 of the paper proves SBQ linearizable via the Henzinger–Sezgin–
// Vafeiadis framework [13]: a complete queue history with unique enqueued
// values is linearizable iff it contains none of four violations:
//
//   VFresh  — a dequeue returns a value that was never enqueued, or that is
//             enqueued only after the dequeue completes;
//   VRepeat — two dequeues return the value of the same enqueue;
//   VOrd    — enqueue(b) is invoked after enqueue(a) COMPLETES, some
//             dequeue returns b, but a is never dequeued or a's dequeue is
//             invoked only after b's dequeue completes;
//   VWit    — a dequeue returns NULL although some element was enqueued
//             (completed) before its invocation and none of its dequeues
//             is invoked before the NULL dequeue completes.
//
// An op that responds before it is invoked is no interval: check() reports
// it as VMalformed and leaves it out of the four checks, as if it had not
// been recorded (responded == invoked is an interval).
//
// check() tests them over recorded operation intervals (op1 precedes op2
// iff op1.responded < op2.invoked) in O(n log n): one hash pass for VFresh
// and VRepeat, then one sort-and-sweep answers VOrd and VWit as dominance
// queries. It reports one violation per offending dequeue (per value for
// VRepeat). Its contract, on complete histories with unique enqueued
// values: every history it flags is not linearizable, and on histories
// without NULL dequeues its verdict is exact. It can pass a non-
// linearizable history with a NULL dequeue whose witness is in the queue
// only transitively — e.g. enq [2,8] v1, enq [5,9] v2, deq [10,13] → v1,
// deq [9,12] → NULL: the NULL must follow deq → v1, which follows enq v2,
// yet enq v2 does not precede the NULL dequeue by itself. Shared by the
// tests and the `sbq_check_history` CLI (tools/sbq_check_history.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sbq::histcheck {

using ValueT = std::uint64_t;
using TimeT = std::uint64_t;

struct Op {
  enum Kind { kEnq, kDeq } kind;
  TimeT invoked;
  TimeT responded;
  ValueT value;  // enq: value enqueued; deq: value returned (0 = NULL)
};

struct Violation {
  std::string kind;
  std::string detail;
};

class History {
 public:
  void record_enq(TimeT inv, TimeT resp, ValueT v) {
    ops_.push_back({Op::kEnq, inv, resp, v});
  }
  void record_deq(TimeT inv, TimeT resp, ValueT v) {
    ops_.push_back({Op::kDeq, inv, resp, v});
  }
  void merge(const History& other) {
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  }
  std::size_t size() const { return ops_.size(); }

  // Runs all four checks on the well-formed ops; returns every violation
  // found, VMalformed ones included (empty = pass).
  std::vector<Violation> check() const;

 private:
  std::vector<Op> ops_;
};

}  // namespace sbq::histcheck
