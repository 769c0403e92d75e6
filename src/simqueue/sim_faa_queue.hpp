// FAA-only queue on the coherence simulator — the model of the paper's
// WF-Queue/LCRQ comparison point (§6.1, [41]/[31]).
//
// The simulator's memory is unbounded, so we use the idealized infinite-
// array formulation those papers build from: one shared enqueue counter,
// one shared dequeue counter, and an unbounded cell array.
//   enqueue: ticket = FAA(enq); CAS(cell[ticket], 0, element); retry on a
//            poisoned cell.
//   dequeue: emptiness check; ticket = FAA(deq); SWAP(cell[ticket], TAKEN);
//            retry (or report empty) on a cell whose enqueuer was overtaken.
// Per operation: exactly one *contended* FAA plus uncontended cell traffic —
// the §3 cost model for this family. The cell array is grown in host-side
// chunks; chunk allocation is free (it models pre-faulted memory).
//
// Queue layout: [0] enq counter, [1] deq counter; cells in detached chunks.
#pragma once

#include <cassert>
#include <vector>

#include "simqueue/sim_queue_base.hpp"

namespace sbq::simq {

class SimFaaQueue {
 public:
  struct Config {
    int enqueuers = 1;   // unused; kept for a uniform constructor shape
    int dequeuers = 1;
  };

  SimFaaQueue(Machine& m, Config cfg) : machine_(&m), cfg_(cfg) {
    counters_ = m.alloc(2);
  }

  // Rebuild around a machine forked from a deserialized snapshot (see
  // HostWords). Chunk bases and the per-dequeuer empty hints are restored
  // verbatim: cell addressing and the hint-gated counter polls are both
  // schedule-visible.
  SimFaaQueue(Machine& m, Config cfg, const HostWords& w)
      : machine_(&m), cfg_(cfg), counters_(w.at(0)) {
    std::size_t i = 1;
    chunks_.assign(static_cast<std::size_t>(w.at(i++)), 0);
    for (Addr& c : chunks_) c = w.at(i++);
    empty_hint_.assign(static_cast<std::size_t>(w.at(i++)), 0);
    for (char& h : empty_hint_) h = static_cast<char>(w.at(i++));
  }

  void save_host_state(std::vector<std::uint64_t>& out) const {
    out.push_back(counters_);
    out.push_back(chunks_.size());
    out.insert(out.end(), chunks_.begin(), chunks_.end());
    out.push_back(empty_hint_.size());
    for (char h : empty_hint_) {
      out.push_back(static_cast<std::uint64_t>(static_cast<unsigned char>(h)));
    }
  }

  // Re-point at a forked machine (see SimSbq::rebind).
  void rebind(Machine& m) { machine_ = &m; }

  Addr enq_counter() const { return counters_; }
  Addr deq_counter() const { return counters_ + 1; }

  Task<void> enqueue(Core& c, Value element, int /*id*/) {
    assert(element >= kFirstElement);
    for (;;) {
      const Value ticket = co_await c.faa(enq_counter(), 1);
      const Addr cell = cell_addr(ticket);
      if (co_await c.cas(cell, 0, element) != 0) co_return;
      // Poisoned by an overtaking dequeuer: take a fresh ticket.
    }
  }

  Task<Value> dequeue(Core& c, int id) {
    // After observing emptiness, poll the counters with plain loads before
    // burning another dequeue ticket — modeling LCRQ's ring closing, which
    // keeps empty-polling consumers from racing the dequeue index
    // arbitrarily far ahead of the enqueue index (which would force
    // enqueuers to chew through the poisoned range).
    auto& was_empty = empty_hint_[static_cast<std::size_t>(id) %
                                  empty_hint_.size()];
    if (was_empty) {
      const Value deq = co_await c.load(deq_counter());
      const Value enq = co_await c.load(enq_counter());
      if (deq >= enq) co_return 0;
      was_empty = false;
    }
    for (;;) {
      // One contended FAA per dequeue (the defining property of this
      // family); emptiness is checked only after a poisoned cell, like
      // LCRQ/WF-Queue do.
      const Value ticket = co_await c.faa(deq_counter(), 1);
      const Value v = co_await c.swap(cell_addr(ticket), kTakenMark);
      if (v != 0) co_return v;
      // Either we overtook the owning enqueuer (it will retry elsewhere)
      // or the queue is empty: empty iff no enqueuer has claimed our
      // ticket yet.
      if (co_await c.load(enq_counter()) <= ticket) {
        was_empty = true;
        co_return 0;
      }
    }
  }

  Task<void> prefill(Core& c, Value first_element, Value count) {
    for (Value i = 0; i < count; ++i) {
      co_await enqueue(c, first_element + i, 0);
    }
  }

 private:
  static constexpr Value kChunk = 4096;

  Addr cell_addr(Value ticket) {
    const std::size_t chunk = static_cast<std::size_t>(ticket / kChunk);
    while (chunks_.size() <= chunk) chunks_.push_back(machine_->alloc(kChunk));
    return chunks_[chunk] + (ticket % kChunk);
  }

  Machine* machine_;
  Config cfg_;
  Addr counters_ = 0;
  std::vector<Addr> chunks_;
  // Host-side per-dequeuer empty hints (each slot used by one thread).
  std::vector<char> empty_hint_ = std::vector<char>(256, 0);
};

}  // namespace sbq::simq
