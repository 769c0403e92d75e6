// Simulated-queue workload drivers for the figure-reproduction benchmarks:
// producer-only (Figure 5), consumer-only (Figure 6), and the mixed
// two-socket workload (Figure 7), mirroring §6.1 of the paper.
//
// Threads are simulated cores; producer i runs on core i and consumers run
// on the cores after the producers (for the mixed workload: producers on
// socket 0, consumers on socket 1, as the paper pins them). A small
// deterministic per-op think-time jitter avoids artificial lockstep.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "sim/stats.hpp"
#include "simqueue/sim_queue_base.hpp"

namespace sbq::simq {

struct SimRunResult {
  double enq_latency_cycles = 0;  // mean per enqueue
  double deq_latency_cycles = 0;  // mean per dequeue
  double duration_cycles = 0;     // measured-phase wall time
  std::uint64_t enq_ops = 0;
  std::uint64_t deq_ops = 0;
  // Machine counters at the end of the run (cumulative: for consumer-only
  // and mixed runs this includes the un-measured pre-fill phase).
  sim::MetricsSnapshot metrics;

  double enq_latency_ns(double ns_per_cycle) const {
    return enq_latency_cycles * ns_per_cycle;
  }
  double deq_latency_ns(double ns_per_cycle) const {
    return deq_latency_cycles * ns_per_cycle;
  }
  // Aggregate throughput in operations per second of the measured phase.
  double throughput_mops(double ns_per_cycle) const {
    const double ops = static_cast<double>(enq_ops + deq_ops);
    const double ns = duration_cycles * ns_per_cycle;
    return ns > 0 ? ops / ns * 1e3 : 0.0;
  }
};

namespace detail {

// Latency sums are kept as integer cycle counts. The totals stay far below
// 2^53, so the final double(cycle_sum) equals the value the old sequential
// double accumulation produced — artifacts stay byte-identical.
struct Accum {
  std::uint64_t enq_lat_cycles = 0, deq_lat_cycles = 0;
  std::uint64_t enq = 0, deq = 0;

  double enq_lat() const { return static_cast<double>(enq_lat_cycles); }
  double deq_lat() const { return static_cast<double>(deq_lat_cycles); }
};

template <typename QueueT>
Task<void> producer_thread(Machine& m, QueueT& q, int core, int id,
                           Value ops, std::uint64_t seed,
                           std::shared_ptr<Accum> acc) {
  (void)m;
  Xoshiro256 rng(seed);
  Core& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  for (Value i = 0; i < ops; ++i) {
    const Time start = c.now();
    co_await q.enqueue(c, kFirstElement + (static_cast<Value>(id) << 32 | i),
                       id);
    acc->enq_lat_cycles += c.now() - start;
    ++acc->enq;
    co_await c.think(1 + rng.next_below(8));
  }
}

template <typename QueueT>
Task<void> consumer_thread(Machine& m, QueueT& q, int core, int id, Value ops,
                           std::uint64_t seed, std::shared_ptr<Accum> acc) {
  (void)m;
  Xoshiro256 rng(seed);
  Core& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  Value got = 0;
  while (got < ops) {
    const Time start = c.now();
    const Value e = co_await q.dequeue(c, id);
    if (e != 0) {
      acc->deq_lat_cycles += c.now() - start;
      ++acc->deq;
      ++got;
    } else {
      co_await c.think(64);  // transiently empty; back off briefly
    }
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Prefill phases (un-measured).
//
// The prefill phase is split from the measured phase so that sweep cells
// sharing a (row, queue) coordinate can run it ONCE, take a
// Machine::snapshot of the warmed machine, and fork each repeat from the
// snapshot instead of re-warming (see bench/sim_queue_bench_util.hpp's
// WarmedWorkload). For that to be sound the prefill must be seeded
// independently of the per-repeat measurement seed — callers pass a
// `prefill_seed` that is constant across repeats.
// ---------------------------------------------------------------------------

// Concurrent pre-fill by `producers` threads, `per_producer` elements each
// (§6.1's "pre-fill using concurrent producers"). Runs to quiescence.
template <typename QueueT>
void run_prefill(Machine& m, QueueT& q, int producers, Value per_producer,
                 std::uint64_t prefill_seed) {
  auto fill_acc = std::make_shared<detail::Accum>();
  for (int p = 0; p < producers; ++p) {
    m.spawn(detail::producer_thread(
                m, q, p, p, per_producer,
                prefill_seed * 7 + static_cast<std::uint64_t>(p), fill_acc));
  }
  m.run();  // un-measured fill phase
}

// Elements each prefill producer contributes for a consumer-only run: the
// consumers' total demand split evenly (rounded up).
inline Value consumer_only_per_producer(int prefill_producers, int consumers,
                                        Value ops_per_thread) {
  const Value total = static_cast<Value>(consumers) * ops_per_thread;
  return (total + static_cast<Value>(prefill_producers) - 1) /
         static_cast<Value>(prefill_producers);
}

inline Value mixed_per_producer(int producers, Value prefill) {
  return (prefill + static_cast<Value>(producers) - 1) /
         static_cast<Value>(producers);
}

// ---------------------------------------------------------------------------
// Measured phases. Each assumes any prefill already ran to quiescence (on
// this machine, or on the machine its fork snapshot was taken from).
// ---------------------------------------------------------------------------

// Producer-only: `producers` threads each enqueue `ops_per_thread` elements
// into an initially empty queue (Figure 5's workload).
template <typename QueueT>
SimRunResult run_producer_only(Machine& m, QueueT& q, int producers,
                               Value ops_per_thread, std::uint64_t seed = 1) {
  auto acc = std::make_shared<detail::Accum>();
  const Time start = m.now();
  for (int p = 0; p < producers; ++p) {
    m.spawn(detail::producer_thread(m, q, p, p, ops_per_thread,
                                    seed * 1000003 + static_cast<std::uint64_t>(p),
                                    acc));
  }
  m.run();
  SimRunResult r;
  r.enq_ops = acc->enq;
  r.enq_latency_cycles =
      r.enq_ops ? acc->enq_lat() / static_cast<double>(r.enq_ops) : 0;
  r.duration_cycles = static_cast<double>(m.now() - start);
  r.metrics = m.metrics();
  return r;
}

// Consumer-only measured phase: `consumers` threads each dequeue
// `ops_per_thread` elements from the (pre-filled) queue.
// `consumer_id_offset` separates consumer ids from producer ids for queues
// with a single thread-id space (CC-Queue's per-thread records); SBQ keeps
// separate id ranges and passes 0.
template <typename QueueT>
SimRunResult measure_consumer_only(Machine& m, QueueT& q, int consumers,
                                   Value ops_per_thread, std::uint64_t seed,
                                   int consumer_id_offset) {
  auto acc = std::make_shared<detail::Accum>();
  const Time start = m.now();
  for (int ci = 0; ci < consumers; ++ci) {
    m.spawn(detail::consumer_thread(m, q, ci, consumer_id_offset + ci,
                                    ops_per_thread,
                                    seed * 2000003 + static_cast<std::uint64_t>(ci),
                                    acc));
  }
  m.run();
  SimRunResult r;
  r.deq_ops = acc->deq;
  r.deq_latency_cycles =
      r.deq_ops ? acc->deq_lat() / static_cast<double>(r.deq_ops) : 0;
  r.duration_cycles = static_cast<double>(m.now() - start);
  r.metrics = m.metrics();
  return r;
}

// Mixed measured phase: producers on cores [0, P) (socket 0 in a 2-socket
// machine), consumers on cores [cores/2, cores/2 + C) (socket 1).
template <typename QueueT>
SimRunResult measure_mixed(Machine& m, QueueT& q, int producers, int consumers,
                           Value ops_per_thread, std::uint64_t seed,
                           int consumer_id_offset) {
  auto acc = std::make_shared<detail::Accum>();
  const int consumer_core0 = m.core_count() / 2;
  const Time start = m.now();
  for (int p = 0; p < producers; ++p) {
    m.spawn(detail::producer_thread(m, q, p, p, ops_per_thread,
                                    seed * 1000003 + static_cast<std::uint64_t>(p),
                                    acc));
  }
  for (int ci = 0; ci < consumers; ++ci) {
    m.spawn(detail::consumer_thread(m, q, consumer_core0 + ci,
                                    consumer_id_offset + ci, ops_per_thread,
                                    seed * 2000003 + static_cast<std::uint64_t>(ci),
                                    acc));
  }
  m.run();
  SimRunResult r;
  r.enq_ops = acc->enq;
  r.deq_ops = acc->deq;
  r.enq_latency_cycles =
      r.enq_ops ? acc->enq_lat() / static_cast<double>(r.enq_ops) : 0;
  r.deq_latency_cycles =
      r.deq_ops ? acc->deq_lat() / static_cast<double>(r.deq_ops) : 0;
  r.duration_cycles = static_cast<double>(m.now() - start);
  r.metrics = m.metrics();
  return r;
}

// ---------------------------------------------------------------------------
// Whole-workload wrappers (prefill + measure on one machine, same seed for
// both phases) — kept for tests and callers outside the sweep path.
// ---------------------------------------------------------------------------

template <typename QueueT>
SimRunResult run_consumer_only(Machine& m, QueueT& q, int prefill_producers,
                               int consumers, Value ops_per_thread,
                               std::uint64_t seed = 1,
                               int consumer_id_offset = 0) {
  run_prefill(m, q, prefill_producers,
              consumer_only_per_producer(prefill_producers, consumers,
                                         ops_per_thread),
              seed);
  return measure_consumer_only(m, q, consumers, ops_per_thread, seed,
                               consumer_id_offset);
}

template <typename QueueT>
SimRunResult run_mixed(Machine& m, QueueT& q, int producers, int consumers,
                       Value ops_per_thread, Value prefill,
                       std::uint64_t seed = 1, int consumer_id_offset = 0) {
  run_prefill(m, q, producers, mixed_per_producer(producers, prefill), seed);
  return measure_mixed(m, q, producers, consumers, ops_per_thread, seed,
                       consumer_id_offset);
}

}  // namespace sbq::simq
