// Simulated-queue workloads for the figure-reproduction benchmarks:
// producer-only (Figure 5), consumer-only after a concurrent prefill
// (Figure 6), and the mixed two-socket workload (Figure 7), mirroring §6.1
// of the paper.
//
// Threads are simulated cores; producer i runs on core i and consumers run
// on cores [0, C) (consumer-only) or [cores/2, cores/2 + C) (mixed:
// producers on socket 0, consumers on socket 1, as the paper pins them). A
// small deterministic per-op think-time jitter avoids artificial lockstep.
//
// Every simulated run goes through the one coroutine pair and the one
// phase runner below: figure cells, op recording and sim-trace replay
// (src/replay/sim_replay.hpp, through an OpTap) and sim_microbench's
// allocation gate.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "replay/op_trace.hpp"
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

enum class Workload { kProducerOnly, kConsumerOnly, kMixed };

struct WorkloadSpec {
  Workload kind = Workload::kProducerOnly;
  int producers = 1;       // live enqueuers (also prefill threads)
  int consumers = 1;       // live dequeuers
  Value ops_per_thread = 1000;
  Value prefill = 0;      // mixed only
  std::uint64_t seed = 1;
  // Seed of the un-measured prefill phase; 0 means "use `seed`". Sweeps
  // that fork repeats from one warmed snapshot MUST set this to a value
  // that does not vary across repeats — the snapshot is shared, so the
  // prefill schedule must be too (the per-repeat variation lives entirely
  // in `seed`, which only the measured phase consumes).
  std::uint64_t prefill_seed = 0;
  int basket_capacity = 44;     // the paper's fixed B
};

// Elements each prefill producer enqueues (§6.1's "pre-fill using
// concurrent producers"): the consumers' total demand in a consumer-only
// run, `prefill` in a mixed run, split evenly and rounded up.
inline Value prefill_per_producer(const WorkloadSpec& spec) {
  const auto producers = static_cast<Value>(spec.producers);
  switch (spec.kind) {
    case Workload::kProducerOnly:
      return 0;
    case Workload::kConsumerOnly:
      return (static_cast<Value>(spec.consumers) * spec.ops_per_thread +
              producers - 1) /
             producers;
    case Workload::kMixed:
      return (spec.prefill + producers - 1) / producers;
  }
  throw std::logic_error("bad workload");
}

// Op recording and trace replay ride on the workload threads through one
// tap, null in plain runs. The tap appends one OpRecord per queue op
// (null dequeues included) outside the simulated timeline — no think or
// latency cost — so a tapped run's schedule is the plain run's.
//
// Record thread indices: prefill producer p is -(p+1), measured producer
// p is p, consumer c is producers + c. For replay, `pinned` holds each
// record thread's ops, indexed by thread + pin_base: a producer enqueues
// exactly those values; a consumer dequeues until it has matched that
// many successes, counting each one whose value differs in `mismatches`.
struct OpTap {
  std::vector<replay::OpRecord> records;
  std::vector<std::vector<Value>> pinned;  // empty when only recording
  int pin_base = 0;
  std::uint64_t mismatches = 0;

  const std::vector<Value>* pinned_ops(int thread) const {
    if (pinned.empty()) return nullptr;
    return &pinned[static_cast<std::size_t>(thread + pin_base)];
  }
};

namespace detail {

// Latency sums are kept as integer cycle counts. The totals stay far below
// 2^53, so the final double(cycle_sum) equals the value the old sequential
// double accumulation produced — artifacts stay byte-identical.
struct Accum {
  std::uint64_t enq_lat_cycles = 0, deq_lat_cycles = 0;
  std::uint64_t enq = 0, deq = 0;
};

template <typename QueueT>
Task<void> producer_thread(Machine& m, QueueT& q, int core, int id, Value ops,
                           std::uint64_t seed, Accum* acc, OpTap* tap,
                           int thread) {
  Xoshiro256 rng(seed);
  Core& c = m.core(core);
  const std::vector<Value>* pinned =
      tap != nullptr ? tap->pinned_ops(thread) : nullptr;
  if (pinned != nullptr) ops = pinned->size();
  co_await c.think(1 + rng.next_below(32));
  for (Value i = 0; i < ops; ++i) {
    const Value v = pinned != nullptr
                        ? (*pinned)[i]
                        : kFirstElement + (static_cast<Value>(id) << 32 | i);
    const Time start = c.now();
    co_await q.enqueue(c, v, id);
    acc->enq_lat_cycles += c.now() - start;
    ++acc->enq;
    if (tap != nullptr) {
      tap->records.push_back(
          {thread, replay::kOpEnqueue, v, start, c.now(), 1});
    }
    co_await c.think(1 + rng.next_below(8));
  }
}

template <typename QueueT>
Task<void> consumer_thread(Machine& m, QueueT& q, int core, int id, Value ops,
                           std::uint64_t seed, Accum* acc, OpTap* tap,
                           int thread) {
  Xoshiro256 rng(seed);
  Core& c = m.core(core);
  const std::vector<Value>* expected =
      tap != nullptr ? tap->pinned_ops(thread) : nullptr;
  if (expected != nullptr) ops = expected->size();
  co_await c.think(1 + rng.next_below(32));
  Value got = 0;
  while (got < ops) {
    const Time start = c.now();
    const Value e = co_await q.dequeue(c, id);
    if (tap != nullptr) {
      tap->records.push_back(
          {thread, replay::kOpDequeue, 0, start, c.now(), e});
      if (e != 0 && expected != nullptr && e != (*expected)[got]) {
        ++tap->mismatches;
      }
    }
    if (e != 0) {
      acc->deq_lat_cycles += c.now() - start;
      ++acc->deq;
      ++got;
    } else {
      co_await c.think(64);  // transiently empty; back off briefly
    }
  }
}

enum class Phase { kPrefill, kMeasure };

// Spawns one phase of `spec` on (m, q); the caller runs the machine to
// quiescence while `acc` and `tap`, which the threads point at, live. The
// prefill phase is `producers` threads of prefill_per_producer elements
// each, seeded from prefill_seed (or seed). The measured phase is the
// producers (unless consumer-only) on cores [0, P), then the consumers
// (unless producer-only) from core 0, or from cores/2 when mixed.
// `consumer_id_offset` separates consumer ids from producer ids for
// queues with a single thread-id space (CC-Queue's per-thread records);
// SBQ keeps separate id ranges and passes 0.
template <typename QueueT>
void spawn_phase(Machine& m, QueueT& q, const WorkloadSpec& spec, Phase phase,
                 int consumer_id_offset, Accum& acc, OpTap* tap) {
  const int producers = spec.producers;
  if (phase == Phase::kPrefill) {
    const std::uint64_t pseed =
        spec.prefill_seed == 0 ? spec.seed : spec.prefill_seed;
    const Value per_producer = prefill_per_producer(spec);
    for (int p = 0; p < producers; ++p) {
      m.spawn(producer_thread(m, q, p, p, per_producer,
                              pseed * 7 + static_cast<std::uint64_t>(p), &acc,
                              tap, -(p + 1)));
    }
    return;
  }
  if (spec.kind != Workload::kConsumerOnly) {
    for (int p = 0; p < producers; ++p) {
      m.spawn(producer_thread(
          m, q, p, p, spec.ops_per_thread,
          spec.seed * 1000003 + static_cast<std::uint64_t>(p), &acc, tap, p));
    }
  }
  if (spec.kind != Workload::kProducerOnly) {
    const int core0 = spec.kind == Workload::kMixed ? m.core_count() / 2 : 0;
    for (int ci = 0; ci < spec.consumers; ++ci) {
      m.spawn(consumer_thread(
          m, q, core0 + ci, consumer_id_offset + ci, spec.ops_per_thread,
          spec.seed * 2000003 + static_cast<std::uint64_t>(ci), &acc, tap,
          producers + ci));
    }
  }
}

// The measured phase's result: `acc`'s means, the wall time since `start`
// and the machine's counters.
inline SimRunResult run_result(const Machine& m, const Accum& acc,
                               Time start) {
  SimRunResult r;
  r.enq_ops = acc.enq;
  r.deq_ops = acc.deq;
  r.enq_latency_cycles = r.enq_ops ? static_cast<double>(acc.enq_lat_cycles) /
                                         static_cast<double>(r.enq_ops)
                                   : 0;
  r.deq_latency_cycles = r.deq_ops ? static_cast<double>(acc.deq_lat_cycles) /
                                         static_cast<double>(r.deq_ops)
                                   : 0;
  r.duration_cycles = static_cast<double>(m.now() - start);
  r.metrics = m.metrics();
  return r;
}

}  // namespace detail

// Runs `spec`'s un-measured prefill phase (none for producer-only) on
// machine `m`, leaving it quiescent. The phase is split from the measured
// one so that sweep cells sharing a (row, queue) coordinate can run it
// once and fork each repeat from a snapshot (bench/sim_queue_bench_util.hpp's
// WarmedWorkload); it reads only repeat-independent spec fields.
template <typename QueueT>
void prefill_spec(Machine& m, QueueT& q, const WorkloadSpec& spec,
                  OpTap* tap = nullptr) {
  if (spec.kind == Workload::kProducerOnly) return;  // starts empty
  detail::Accum acc;
  detail::spawn_phase(m, q, spec, detail::Phase::kPrefill, 0, acc, tap);
  m.run();
}

// Runs `spec`'s measured phase; any prefill must already have happened (on
// this machine or on the snapshot it was forked from). The machine must
// have enough cores: producer-only/consumer-only use cores [0, threads);
// mixed puts consumers at [cores/2, ...).
template <typename QueueT>
SimRunResult measure_spec(Machine& m, QueueT& q, const WorkloadSpec& spec,
                          int consumer_id_offset, OpTap* tap = nullptr) {
  detail::Accum acc;
  const Time start = m.now();
  detail::spawn_phase(m, q, spec, detail::Phase::kMeasure, consumer_id_offset,
                      acc, tap);
  m.run();
  return detail::run_result(m, acc, start);
}

// Both phases on one machine.
template <typename QueueT>
SimRunResult run_spec(Machine& m, QueueT& q, const WorkloadSpec& spec,
                      int consumer_id_offset, OpTap* tap = nullptr) {
  prefill_spec(m, q, spec, tap);
  return measure_spec(m, q, spec, consumer_id_offset, tap);
}

}  // namespace sbq::simq
